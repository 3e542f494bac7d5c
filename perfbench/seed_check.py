"""Seed check: every workload must pass its output check on the committed
seed and on one other seed.

    python3 perfbench/seed_check.py [--seeds 1,2] [--seconds 2]

Runs ``run.py`` briefly for each workload and seed and exits non-zero unless
every op of every run passed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2", help="committed seed first, then others")
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            passed = bool(result.get("correct"))
            ok &= passed
            print(f"{workload:10s} seed {seed}: {'pass' if passed else 'FAIL'} "
                  f"({result.get('attempted', 0)} ops, {result.get('failed', '?')} failed)")
            if not passed:
                print(proc.stderr.strip(), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
