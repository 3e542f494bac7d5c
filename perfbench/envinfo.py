"""Environment record printed with every result."""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

import kdgf

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> dict:
    """Cache level/type -> size string as the kernel reports it (e.g. L3: 307200K)."""
    out = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def last_level_cache_bytes() -> int | None:
    sizes = caches()
    return size_bytes(sizes[max(sizes)]) if sizes else None


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over src/**/*.py, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    threads_env = os.environ.get("KDGF_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kdgf": kdgf.__version__,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "workload_seed": seed,
        # the program's own default; the benchmark never sets KDGF_THREADS
        "sweep_threads": int(threads_env or 0) or min(8, os.cpu_count() or 1),
        "KDGF_THREADS": threads_env,
        "loadavg": list(os.getloadavg()),
    }
