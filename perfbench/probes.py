"""Direct probes of the coupling kernel (``kdgf.core``).

Each probe times ``coupling_sums`` and ``potential_arrays`` in batches of at
least 10 ms and reports the median batch's microseconds per call.  Batches
of all probes are taken round-robin, so a burst of load from other tenants
of the machine hits a few batches of every probe rather than every batch of
one.  The working set is measured, not computed: tracemalloc's peak over one
call (numpy reports its array allocations to tracemalloc).  These are bytes
allocated, not bytes moved.  Each size is labelled against the last-level
cache the machine reports; on the reference machine (300 MiB L3) every
probed size is cache-resident, so no bandwidth figure is derived.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from kdgf import core, inits

SIZES = (4, 64, 256, 2048)
BATCH_S = 0.01
REPEATS = 7


def _batch(fn, args, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return time.perf_counter() - start


def _calls_per_batch(fn, args) -> int:
    calls = 1
    while _batch(fn, args, calls) < BATCH_S:
        calls *= 4
    return calls


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def probe_all(theta, omega, coupling, llc_bytes: int | None) -> dict:
    """Probes on the workload's own input (``own``) and at each of SIZES."""
    inputs = {"own": (theta, omega, coupling)}
    for n in SIZES:
        inputs[f"n{n}"] = (inits.random_arc(n, 3.0, np.random.default_rng(n)).phases,
                           inits.uniform_frequencies(n, 0.2, np.random.default_rng(n + 1)).omega,
                           1.0)
    targets = {}
    for label, (th, om, k) in inputs.items():
        targets[label, "coupling_sums"] = (core.coupling_sums, (th,))
        targets[label, "potential_arrays"] = (core.potential_arrays, (th, om, k))
    calls = {key: _calls_per_batch(fn, args) for key, (fn, args) in targets.items()}
    batches = {key: [] for key in targets}
    for _ in range(REPEATS):
        for key, (fn, args) in targets.items():
            batches[key].append(_batch(fn, args, calls[key]) / calls[key])

    detail = {label: {} for label in inputs}
    metrics = {}
    for (label, fn_name), (fn, args) in targets.items():
        us = statistics.median(batches[label, fn_name]) * 1e6
        nbytes = peak_bytes(fn, *args)
        detail[label].update({f"{fn_name}.us": us, f"{fn_name}.bytes": nbytes})
        if label == "own":
            metrics[f"core.{fn_name}.us"] = us
        else:
            metrics[f"core.{fn_name}.{label}.us"] = us
            metrics[f"core.{fn_name}.{label}.bytes"] = nbytes
    for label, d in detail.items():
        d["n"] = int(inputs[label][0].size)
        ws = max(d["coupling_sums.bytes"], d["potential_arrays.bytes"])
        d["residency"] = ("unknown" if llc_bytes is None else
                          "cache-resident" if ws <= llc_bytes else "exceeds last-level cache")
    return {"metrics": metrics, "detail": detail}
