"""A speed gauge: fixed work, timed between sentences, to scale latencies by.

On the shared two-vCPU machine this benchmark was tuned on, a CPU runs at
one of two speeds, one nearly twice the other, switching within seconds
whatever the benchmark itself does.  Unscaled, sentences/s of identical
inputs spread by about a quarter between runs (IQR over median, six
seeds); the run loop therefore reads the gauge every ``EVERY_NS`` of
pipeline time and scales each latency by ``REF_NS`` over the median of
the last three readings, i.e. to the machine's common, slower speed.

The gauge is two timed parts: plain Python (regular expressions, dict
lookups, string joins, like extraction and G2P) and numpy (a bincount,
masks and a lexsort on lexicon-sized arrays, like top_k).  The two parts
speed up by different factors in the fast state, and micronorm's
workloads mix them differently, so the reading weighs the numpy part by
``NUMPY_WEIGHT``: across six seeds of each workload, weights 0, 0.25,
0.5, 1 and 2 gave a largest sentences/s spread of 0.097, 0.066, 0.057,
0.071 and 0.081.  Nothing here touches micronorm.
"""

from __future__ import annotations

import re
import time

import numpy as np

REF_NS = 86_000  # one reading at the machine's common speed
EVERY_NS = 2_000_000  # pipeline time between two readings
NUMPY_WEIGHT = 0.5

_WORDS = tuple(f"w{i % 97}x{i % 13}y" for i in range(60))
_TABLE = {w: i for i, w in enumerate(_WORDS[:30])}
_TOKEN = re.compile(r"[a-z0-9]+")
_POSTINGS = [np.arange(k, 4600, 9, dtype=np.intp) for k in range(6)]


def gauge() -> float:
    """One reading: Python-part ns plus NUMPY_WEIGHT times numpy-part ns."""
    start = time.perf_counter_ns()
    acc = 0
    for word in _WORDS:
        for tok in _TOKEN.findall(word):
            acc += _TABLE.get(tok, 0)
        acc += len("_".join((word, word)))
    mid = time.perf_counter_ns()
    counts = np.bincount(np.concatenate(_POSTINGS), minlength=4700)
    keep = np.flatnonzero((counts > 0) & (counts < 3))
    np.lexsort((keep, counts[keep]))
    end = time.perf_counter_ns()
    return (mid - start) + NUMPY_WEIGHT * (end - mid)


def gauge_median(n: int = 9) -> float:
    return sorted(gauge() for _ in range(n))[n // 2]
