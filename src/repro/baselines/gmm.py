"""GMM (Gonzalez' greedy) — 1/2-approximate offline max-min DM.

Also the paper's OPT_f upper-bound oracle: since GMM is 1/2-approximate and
``OPT >= OPT_f``, ``2 * div(GMM(X, k))`` upper-bounds ``OPT_f`` (Table II).
Fully vectorized: maintains the running min-distance-to-solution array.
"""
from __future__ import annotations

import numpy as np

from ..metrics import Metric


def gmm(
    feats: np.ndarray, k: int, metric: Metric, *, first: int = 0
) -> np.ndarray:
    """Indices of the greedy max-min solution (first point = ``first``)."""
    n = len(feats)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = first
    mind = metric.point_to_rows(feats[first], feats)
    for i in range(1, k):
        nxt = int(np.argmax(mind))
        chosen[i] = nxt
        mind = np.minimum(mind, metric.point_to_rows(feats[nxt], feats))
    return chosen

