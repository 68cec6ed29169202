"""Threshold single-linkage clustering (Algorithm 3, lines 13-16).

Repeatedly merging any two clusters that contain a cross-pair closer than the
threshold is exactly the transitive closure of the "closer than threshold"
relation: the connected components of that graph.
"""
from __future__ import annotations

import numpy as np


def threshold_clusters(D: np.ndarray, threshold: float) -> np.ndarray:
    """Cluster labels (0..l-1) of the points behind the distance matrix ``D``.

    Points i < j with ``D[i, j] < threshold`` end up in the same cluster
    (transitively); the minimum cross-cluster distance is >= threshold.
    """
    n = len(D)
    close = np.triu(D < threshold, 1)
    close |= close.T
    # min-label propagation; labels[i] <= i names a point of i's component,
    # so the pointer jump labels[labels] stays inside the component
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(close, labels, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    return np.unique(labels, return_inverse=True)[1].astype(np.int64)
