"""Partition matroid over a labelled ground set.

Both matroids in SFDM2's post-processing are partition matroids:

* the **fairness matroid** ``M1``: labels = group ids, caps = the quotas k_i;
* the **cluster matroid** ``M2``: labels = cluster ids, caps = 1 everywhere.
"""
from __future__ import annotations

import numpy as np


class PartitionMatroid:
    """``S`` is independent iff ``|S ∩ {x: label(x)=l}| <= cap(l)`` for all l.

    ``labels`` holds each element's dense label index and ``caps`` the cap of
    each label index; a label missing from a ``caps`` dict has cap 0.
    """

    def __init__(self, labels: np.ndarray, caps: dict[int, int] | int):
        labels = np.asarray(labels, dtype=np.int64)
        if isinstance(caps, int):
            caps = dict.fromkeys(np.unique(labels).tolist(), caps)
        keys = np.union1d(labels, np.fromiter(caps, dtype=np.int64))
        self.labels = np.searchsorted(keys, labels)
        self.caps = np.array([caps.get(int(l), 0) for l in keys], dtype=np.int64)

    def counts(self, members) -> np.ndarray:
        """Per-label counts of ``members`` (element indices or a boolean mask)."""
        return np.bincount(self.labels[members], minlength=len(self.caps))

    def can_add(self, counts: np.ndarray) -> np.ndarray:
        """(n,) mask of the elements whose addition keeps ``counts`` within the caps."""
        return (counts < self.caps)[self.labels]

    def is_independent(self, members) -> bool:
        return bool((self.counts(members) <= self.caps).all())
