"""Metric substrate: euclidean / manhattan / angular distances.

All algorithms in the paper are metric-agnostic; the three metrics here
are the ones used in its evaluation (Table I). Each metric exposes
vectorized forms:

* ``pairwise(A, B)`` -> (|A| x |B|) distance matrix,
* ``point_to_rows(x, A)`` -> (|A|,) distances from one point,

over float64 numpy arrays with points as rows.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Metric", "get_metric", "METRICS", "row_chunks"]

CHUNK = 1 << 16  # elements per temporary of a chunked row-by-row computation


def row_chunks(n_rows: int, row_elems: int):
    """Row slices whose temporaries hold about ``CHUNK`` elements (at least one row)."""
    step = max(1, CHUNK // max(row_elems, 1))
    return (slice(a, a + step) for a in range(0, n_rows, step))


class Metric:
    """A named distance metric with vectorized pairwise forms."""

    def __init__(self, name: str):
        if name not in ("euclidean", "manhattan", "angular"):
            raise ValueError(f"unknown metric {name!r}")
        self.name = name

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full distance matrix between rows of A and rows of B."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if self.name == "euclidean":
            # (a-b)^2 = a^2 + b^2 - 2ab, clipped for fp negatives
            sq = (
                (A * A).sum(1)[:, None]
                + (B * B).sum(1)[None, :]
                - 2.0 * (A @ B.T)
            )
            return np.sqrt(np.clip(sq, 0.0, None))
        if self.name == "manhattan":
            out = np.empty((len(A), len(B)))
            for rows in row_chunks(len(A), B.size):
                out[rows] = np.abs(A[rows, None, :] - B[None, :, :]).sum(-1)
            return out
        # angular: arccos of cosine similarity, in [0, pi]
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        denom = np.where(na[:, None] * nb[None, :] == 0, 1.0, na[:, None] * nb[None, :])
        cos = (A @ B.T) / denom
        return np.arccos(np.clip(cos, -1.0, 1.0))

    def point_to_rows(self, x: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Distances from a single point ``x`` to every row of ``A``."""
        x = np.asarray(x, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        if A.size == 0:
            return np.zeros(0)
        if self.name == "euclidean":
            diff = A - x[None, :]
            return np.sqrt((diff * diff).sum(1))
        if self.name == "manhattan":
            return np.abs(A - x[None, :]).sum(1)
        nx = np.linalg.norm(x)
        na = np.linalg.norm(A, axis=1)
        denom = np.where(na * nx == 0, 1.0, na * nx)
        cos = (A @ x) / denom
        return np.arccos(np.clip(cos, -1.0, 1.0))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Metric({self.name!r})"


METRICS = ("euclidean", "manhattan", "angular")


def get_metric(name: str) -> Metric:
    """Look up a metric by name (``euclidean``/``manhattan``/``angular``)."""
    return Metric(name)
