"""(d_min, d_max) extent estimation for the guess grid.

The paper assumes ``d_min``/``d_max`` (hence Delta = d_max/d_min) are known.
In a deployment they are estimated from a sample before the stream starts;
``estimate_extent`` does that (sampled, with safety factors), while
``exact_extent`` computes honest extremes for small instances so tests can
verify the theoretical approximation bounds.
"""
from __future__ import annotations

import numpy as np

from .metrics import Metric

_BLOCK = 2048
# safety factors on the sampled extremes: d_min is scaled down, d_max up
LO_FACTOR = 0.5
HI_FACTOR = 2.0


def exact_extent(X: np.ndarray, metric: Metric) -> tuple[float, float]:
    """Exact (min nonzero, max) pairwise distance. O(n^2) — small n only."""
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 points")
    d_min, d_max = np.inf, 0.0
    for i in range(0, n, _BLOCK):
        D = metric.pairwise(X[i : i + _BLOCK], X)
        # mask the diagonal block's self-distances
        for r in range(D.shape[0]):
            D[r, i + r] = np.nan
        nz = D[(D > 0) & ~np.isnan(D)]
        if nz.size:
            d_min = min(d_min, float(nz.min()))
        d_max = max(d_max, float(np.nanmax(D)))
    if not np.isfinite(d_min):
        raise ValueError("all points identical; d_min undefined")
    return d_min, d_max


def estimate_extent(
    X: np.ndarray,
    metric: Metric,
    *,
    sample: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Sampled extent with safety factors.

    ``d_min`` is the minimum nonzero sampled distance scaled *down* by
    ``LO_FACTOR`` and ``d_max`` the sampled max scaled *up* by ``HI_FACTOR``,
    so the guess grid almost surely brackets the true OPT. A sample of ~1000
    points (~5e5 pairs) is ample for the extremes that matter: OPT_f is
    governed by typical far-pair distances, not the single global min.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n <= sample:
        d_min, d_max = exact_extent(X, metric)
    else:
        idx = np.random.default_rng(seed).choice(n, size=sample, replace=False)
        d_min, d_max = exact_extent(X[idx], metric)
    return d_min * LO_FACTOR, d_max * HI_FACTOR
