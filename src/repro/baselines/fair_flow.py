"""FairFlow (Moumoulidou et al., ICDT 2021) — offline 1/(3m-1)-approx FDM.

Re-implemented from the descriptions in the ICDT paper and the reproduced
paper's "Comparison with Prior Art": same cluster-then-matroid framing as
SFDM2, but (a) offline — it reduces X to per-group GMM coresets with k points
per group, costing O(nkm) distance computations over the whole dataset, and
(b) the matroid intersection is solved for any maximum assignment, with
arbitrary (non-greedy) element choices, which is why its practical solution
quality degrades as m grows.

For a guess μ (searched downward on a geometric grid from the GMM upper
bound) it clusters the coreset at threshold μ/(m+1) and asks Algorithm 4
(:func:`~repro.matroid.intersection.max_common_independent_set`, without a
distance matrix) for a maximum common independent set of the fairness
matroid (≤ k_i per group) and the cluster matroid (≤ 1 per cluster). Its
size is the value of the ICDT paper's max-flow
``source -> group_i (cap k_i) -> element (cap 1) -> cluster (cap 1) -> sink``;
a set of size k is a fair solution with one element per cluster, hence
diversity >= μ/(m+1).
"""
from __future__ import annotations

import numpy as np

from ..core.clustering import threshold_clusters
from ..diversity import div
from ..matroid.intersection import max_common_independent_set
from ..matroid.partition import PartitionMatroid
from ..metrics import Metric, get_metric

SHRINK = 0.95     # ratio of successive guesses in the downward μ search
MAX_STEPS = 400   # guesses tried before giving up (0.95^400 ≈ 1e-9)


def fair_flow(
    feats: np.ndarray,
    groups: np.ndarray,
    ks: dict[int, int],
    metric: str | Metric,
) -> tuple[np.ndarray, float]:
    """Returns (solution indices into ``feats``, diversity)."""
    metric = get_metric(metric) if isinstance(metric, str) else metric
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups)
    k = sum(ks.values())
    m = len(ks)
    from .gmm import gmm

    # offline coreset: GMM with k points per group (full-dataset passes)
    core: list[int] = []
    for g, kg in ks.items():
        members = np.flatnonzero(groups == g)
        if len(members) < kg:
            raise ValueError(f"group {g} smaller than its quota {kg}")
        local = gmm(feats[members], min(k, len(members)), metric)
        core.extend(members[local].tolist())
    core_idx = np.array(sorted(set(core)))
    # upper bound on OPT_f: 2 * div(GMM(X, k))
    mu = 2.0 * div(feats[gmm(feats, k, metric)], metric)
    fair = PartitionMatroid(groups[core_idx], ks)
    Dc = metric.pairwise(feats[core_idx], feats[core_idx])
    for _ in range(MAX_STEPS):
        clusters = PartitionMatroid(threshold_clusters(Dc, mu / (m + 1)), 1)
        sol = max_common_independent_set(fair, clusters, target=k)
        if len(sol) == k:
            idx = core_idx[sorted(sol)]
            return idx, div(feats[idx], metric)
        mu *= SHRINK
    raise RuntimeError("FairFlow: no feasible assignment found down to mu≈0")
