"""SFDM2 (Algorithm 3) — (1-ε)/(3m+2)-approximate streaming FDM, any m.

Stream phase: like SFDM1 but every group candidate has cap **k** (not k_i).

Post phase (lines 9-18), per guess μ with ``|S_μ| = k`` and
``|S_{μ,i}| >= k_i``:

1. initial partial solution ``S'_μ`` ⊂ S_μ keeping at most k_i per group
   (we keep a greedy max-min subset where the paper allows an arbitrary one);
2. cluster all stored candidate elements at threshold ``μ/(m+1)``
   (single-linkage transitive closure);
3. matroid intersection between the fairness matroid (caps k_i) and the
   cluster matroid (≤1 element per cluster), solved by Algorithm 4 (greedy
   far-point insertion + Cunningham augmentation), which augments ``S'_μ``
   to a fair size-k solution whenever one exists.
"""
from __future__ import annotations

import numpy as np

from ..diversity import div
from ..matroid.intersection import max_common_independent_set
from ..matroid.partition import PartitionMatroid
from ..metrics import Metric
from .clustering import threshold_clusters
from .stream_dm import GuessSolver


def _greedy_maxmin_subset(D: np.ndarray, members: list[int], size: int) -> list[int]:
    """GMM-style max-min subset of ``members`` (indices into D) of given size."""
    if size <= 0:
        return []
    if len(members) <= size:
        return list(members)
    first = int(np.argmax(D[np.ix_(members, members)].sum(axis=1)))
    chosen = [members[first]]
    rest = [x for x in members if x != chosen[0]]
    while len(chosen) < size:
        d = D[np.ix_(rest, chosen)].min(axis=1)
        pick = int(np.argmax(d))
        chosen.append(rest.pop(pick))
    return chosen


class SFDM2(GuessSolver):
    """Feed the stream via :meth:`update`, then :meth:`solve` post-processes.

    Eligible guesses (Alg. 3 line 9): every group candidate holds >= k_i.
    """

    group_test = staticmethod(np.greater_equal)
    no_guess = (
        "SFDM2: no guess yielded a fair size-k solution; "
        "extent estimate or quotas inconsistent with the data"
    )

    def __init__(
        self,
        metric: str | Metric,
        *,
        ks: dict[int, int],
        eps: float,
        d_min: float,
        d_max: float,
        dim: int,
    ):
        ks = {int(g): int(kg) for g, kg in ks.items()}
        self.m = len(ks)
        k = sum(ks.values())
        super().__init__(
            metric, k=k, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=dim,
            group_caps={g: k for g in ks},  # cap k, not k_i (Alg. 3 line 7)
        )

    def _post_one(self, g: int) -> tuple[float, list[int]] | None:
        """Post-process guess index g; returns (div, store indices) or None."""
        st, m, k = self.state, self.m, self.k
        mu = float(self.mus[g])
        # S_all: union of the blind and all group candidates, as sorted store
        # indices (each element is stored once)
        blind = st.blind.indices(g)
        by_group = [b.indices(g) for b in st.group_banks.values()]
        s_all = np.unique(np.concatenate([blind, *by_group]))
        feats = st.feats[s_all]
        groups = st.groups[s_all]
        D = self.metric.pairwise(feats, feats)
        # local positions of the blind candidate within s_all
        blind_local = np.searchsorted(s_all, blind).tolist()
        # (1) initial partial solution: at most k_i per group from S_mu
        init: set[int] = set()
        for grp, kg in self.ks.items():
            members = [x for x in blind_local if groups[x] == grp]
            init.update(_greedy_maxmin_subset(D, members, kg))
        # (2) clusters at threshold mu/(m+1)
        labels = threshold_clusters(D, mu / (m + 1))
        # Guard: Lemma 3(ii) promises S_mu hits each cluster at most once; an
        # estimated extent grid can break the premise, so enforce I2 on init.
        seen: set[int] = set()
        init_ok: set[int] = set()
        for x in sorted(init):
            c = int(labels[x])
            if c not in seen:
                seen.add(c)
                init_ok.add(x)
        m1 = PartitionMatroid(groups, self.ks)
        m2 = PartitionMatroid(labels, 1)
        sol = max_common_independent_set(
            m1, m2, init=init_ok, dist_matrix=D, target=k
        )
        if len(sol) != k:
            return None
        sol_idx = sorted(sol)
        return div(feats[sol_idx], self.metric), [int(s_all[x]) for x in sol_idx]
