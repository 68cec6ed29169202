"""Algorithm 1 — streaming (unconstrained) max-min diversity maximization.

Borassi et al.'s guess-grid algorithm, shown to be ``(1-ε)/2``-approximate for
max-min dispersion by Theorem 1 of the reproduced paper. This is the building
block both SFDM algorithms instantiate per candidate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diversity import div
from ..guesses import guess_grid
from ..metrics import Metric, get_metric
from .bank import StreamState


@dataclass
class DMResult:
    """Solution of a (fair) diversity-maximization run."""

    indices: np.ndarray        # indices into the run's element store
    ids: np.ndarray            # original stream ids of the solution
    feats: np.ndarray
    groups: np.ndarray
    diversity: float
    mu: float                  # winning guess
    n_stored: int              # elements kept in memory (space usage)


class GuessSolver:
    """Stream phase and best-guess post phase shared by Algorithms 1-3.

    A guess is eligible when its blind candidate holds k elements and, for
    each quota ``ks[i]``, ``group_test(|S_μ,i|, k_i)`` holds. Subclasses turn
    an eligible guess into a solution (:meth:`_post_one`); :meth:`solve`
    returns the most diverse one, or raises ``no_guess`` if there is none.
    """

    group_test = staticmethod(np.equal)

    def __init__(self, metric, *, k, ks, eps, d_min, d_max, dim, group_caps=None):
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.k = k
        self.ks = ks
        self.mus = guess_grid(d_min, d_max, eps)
        self.state = StreamState(self.metric, self.mus, dim, k, group_caps=group_caps)

    def update(self, feats, groups=None, ids=None) -> None:
        self.state.update(feats, groups, ids)

    def _eligible(self) -> np.ndarray:
        """(G,) mask of the guesses the post phase considers."""
        st = self.state
        ok = st.blind.sizes == self.k
        for grp, kg in self.ks.items():
            ok &= self.group_test(st.group_banks[grp].sizes, kg)
        return ok

    def _post_one(self, g: int) -> tuple[float, list[int]] | None:
        """Post-process guess index g; returns (div, store indices) or None."""
        raise NotImplementedError

    def solve(self) -> DMResult:
        """The most diverse solution over the eligible guesses (Alg. 1 line 7)."""
        st = self.state
        best = None
        for g in np.flatnonzero(self._eligible()):
            out = self._post_one(int(g))
            if out is not None and (best is None or out[0] > best[0]):
                best = (out[0], out[1], float(self.mus[g]))
        if best is None:
            raise RuntimeError(self.no_guess.format(k=self.k))
        d, sol, mu = best
        idx = np.asarray(sol, dtype=np.int64)
        return DMResult(
            indices=idx,
            ids=st.ids[idx],
            feats=st.feats[idx],
            groups=st.groups[idx],
            diversity=d,
            mu=mu,
            n_stored=st.n_stored,
        )


class StreamingDM(GuessSolver):
    """One-pass streaming DM: feed chunks via :meth:`update`, then :meth:`solve`."""

    no_guess = "no guess filled k={k} candidates; d_min estimate too high or k > n"

    def __init__(
        self,
        metric: str | Metric,
        *,
        k: int,
        eps: float,
        d_min: float,
        d_max: float,
        dim: int,
    ):
        super().__init__(metric, k=k, ks={}, eps=eps, d_min=d_min, d_max=d_max, dim=dim)

    def _post_one(self, g: int) -> tuple[float, np.ndarray]:
        """A full candidate as is (Alg. 1, line 7)."""
        st = self.state
        idx = st.blind.indices(g)
        return div(st.feats[idx], self.metric), idx
