"""Vectorized per-guess candidate maintenance (the stream phase of Alg. 1-3).

One :class:`StreamState` holds

* a bounded **element store** — features/group/id of every element accepted by
  at least one candidate (the paper's ``O(km logΔ/ε)`` memory bound), and
* one or more :class:`CandidateBank` s — for each guess ``μ`` in the grid, a
  candidate of at most ``cap`` store elements, held as a fixed ``(G, cap)``
  table of store indices.

The update rule (Algorithm 1, line 5): for each guess μ with ``|S_μ| < cap``
and ``d(x, S_μ) >= μ``, add x to ``S_μ``, checking only the *blind* bank and
the bank of x's own group (Algorithms 2/3). :func:`accept_rows` is the rule's
only implementation. Candidates only grow, so a rejection is permanent
(DESIGN.md §3): :meth:`StreamState.update` drops the rows of each block that
the start-of-block state rejects, then applies the survivors in stream order,
and the Spark job's executor prefilter :func:`survives_snapshot` is the same
block filter over a broadcast snapshot of the state.
"""
from __future__ import annotations

import copy

import numpy as np

from ..metrics import Metric, get_metric, row_chunks

__all__ = ["CandidateBank", "StreamState", "accept_rows", "survives_snapshot"]

# Rows per block of the update: smaller blocks filter against a fresher state,
# larger ones make fewer numpy calls (128 measured fastest on Adult/Census/Lyrics).
BLOCK = 128


def accept_rows(
    D: np.ndarray, mus: np.ndarray, slots: np.ndarray, sizes: np.ndarray, cap: int
) -> np.ndarray:
    """Algorithm 1 line 5 for a block of rows against one bank: a (B, G) mask.

    ``D`` holds the (B, N) distances from the rows to the first N store
    elements, which hold every candidate of the bank (``slots[g, :sizes[g]]``).
    Row b is accepted at guess g iff ``sizes[g] < cap`` and ``d(x_b, S_g) >=
    mus[g]``, with ``d(x, ∅) = ∞``.
    """
    n_rows, n = D.shape
    out = np.zeros((n_rows, len(mus)), dtype=bool)
    live = np.flatnonzero(sizes < cap)
    # padding (-1) points at an appended inf column
    idx = slots[live, : sizes[live].max(initial=0)]
    idx = np.where(idx < 0, n, idx)
    D = np.hstack((D, np.full((n_rows, 1), np.inf)))
    for rows in row_chunks(n_rows, idx.size):
        out[rows, live] = D[rows][:, idx].min(axis=2, initial=np.inf) >= mus[live]
    return out


def _keep_rows(D, groups, mus, blind, banks) -> np.ndarray:
    """Rows that some guess of the blind bank or of their group's bank accepts.

    ``blind`` and the values of ``banks`` are ``(slots, sizes, cap)``. A row
    whose group has no bank is kept, so that the update rejects it loudly.
    """
    keep = accept_rows(D, mus, *blind).any(axis=1)
    if banks:
        keep |= ~np.isin(groups, list(banks))
    for grp, bank in banks.items():
        rows = np.flatnonzero(groups == grp)
        keep[rows] |= accept_rows(D[rows], mus, *bank).any(axis=1)
    return keep


class CandidateBank:
    """G candidates (one per guess) of at most ``cap`` store elements each.

    Row g of ``slots`` holds candidate g's store indices in insertion order,
    which is ascending; entries past ``sizes[g]`` are -1.
    """

    def __init__(self, n_guesses: int, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.slots = np.full((n_guesses, cap), -1, dtype=np.int64)
        self.sizes = np.zeros(n_guesses, dtype=np.int64)

    def arrays(self) -> tuple:
        """``(slots, sizes, cap)``, the form :func:`accept_rows` reads."""
        return self.slots, self.sizes, self.cap

    def accept_mask(self, D: np.ndarray, mus: np.ndarray) -> np.ndarray:
        """Which guesses accept each row of the (B, store) distances ``D``."""
        return accept_rows(D, mus, *self.arrays())

    def add(self, acc: np.ndarray, j: int) -> None:
        """Add store element ``j`` to the candidates of the guesses in mask ``acc``."""
        self.slots[acc, self.sizes[acc]] = j
        self.sizes[acc] += 1

    def indices(self, guess: int) -> np.ndarray:
        """Store indices of candidate ``S_μ`` for guess index ``guess``."""
        return self.slots[guess, : self.sizes[guess]].copy()


class StreamState:
    """Element store + blind/group candidate banks; strictly sequential update."""

    def __init__(
        self,
        metric: Metric,
        mus: np.ndarray,
        dim: int,
        k: int,
        group_caps: dict[int, int] | None = None,
    ):
        self.metric = metric
        self.mus = np.asarray(mus, dtype=np.float64)
        if len(self.mus) == 0:
            raise ValueError("empty guess grid")
        self.dim = dim
        self.k = k
        g = len(self.mus)
        self.blind = CandidateBank(g, k)
        self.group_banks: dict[int, CandidateBank] = {}
        if group_caps is not None:
            for grp, cap in group_caps.items():
                self.group_banks[int(grp)] = CandidateBank(g, cap)
        cap0 = 64
        self._feats = np.zeros((cap0, dim), dtype=np.float64)
        self._groups = np.zeros(cap0, dtype=np.int64)
        self._ids = np.zeros(cap0, dtype=np.int64)
        self.n_stored = 0
        self.n_seen = 0

    # -- store access -------------------------------------------------------
    @property
    def feats(self) -> np.ndarray:
        return self._feats[: self.n_stored]

    @property
    def groups(self) -> np.ndarray:
        return self._groups[: self.n_stored]

    @property
    def ids(self) -> np.ndarray:
        return self._ids[: self.n_stored]

    def _append(self, x: np.ndarray, group: int, eid: int) -> int:
        if self.n_stored == len(self._feats):
            new_cap = 2 * len(self._feats)
            self._feats = np.resize(self._feats, (new_cap, self.dim))
            self._groups = np.resize(self._groups, new_cap)
            self._ids = np.resize(self._ids, new_cap)
        j = self.n_stored
        self._feats[j] = x
        self._groups[j] = group
        self._ids[j] = eid
        self.n_stored += 1
        return j

    # -- stream update ------------------------------------------------------
    def update(
        self,
        feats: np.ndarray,
        groups: np.ndarray | None = None,
        ids: np.ndarray | None = None,
    ) -> None:
        """Process a chunk of the stream in order (chunking never changes state)."""
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        b = len(feats)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise ValueError(
                f"rows 0..{b - 1} have shape {feats.shape[1:]}, expected ({self.dim},)"
            )
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            raise ValueError(f"row(s) {bad.tolist()} have non-finite features")
        if groups is None:
            if self.group_banks:
                raise ValueError("groups are required when group banks exist")
            groups = np.zeros(b, dtype=np.int64)
        groups = np.asarray(groups, dtype=np.int64)
        if ids is None:
            ids = np.arange(self.n_seen, self.n_seen + b, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        for name, a in (("groups", groups), ("ids", ids)):
            if a.shape != (b,):
                raise ValueError(f"{name} has shape {a.shape}, expected ({b},) for {b} rows")
        if self.group_banks:
            unknown = np.setdiff1d(groups, list(self.group_banks))
            if unknown.size:
                raise ValueError(
                    f"group(s) {unknown.tolist()} have no candidate bank; "
                    f"known groups are {sorted(self.group_banks)}"
                )
        for a in range(0, b, BLOCK):
            blk = slice(a, a + BLOCK)
            self._update_block(feats[blk], groups[blk], ids[blk])
        self.n_seen += b

    def _update_block(self, feats, groups, ids) -> None:
        """Block filter against the state at the start of the block, then the
        survivors in order; distances to elements stored meanwhile come from
        the survivors' own distance matrix."""
        D = self.metric.pairwise(feats, self.feats)
        by_group = {g: b.arrays() for g, b in self.group_banks.items()}
        rows = np.flatnonzero(_keep_rows(D, groups, self.mus, self.blind.arrays(), by_group))
        X, D_old = feats[rows], D[rows]
        D_new = self.metric.pairwise(X, X)
        stored: list[int] = []
        for i, r in enumerate(rows):
            grp = int(groups[r])
            banks = (self.blind, self.group_banks[grp]) if self.group_banks else (self.blind,)
            d = np.concatenate((D_old[i], D_new[i, stored]))[None, :]
            accs = [bank.accept_mask(d, self.mus)[0] for bank in banks]
            if any(acc.any() for acc in accs):
                j = self._append(X[i], grp, int(ids[r]))
                for bank, acc in zip(banks, accs):
                    bank.add(acc, j)
                stored.append(i)

    # -- distributed prefilter ----------------------------------------------
    def snapshot(self) -> dict:
        """Immutable state snapshot for broadcasting to executors."""
        return copy.deepcopy({
            "metric": self.metric.name,
            "mus": self.mus,
            "feats": self.feats,
            "blind": self.blind.arrays(),
            "banks": {g: b.arrays() for g, b in self.group_banks.items()},
        })


def survives_snapshot(snap: dict, feats: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Prefilter: True where an element *might* still be accepted.

    The block filter of :meth:`StreamState.update`, evaluated against a state
    snapshot. Safe to drop False rows: candidates only grow and ``d(x,S)``
    only shrinks, so rejection against an older state implies rejection
    against every later state (see DESIGN.md §3). Rows with non-finite
    features are kept, so that the update rejects them loudly.
    """
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    D = get_metric(snap["metric"]).pairwise(feats, snap["feats"])
    keep = _keep_rows(D, groups, snap["mus"], snap["blind"], snap["banks"])
    return keep | ~np.isfinite(feats).all(axis=1)
