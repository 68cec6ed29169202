"""Algorithm 4 — matroid intersection via Cunningham augmentation.

Finds a maximum-cardinality common independent set of two partition matroids,
initialized from a partial solution ``S0``. Two phases, exactly as in the
paper's Algorithm 4:

1. **Greedy phase** (lines 2-7): while some element is addable to both
   matroids, add the one farthest from the current solution (GMM-style, this
   is what buys SFDM2 its practical solution quality);
2. **Augmentation phase** (lines 8-14): build Cunningham's augmentation graph
   (Definition 2), find a shortest ``a -> b`` path by BFS, flip membership
   along it, repeat until no path exists (S is then maximum by the matroid
   intersection theorem).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .partition import PartitionMatroid


def _greedy_phase(
    S: set[int],
    m1: PartitionMatroid,
    m2: PartitionMatroid,
    D: np.ndarray | None,
    target: int | None,
) -> None:
    in_S = np.zeros(len(m1.labels), dtype=bool)
    in_S[list(S)] = True
    c1, c2 = m1.counts(in_S), m2.counts(in_S)
    while target is None or len(S) < target:
        cand = np.flatnonzero(~in_S & m1.can_add(c1) & m2.can_add(c2))
        if not cand.size:
            return
        if D is not None and S:
            x = cand[np.argmax(D[np.ix_(cand, in_S)].min(axis=1))]
        elif D is not None:
            # empty S: seed with the element farthest from everything else
            x = cand[np.argmax(D[cand].sum(axis=1))]
        else:
            x = cand[0]
        S.add(int(x))
        in_S[x] = True
        c1[m1.labels[x]] += 1
        c2[m2.labels[x]] += 1


def _augment_once(S: set[int], m1: PartitionMatroid, m2: PartitionMatroid) -> bool:
    """One Cunningham augmentation step; returns False when S is maximum."""
    in_S = np.zeros(len(m1.labels), dtype=bool)
    in_S[list(S)] = True
    add1 = m1.can_add(m1.counts(in_S))
    in_V2 = m2.can_add(m2.counts(in_S)) & ~in_S
    outside = np.flatnonzero(~in_S).tolist()
    # BFS over the augmentation digraph. Nodes: elements + virtual a (source).
    # a -> x for x in V1;  x -> b for x in V2;
    # y(in S) -> x(out):  group(x) full and label1(y) == label1(x);
    # x(out) -> y(in S):  cluster(x) full and label2(y) == label2(x).
    prev: dict[int, int | None] = {}
    q: deque[int] = deque()
    for x in np.flatnonzero(add1 & ~in_S).tolist():
        prev[x] = None
        q.append(x)
    end = None
    while q:
        u = q.popleft()
        if in_V2[u]:
            end = u
            break
        if not in_S[u]:  # u outside S: edges u -> y in S sharing M2 label
            for y in S:
                if y not in prev and m2.labels[y] == m2.labels[u]:
                    prev[y] = u
                    q.append(y)
        else:  # u in S: edges u -> x outside sharing M1 label, group full
            for x in outside:
                if x not in prev and not add1[x] and m1.labels[x] == m1.labels[u]:
                    prev[x] = u
                    q.append(x)
    if end is None:
        return False
    # flip membership along the path
    node: int | None = end
    while node is not None:
        if node in S:
            S.remove(node)
        else:
            S.add(node)
        node = prev[node]
    return True


def max_common_independent_set(
    m1: PartitionMatroid,
    m2: PartitionMatroid,
    *,
    init: set[int] | None = None,
    dist_matrix: np.ndarray | None = None,
    target: int | None = None,
) -> set[int]:
    """Maximum-cardinality set independent in both matroids (Algorithm 4).

    ``init`` must itself be independent in both matroids. ``dist_matrix``
    (full pairwise distances over the ground set) drives the greedy max-min
    selection (SFDM2); None takes addable elements in index order, the
    arbitrary choices of FairFlow. ``target`` stops early once |S| reaches it
    (the rank bound k in SFDM2 and FairFlow).
    """
    S = set(init) if init else set()
    if not m1.is_independent(list(S)):
        raise ValueError("init not independent in M1")
    if not m2.is_independent(list(S)):
        raise ValueError("init not independent in M2")
    _greedy_phase(S, m1, m2, dist_matrix, target)
    while (target is None or len(S) < target) and _augment_once(S, m1, m2):
        pass
    return S
