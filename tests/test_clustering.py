"""Threshold single-linkage clustering (Algorithm 3 lines 13-16)."""
import numpy as np
import pytest

from repro.core.clustering import threshold_clusters
from repro.metrics import get_metric

MET = get_metric("euclidean")


class UnionFind:
    """Array-based union-find with path compression: the reference clustering."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_clusters(D, threshold):
    """One union per close pair i < j, labels numbered by root."""
    uf = UnionFind(len(D))
    for i, j in zip(*np.nonzero(np.triu(D < threshold, 1))):
        uf.union(int(i), int(j))
    roots = [uf.find(i) for i in range(len(D))]
    return np.unique(roots, return_inverse=True)[1]


def clusters(X, thresh, metric=MET):
    return threshold_clusters(metric.pairwise(X, X), thresh)


def test_union_find_basic():
    uf = UnionFind(4)
    uf.union(0, 1)
    uf.union(2, 3)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) == uf.find(3)
    assert uf.find(0) != uf.find(2)
    uf.union(1, 3)
    assert uf.find(0) == uf.find(2)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
@pytest.mark.parametrize("seed", range(3))
def test_same_partition_as_union_find(metric, seed):
    met = get_metric(metric)
    g = np.random.default_rng(seed)
    X = g.normal(size=(60, 4)) * g.uniform(0.5, 3, size=4)
    D = met.pairwise(X, X)
    off = D[np.triu_indices(len(X), 1)]
    for thresh in np.quantile(off, [0.0, 0.01, 0.03, 0.1, 0.3, 1.0]):
        ours = threshold_clusters(D, thresh)
        ref = union_find_clusters(D, thresh)
        # the same partition: labels correspond one to one
        pairs = set(zip(ours.tolist(), ref.tolist()))
        assert len(pairs) == len(set(ours.tolist())) == len(set(ref.tolist()))


def test_two_far_points_two_clusters():
    labels = clusters(np.array([[0.0], [10.0]]), 1.0)
    assert labels[0] != labels[1]


def test_two_close_points_merge():
    labels = clusters(np.array([[0.0], [0.5]]), 1.0)
    assert labels[0] == labels[1]


def test_chain_merges_transitively():
    # 0 - 0.9 - 1.8: consecutive pairs < 1.0 but ends are 1.8 apart
    labels = clusters(np.array([[0.0], [0.9], [1.8]]), 1.0)
    assert len(set(labels.tolist())) == 1


def test_cross_cluster_separation_property():
    g = np.random.default_rng(0)
    X = g.normal(size=(40, 2)) * 3
    thresh = 1.2
    labels = clusters(X, thresh)
    D = MET.pairwise(X, X)
    for a in range(40):
        for b in range(40):
            if labels[a] != labels[b]:
                assert D[a, b] >= thresh


def test_empty_input():
    assert clusters(np.zeros((0, 2)), 1.0).shape == (0,)


def test_singleton():
    assert clusters(np.zeros((1, 2)), 1.0).tolist() == [0]


def test_labels_are_dense_0_to_l():
    g = np.random.default_rng(1)
    X = g.normal(size=(25, 2)) * 5
    labels = clusters(X, 0.8)
    uniq = np.unique(labels)
    assert uniq.tolist() == list(range(len(uniq)))


@pytest.mark.parametrize("thresh", [1e-9, 1e9])
def test_threshold_extremes(thresh):
    g = np.random.default_rng(2)
    X = g.normal(size=(10, 2))
    labels = clusters(X, thresh)
    if thresh < 1:
        assert len(set(labels.tolist())) == 10
    else:
        assert len(set(labels.tolist())) == 1
