"""StreamState / CandidateBank: acceptance semantics, chunk invariance,
snapshot prefilter safety."""
import numpy as np
import pytest

from repro._stream_common import make_algo
from repro.core.bank import StreamState, survives_snapshot
from repro.datasets import adult_like, blobs, celeba_like, census_like, equal_quotas, lyrics_like
from repro.extent import estimate_extent
from repro.metrics import get_metric

MET = get_metric("euclidean")


def make_state(mus=(1.0, 2.0), k=3, caps=None, dim=2):
    return StreamState(MET, np.array(mus), dim, k, group_caps=caps)


def test_empty_candidate_accepts_anything():
    st = make_state()
    st.update(np.array([[0.0, 0.0]]))
    assert st.n_stored == 1
    assert list(st.blind.sizes) == [1, 1]


def test_threshold_acceptance():
    st = make_state(mus=(1.0, 2.0), k=5)
    st.update(np.array([[0.0, 0.0], [1.5, 0.0]]))
    # second point: d=1.5 -> accepted at mu=1.0, rejected at mu=2.0
    assert list(st.blind.sizes) == [2, 1]


def test_distance_equal_to_mu_accepted():
    # line 5 accepts at d(x, S) >= mu, in the update and in the prefilter alike
    st = make_state(mus=(1.0,), k=5)
    st.update(np.array([[0.0, 0.0]]))
    assert survives_snapshot(st.snapshot(), np.array([[1.0, 0.0]]), np.zeros(1)).all()
    st.update(np.array([[1.0, 0.0]]))
    assert st.blind.sizes[0] == 2


def test_rejected_everywhere_not_stored():
    st = make_state(mus=(1.0,), k=5)
    st.update(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert st.n_stored == 1  # 0.5 < mu for the only guess


def test_full_candidate_stops_accepting():
    st = make_state(mus=(1.0,), k=2)
    st.update(np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]))
    assert st.blind.sizes[0] == 2
    assert st.n_stored == 2


def test_group_bank_filters_by_group():
    st = make_state(mus=(1.0,), k=4, caps={0: 2, 1: 2})
    st.update(np.array([[0.0, 0.0], [5.0, 0.0]]), groups=np.array([0, 1]))
    assert st.group_banks[0].sizes[0] == 1
    assert st.group_banks[1].sizes[0] == 1


def test_element_shared_across_banks_stored_once():
    st = make_state(mus=(1.0,), k=4, caps={0: 2})
    st.update(np.array([[0.0, 0.0]]), groups=np.array([0]))
    assert st.n_stored == 1
    assert st.blind.sizes[0] == 1 and st.group_banks[0].sizes[0] == 1


def test_store_growth_preserves_membership():
    st = make_state(mus=(0.5,), k=500)
    g = np.random.default_rng(0)
    X = g.normal(size=(300, 2)) * 100
    st.update(X)
    assert st.n_stored > 64  # grew past initial capacity
    idx = st.blind.indices(0)
    assert len(idx) == st.blind.sizes[0]
    assert st.blind.slots.shape == (1, 500)  # the table never grows with the store


def reference_update(st, feats, groups, ids):
    """Algorithm 1 line 5 one element at a time: the per-element update loop
    (``point_to_rows`` + a masked min over G x store) the block filter replaced."""
    for x, grp, eid in zip(feats, groups, ids):
        dists = st.metric.point_to_rows(x, st.feats)
        banks = [st.blind] + ([st.group_banks[int(grp)]] if st.group_banks else [])
        accs = []
        for bank in banks:
            # guess g's mask holds the store indices of its first sizes[g] slots
            g, c = np.nonzero(filled(bank))
            M = np.zeros((len(st.mus), st.n_stored), dtype=bool)
            M[g, bank.slots[g, c]] = True
            dmin = np.where(M, dists[None, :], np.inf).min(axis=1, initial=np.inf)
            accs.append((bank.sizes < bank.cap) & (dmin >= st.mus))
        if any(acc.any() for acc in accs):
            j = st._append(x, int(grp), int(eid))
            for bank, acc in zip(banks, accs):
                bank.slots[acc, bank.sizes[acc]] = j
                bank.sizes[acc] += 1
        st.n_seen += 1


def banks(st):
    return [st.blind, *st.group_banks.values()]


def filled(bank):
    """(G, cap) mask of the slots that hold a candidate element."""
    return np.arange(bank.cap) < bank.sizes[:, None]


def assert_same_state(a, b):
    n = a.n_stored
    assert b.n_stored == n and a.n_seen == b.n_seen
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.feats, b.feats)
    assert np.array_equal(a.groups, b.groups)
    assert sorted(a.group_banks) == sorted(b.group_banks)
    for bank_a, bank_b in zip(banks(a), banks(b)):
        assert np.array_equal(bank_a.slots, bank_b.slots)  # same order, same padding
        assert np.array_equal(bank_a.sizes, bank_b.sizes)


def assert_table_invariants(st, prev_sizes):
    """Sizes only grow and stay within the cap; each row of a slot table holds
    strictly increasing store indices, then padding; the store stays within
    G·(k + Σ caps)."""
    for bank, prev in zip(banks(st), prev_sizes):
        assert (bank.sizes >= prev).all() and (bank.sizes <= bank.cap).all()
        assert bank.slots.shape == (len(st.mus), bank.cap)
        used, slots = filled(bank), bank.slots
        assert (np.diff(slots, axis=1) > 0)[used[:, 1:]].all()
        assert (slots[used] >= 0).all() and (slots[used] < st.n_stored).all()
        assert (slots[~used] == -1).all()
    assert st.n_stored <= len(st.mus) * sum(b.cap for b in banks(st))


def _generator_stream(name, algo, n=1000):
    ds = {
        "adult": lambda: adult_like(n, "sex"),
        "celeba": lambda: celeba_like(n, "sex+age"),
        "census": lambda: census_like(n, "sex+age"),
        "lyrics": lambda: lyrics_like(n),
        "blobs": lambda: blobs(n, 3),
    }[name]()
    groups = ds.groups % 2 if algo == "sfdm1" else ds.groups
    d_min, d_max = estimate_extent(ds.feats, get_metric(ds.metric_name))

    def solver():
        return make_algo(
            algo, ds.metric_name, ks=equal_quotas(20, groups), eps=0.1,
            d_min=d_min, d_max=d_max, dim=ds.dim,
        )

    return ds.feats, groups, np.arange(ds.n) + 1000, solver


def test_chunked_equals_oneshot():
    g = np.random.default_rng(1)
    X = g.normal(size=(200, 2))
    grp = g.integers(0, 2, 200)
    ids = np.arange(200)
    ref = make_state(mus=(0.3, 0.6, 1.2), k=5, caps={0: 2, 1: 3})
    reference_update(ref, X, grp, ids)
    for block in (1, 17, 200):
        st = make_state(mus=(0.3, 0.6, 1.2), k=5, caps={0: 2, 1: 3})
        for i in range(0, 200, block):
            st.update(X[i : i + block], grp[i : i + block], ids[i : i + block])
        assert_same_state(st, ref)


@pytest.mark.parametrize("algo", ["sfdm1", "sfdm2"])
@pytest.mark.parametrize("name", ["adult", "celeba", "census", "lyrics", "blobs"])
def test_chunked_equals_per_element_reference(name, algo):
    X, grp, ids, solver = _generator_stream(name, algo)
    n = len(X)
    ref = solver().state
    reference_update(ref, X, grp, ids)
    for block in (1, 7, 256, n):
        st = solver().state
        for i in range(0, n, block):
            sizes = [b.sizes.copy() for b in banks(st)]
            st.update(X[i : i + block], grp[i : i + block], ids[i : i + block])
            assert_table_invariants(st, sizes)
        assert_same_state(st, ref)
    # the prefilter drops only rows the continued update never stores
    st = solver().state
    st.update(X[: n // 2], grp[: n // 2], ids[: n // 2])
    keep = survives_snapshot(st.snapshot(), X[n // 2 :], grp[n // 2 :])
    assert not keep.all()
    st.update(X[n // 2 :], grp[n // 2 :], ids[n // 2 :])
    assert not set(ids[n // 2 :][~keep].tolist()) & set(st.ids.tolist())


def test_ids_tracked():
    st = make_state(mus=(0.1,), k=10)
    st.update(np.array([[0.0, 0.0], [5.0, 5.0]]), ids=np.array([42, 99]))
    assert list(st.ids) == [42, 99]


def test_n_seen_counts_all():
    st = make_state(mus=(100.0,), k=2)
    st.update(np.random.default_rng(2).normal(size=(50, 2)))
    assert st.n_seen == 50
    assert st.n_stored <= 2


def test_cap_must_be_positive():
    from repro.core.bank import CandidateBank

    with pytest.raises(ValueError):
        CandidateBank(3, 0)


def test_empty_guess_grid_rejected():
    with pytest.raises(ValueError):
        StreamState(MET, np.array([]), 2, 3)


# -- snapshot / prefilter ----------------------------------------------------

def _full_state_and_batch(seed=3, n_pre=150, n_batch=80):
    g = np.random.default_rng(seed)
    st = make_state(mus=(0.2, 0.4, 0.8, 1.6), k=4, caps={0: 2, 1: 2})
    Xp, gp = g.normal(size=(n_pre, 2)), g.integers(0, 2, n_pre)
    st.update(Xp, gp)
    Xb, gb = g.normal(size=(n_batch, 2)), g.integers(0, 2, n_batch)
    return st, Xb, gb


def test_prefilter_empty_state_keeps_all():
    st = make_state(caps={0: 1, 1: 1})
    keep = survives_snapshot(st.snapshot(), np.ones((5, 2)), np.zeros(5, dtype=int))
    assert keep.all()


def test_prefilter_is_superset_of_accepted():
    # every element the exact sequential update would store must survive
    st, Xb, gb = _full_state_and_batch()
    keep = survives_snapshot(st.snapshot(), Xb, gb)
    # continue the *same* state and record which batch rows get stored
    before = st.n_stored
    ids = np.arange(1000, 1000 + len(Xb))
    st.update(Xb, gb, ids=ids)
    accepted_ids = set(st.ids[before:].tolist())
    for r, eid in enumerate(ids.tolist()):
        if eid in accepted_ids:
            assert keep[r], f"row {r} accepted by exact update but prefiltered out"


def test_prefilter_drops_something_once_warm():
    st, Xb, gb = _full_state_and_batch()
    keep = survives_snapshot(st.snapshot(), Xb, gb)
    assert keep.sum() < len(Xb)  # warm state rejects most of a random batch


def test_snapshot_is_decoupled_from_state():
    st, Xb, gb = _full_state_and_batch()
    snap = st.snapshot()
    n0 = len(snap["feats"])
    st.update(Xb, gb)
    assert len(snap["feats"]) == n0


def test_prefilter_keeps_rows_of_unknown_groups():
    # the driver's update must see them, to reject them loudly
    st, Xb, gb = _full_state_and_batch()
    keep = survives_snapshot(st.snapshot(), Xb, np.full(len(Xb), 9))
    assert keep.all()
    # likewise rows with non-finite features
    bad = Xb.copy()
    bad[[2, 40], 0] = np.nan, np.inf
    keep = survives_snapshot(st.snapshot(), bad, gb)
    assert keep[[2, 40]].all() and not keep.all()
    with pytest.raises(ValueError, match=r"row\(s\) \[2, 40\] have non-finite"):
        st.update(bad, gb)
    with pytest.raises(ValueError, match="no candidate bank"):
        st.update(Xb[:1], np.array([9]))
    with pytest.raises(ValueError, match="groups are required"):
        st.update(Xb[:1])
