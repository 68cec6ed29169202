"""Output checks applied to every repetition.

A solution passes when it has exactly ``k`` distinct elements, meets every
group quota exactly, names only ids of the stream it was fed (with the
features and groups the stream has at those ids), and its reported diversity
matches ``div(S)`` recomputed independently in DuckDB from the solution's
points, with the same distance SQL the repo's DuckDB oracle tests use.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from loadgen import Stream

_DIST_SQL = {
    "euclidean": "list_distance(a.f, b.f)",
    "manhattan": "list_sum(list_transform(list_zip(a.f, b.f), x -> abs(x[1] - x[2])))",
    "angular": (
        "acos(greatest(-1.0, least(1.0, list_inner_product(a.f, b.f) / "
        "(sqrt(list_inner_product(a.f, a.f)) * sqrt(list_inner_product(b.f, b.f))))))"
    ),
}
REL_TOL = 1e-9


def duckdb_diversity(feats: np.ndarray, metric_name: str) -> float:
    """``min`` over all pairwise distances of the rows of ``feats``, in DuckDB."""
    pts = pd.DataFrame({"i": np.arange(len(feats)), "f": feats.tolist()})
    con = duckdb.connect()
    try:
        con.register("pts", pts)
        (d,) = con.execute(
            f"select min({_DIST_SQL[metric_name]}) from pts a join pts b on a.i < b.i"
        ).fetchone()
    finally:
        con.close()
    return float(d)


def check_solution(res, stream: Stream) -> list[str]:
    """Problems found in a ``DMResult`` for ``stream``; empty when it passes."""
    problems = []
    k = sum(stream.ks.values())
    ids = np.asarray(res.ids, dtype=np.int64)
    if len(ids) != k or len(np.unique(ids)) != k:
        problems.append(f"|S|={len(ids)} ({len(np.unique(ids))} distinct), want k={k}")
    pos = np.searchsorted(stream.ids, ids)
    known = (pos < stream.n) & (stream.ids[np.minimum(pos, stream.n - 1)] == ids)
    if not known.all():
        problems.append(f"ids not in the stream: {ids[~known].tolist()}")
        return problems
    if not np.array_equal(stream.groups[pos], res.groups):
        problems.append("solution groups differ from the stream's groups at its ids")
    if not np.array_equal(stream.feats[pos], res.feats):
        problems.append("solution features differ from the stream's features at its ids")
    counts = {g: int((stream.groups[pos] == g).sum()) for g in stream.ks}
    if counts != stream.ks:
        problems.append(f"group counts {counts} != quotas {stream.ks}")
    want = duckdb_diversity(stream.feats[pos], stream.metric_name)
    if not abs(res.diversity - want) <= REL_TOL * max(abs(want), 1.0):
        problems.append(f"diversity {res.diversity!r} != DuckDB min distance {want!r}")
    return problems
