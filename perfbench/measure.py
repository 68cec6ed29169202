"""Repetition records and the driver-only workload runner."""
from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

MIN_REPS = 3
# solve() calls per repetition: the first returns the answer, the others time
# the same call again on the same final state; post_s is their median.
POST_CALLS = 3


@dataclass
class Rep:
    """Timings and output of one repetition of a workload."""

    setup_s: float
    update_s: float
    post_s: float
    batch_ms: list[float]
    n: int
    result: object
    solver: object
    traced: bool = False
    layers: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        """First element fed to solution returned."""
        return self.update_s + self.post_s

    @property
    def update_us(self) -> float:
        return self.update_s / self.n * 1e6


def driver_rep(wl, stream, traced: bool, extent: tuple | None = None) -> Rep:
    """``estimate_extent`` → ``make_algo`` → chunked ``update`` → ``solve``.

    A given ``extent`` replaces the estimate (the Spark workload's reference run).
    """
    import repro.extent as estimate
    from repro._stream_common import make_algo
    from repro.metrics import get_metric

    metric = get_metric(stream.metric_name)
    t0 = perf_counter()
    d_min, d_max = extent or estimate.estimate_extent(stream.feats, metric)
    solver = make_algo(
        wl.algo, stream.metric_name, ks=stream.ks, eps=wl.eps,
        d_min=d_min, d_max=d_max, dim=stream.dim,
    )
    t1 = perf_counter()
    batch_s = []
    for sl in stream.chunks():
        tb = perf_counter()
        solver.update(stream.feats[sl], stream.groups[sl], stream.ids[sl])
        batch_s.append(perf_counter() - tb)
    t2 = perf_counter()
    res = solver.solve()
    t3 = perf_counter()
    return Rep(
        setup_s=t1 - t0, update_s=sum(batch_s), post_s=t3 - t2,
        batch_ms=[b * 1e3 for b in batch_s], n=stream.n, result=res, solver=solver,
        traced=traced,
    )


def repeat_post(rep: Rep) -> list[str]:
    """Call ``solve()`` again on the repetition's final state, untraced.

    Sets ``post_s`` to the median over all calls and returns problems: every
    call must return the same solution.
    """
    times = [rep.post_s]
    problems = []
    for _ in range(POST_CALLS - 1):
        t = perf_counter()
        again = rep.solver.solve()
        times.append(perf_counter() - t)
        if not np.array_equal(again.ids, rep.result.ids):
            problems.append("solve() returned a different solution on the same state")
    rep.post_s = statistics.median(times)
    return problems


def run_reps(seconds: float, one_rep, min_reps: int = MIN_REPS) -> tuple[list[Rep], int, int]:
    """Call ``one_rep(i)`` until the time is used up, at least ``min_reps``
    times; count failures.

    A repetition fails when it raises or its output check finds a problem;
    ``one_rep`` returns ``(rep, problems)``. Returns the passing repetitions,
    the number attempted and the number failed.
    """
    reps, attempted, failed = [], 0, 0
    t_start = perf_counter()
    while True:
        attempted += 1
        try:
            rep, problems = one_rep(attempted - 1)
        except Exception:  # a failing repetition is counted, the run goes on
            traceback.print_exc()
            rep, problems = None, ["raised"]
        if problems:
            failed += 1
            print(f"repetition {attempted - 1} failed: {problems}", file=sys.stderr)
        else:
            reps.append(rep)
            print(
                f"repetition {attempted - 1}: setup {rep.setup_s:.4f} s, update "
                f"{rep.update_us:.2f} us/element, post {rep.post_s:.4f} s"
                + (" (traced)" if rep.traced else ""),
                file=sys.stderr,
            )
        elapsed = perf_counter() - t_start
        if attempted >= min_reps and elapsed * (attempted + 1) / attempted > seconds:
            return reps, attempted, failed
