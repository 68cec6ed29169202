"""The census-m14-spark workload: ``spark_extent`` + ``run_streaming_fdm``.

Each repetition writes its own seeded stream order as parquet files
(untimed), stops and restarts the SparkSession, runs ``spark_extent`` on the
stream files and runs the Structured Streaming job over them. Its
solution must equal, id for id, a driver-only run over the same ordered
stream with the same extent (DESIGN.md §3). The job is a closed loop:
``availableNow`` with one file per trigger drains the files back to back.

Per-batch times and row counts come from a ``StreamingQueryListener``. In a
traced repetition the ``foreachBatch`` body, the state broadcast, the survivor
collect and the row rescan are spans; the prefilter's task count comes from
``sc.statusTracker()``; and ``survives_snapshot`` is replayed on the driver
with each batch's broadcast snapshot and rows, because executor workers do
not see driver-side wrappers.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import subprocess
import tempfile
import threading
from time import perf_counter

import numpy as np

import layers
from checks import check_solution
from loadgen import make_stream, write_parquet
from measure import Rep, driver_rep, repeat_post, run_reps
from tracer import summarize

N_CORES = min(4, os.cpu_count() or 1)
# The first repetition pays JVM launch and first-query compilation; the
# median over four repetitions leaves it out.
MIN_REPS = 4


def _start_session(work: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.master(f"local[{N_CORES}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(N_CORES))
        .config("spark.local.dir", os.path.join(work, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .getOrCreate()
    )


def _stop_jvm(spark) -> None:
    """Stop Spark and the JVM it launched, and wait for the JVM to exit."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _listener_class():
    from pyspark.sql.streaming import StreamingQueryListener

    class ProgressListener(StreamingQueryListener):
        """Collects per-batch ``durationMs`` and ``numInputRows``."""

        def __init__(self):
            self.batches: list[tuple[int, int, dict]] = []
            self.terminated = threading.Event()

        def onQueryStarted(self, event):
            pass

        def onQueryProgress(self, event):
            p = event.progress
            if p.numInputRows:
                self.batches.append((p.batchId, p.numInputRows, dict(p.durationMs)))

        def onQueryIdle(self, event):
            pass

        def onQueryTerminated(self, event):
            self.terminated.set()

    return ProgressListener


@contextlib.contextmanager
def _timed_solver(timings: dict):
    """Time solver construction and ``solve()`` inside ``run_streaming_fdm``."""
    import repro.spark.streaming as streaming

    orig = streaming.make_algo

    def make_algo(*args, **kw):
        t0 = perf_counter()
        solver = orig(*args, **kw)
        timings["make_algo_s"] = perf_counter() - t0
        solve = solver.solve

        def timed_solve():
            t = perf_counter()
            out = solve()
            timings["solve_s"] = perf_counter() - t
            return out

        solver.solve = timed_solve
        timings["solver"] = solver
        return solver

    streaming.make_algo = make_algo
    try:
        yield
    finally:
        streaming.make_algo = orig


class _SparkTrace:
    """Spark-side wrappers of a traced repetition (installed via the tracer)."""

    def __init__(self, tracer, sc):
        self.tracer = tracer
        self.sc = sc
        self.snapshot = None
        self.tasks: list[int] = []
        self._jobs = 0

    def install(self, tr) -> None:
        import pyspark.sql.classic.dataframe as classic
        from pyspark import SparkContext
        from pyspark.sql.streaming.readwriter import DataStreamWriter

        import repro.spark.extent as spark_extent

        layers.install_core(tr)

        def in_batch(parent: str) -> bool:
            return parent == "spark.streaming.batch"

        def keep_snapshot(_sp, _bc, args):
            self.snapshot = args[1]

        tr.wrap_span(spark_extent, "spark_extent", "spark.extent.spark_extent")
        tr.wrap_span(SparkContext, "broadcast", "spark.streaming.broadcast", after=keep_snapshot)
        tr.wrap_span(
            classic.DataFrame, "toPandas",
            lambda p: "spark.streaming.prefilter_collect" if in_batch(p) else "spark.dataframe.collect",
        )
        tr.wrap_span(
            classic.DataFrame, "count",
            lambda p: "spark.streaming.rescan" if in_batch(p) else "spark.dataframe.count",
        )
        # Outermost layer on toPandas: tag the prefilter's Spark jobs with a
        # job group, so the status tracker can tell their task counts apart.
        orig_to_pandas = classic.DataFrame.toPandas

        def to_pandas(df, *args, **kw):
            top = tr.current()
            if top is None or not in_batch(top.name):
                return orig_to_pandas(df, *args, **kw)
            group = f"perfbench-prefilter-{self._jobs}"
            self._jobs += 1
            self.sc.setJobGroup(group, "perfbench prefilter")
            try:
                return orig_to_pandas(df, *args, **kw)
            finally:
                self.sc.setJobGroup("perfbench-other", "perfbench")
                tracker = self.sc.statusTracker()
                self.tasks.append(sum(
                    tracker.getStageInfo(s).numTasks
                    for j in tracker.getJobIdsForGroup(group)
                    for s in tracker.getJobInfo(j).stageIds
                ))

        tr.patch(classic.DataFrame, "toPandas", lambda _orig: to_pandas)
        orig_foreach = DataStreamWriter.foreachBatch

        def foreach_batch(writer, func):
            def body(batch_df, batch_id):
                with tr.span("spark.streaming.batch"):
                    func(batch_df, batch_id)
                self._replay(batch_df)

            return orig_foreach(writer, body)

        tr.patch(DataStreamWriter, "foreachBatch", lambda _orig: foreach_batch)

    def _replay(self, batch_df) -> None:
        from repro.core.bank import survives_snapshot

        with self.tracer.span("bench.replay"):
            pdf = batch_df.toPandas()
            if len(pdf) == 0:
                return
            feats = np.stack(pdf["features"].to_numpy())
            groups = pdf["group"].to_numpy()
            with self.tracer.span("core.bank.survives_snapshot") as sp:
                keep = survives_snapshot(self.snapshot, feats, groups)
            sp.attrs["rows_in"] = float(len(pdf))
            sp.attrs["rows_kept"] = float(keep.sum())


def run(wl, seed: int, seconds: float, tracer, out_dir) -> tuple[list[Rep], int, int]:
    import repro.spark.extent as spark_extent
    import repro.spark.streaming as streaming

    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    for sub in ("tmp", "spark-local"):
        os.makedirs(os.path.join(work, sub))
    # Keep Python's, the launcher's and the JVM's scratch files in the checkout.
    tmp = os.path.join(work, "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={tmp} -Dderby.system.home={tmp} -XX:-UsePerfData"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    ds = wl.build()
    Listener = _listener_class()
    state = {"spark": None}

    def stream_files(i):
        """Stream of repetition ``i`` and the directory of its parquet files."""
        stream = make_stream(ds, seed, i)
        path = os.path.join(work, f"input-{i}")
        write_parquet(stream, path)
        return stream, path

    def one_rep(i):
        traced = tracer is not None and i % 2 == 1
        stream, inp = stream_files(i)
        metric = stream.metric_name
        if state["spark"] is not None:
            state["spark"].stop()
        timings: dict = {}
        t0 = perf_counter()
        spark = state["spark"] = _start_session(work)
        t_session = perf_counter() - t0
        spark.sparkContext.setLogLevel("ERROR")
        listener = Listener()
        spark.streams.addListener(listener)
        strace = _SparkTrace(tracer, spark.sparkContext) if traced else None
        i0 = len(tracer.spans) if traced else 0
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(strace.install))
                stack.enter_context(tracer.span("bench.rep"))
            stack.enter_context(_timed_solver(timings))
            t1 = perf_counter()
            extent = spark_extent.spark_extent(spark.read.parquet(inp), metric)
            t_extent = perf_counter() - t1
            t2 = perf_counter()
            with (tracer.span("spark.streaming.run") if traced else contextlib.nullcontext()):
                res, stats = streaming.run_streaming_fdm(
                    spark, inp, algo=wl.algo, metric=metric, ks=stream.ks, eps=wl.eps,
                    d_min=extent[0], d_max=extent[1], dim=stream.dim,
                    checkpoint_dir=os.path.join(work, f"ckpt-{i}"),
                )
            t_job = perf_counter() - t2
        if not listener.terminated.wait(timeout=60):
            raise RuntimeError("no QueryTerminatedEvent from the listener")
        spark.streams.removeListener(listener)
        replay_s = 0.0
        if traced:
            summary = summarize(tracer.spans[i0:])
            replay_s = summary["spans"].get("bench.replay", {}).get("s", 0.0)
        rep = Rep(
            setup_s=t_session + t_extent + timings["make_algo_s"],
            update_s=t_job - timings["make_algo_s"] - replay_s - timings["solve_s"],
            post_s=timings["solve_s"],
            batch_ms=[float(d["triggerExecution"]) for _, _, d in listener.batches],
            n=stream.n, result=res, solver=timings["solver"], traced=traced,
        )
        problems = check_solution(res, stream) + repeat_post(rep)
        # numInputRows counts every scan of a batch, so a job that reads each
        # batch twice (prefilter, row count) reports twice the stream's rows.
        rows = sum(r for _, r, _ in listener.batches)
        if stats.n_rows != stream.n or rows % stream.n or not rows:
            problems.append(
                f"listener rows {rows}, StreamRunStats.n_rows {stats.n_rows}, stream {stream.n}"
            )
        if len(listener.batches) != stats.n_batches:
            problems.append(f"listener saw {len(listener.batches)} of {stats.n_batches} batches")
        ref = driver_rep(wl, stream, traced=False, extent=extent).result
        if sorted(res.ids.tolist()) != sorted(ref.ids.tolist()):
            problems.append("solution ids differ from the driver-only run on the same stream")
        if traced:
            kept = summary["attrs"]["core.bank.survives_snapshot.rows_kept"]
            if kept != stats.n_survivors:
                problems.append(f"replayed prefilter kept {kept}, job kept {stats.n_survivors}")
            extras = layers.state_counters(rep.solver)
            extras["spark.streaming.trigger_overhead.s"] = sum(
                (d["triggerExecution"] - d.get("addBatch", 0)) / 1e3 for _, _, d in listener.batches
            )
            extras["spark.streaming.keep_ratio"] = stats.n_survivors / stats.n_rows
            # without the replay's own collect of each batch
            replayed = summary["attrs"]["core.bank.survives_snapshot.rows_in"]
            extras["spark.streaming.scans_per_row"] = (rows - replayed) / stats.n_rows
            extras["spark.streaming.prefilter_tasks"] = statistics.mean(strace.tasks)
            rep.layers = layers.rep_metrics(summary, extras)
        return rep, problems

    try:
        return run_reps(seconds, one_rep, min_reps=MIN_REPS)
    finally:
        _stop_jvm(state["spark"])
        shutil.rmtree(work, ignore_errors=True)
