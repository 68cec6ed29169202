"""perfbench: layered benchmark of the SFDM stream phase, post phase and Spark job.

Usage (from the repository root):

    python3 perfbench/run.py --workload adult-sex-sfdm1 --seed 1 --seconds 20 --trace 0

Each run builds its inputs from ``--seed`` (``loadgen.py``), then repeats the
workload with a fresh seeded stream order until ``--seconds`` are used up
(at least three repetitions, four on Spark), checks every repetition's output
(``checks.py``), and reports medians over the repetitions. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics of
``layers.py`` (medians over the traced repetitions) plus the tracing
overhead, and writes every span to ``perfbench/out/``.

End-to-end metrics:

* ``setup_s``: everything before the first element is fed: SparkSession start
  (Spark workload), extent estimation, solver construction;
* ``update_us``: stream-phase wall time per stream element (Spark: query
  start to drained, minus the final ``solve()``);
* ``post_s``: wall time of the ``solve()`` that returns the answer (median
  of three calls on the same final state);
* ``run_s``: first element fed to solution returned (``update`` + ``post``);
* ``batch_p50_ms``: median batch time: one ``update()`` chunk on the driver,
  one micro-batch's ``triggerExecution`` on Spark;
* ``peak_rss_mb``: peak RSS of this Python process;
* ``diversity``: ``div(S)`` of the returned solution;
* ``n_stored``: elements kept by the stream phase.

Failed or wrong repetitions are counted in ``failed`` (``failed_frac`` =
failed / attempted, printed in the report lines).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

E2E_UNITS = {
    "setup_s": "s",
    "update_us": "us",
    "post_s": "s",
    "run_s": "s",
    "batch_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "diversity": "distance",
    "n_stored": "elements",
}


def src_loc() -> int:
    """Lines in ``src/**/*.py`` (informational, tracked by the ROADMAP)."""
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def e2e_metrics(reps: list) -> dict:
    med = statistics.median
    return {
        "setup_s": med(r.setup_s for r in reps),
        "update_us": med(r.update_us for r in reps),
        "post_s": med(r.post_s for r in reps),
        "run_s": med(r.run_s for r in reps),
        "batch_p50_ms": med(b for r in reps for b in r.batch_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "diversity": med(float(r.result.diversity) for r in reps),
        "n_stored": med(float(r.result.n_stored) for r in reps),
    }


def layer_metrics(reps: list) -> dict:
    import layers

    med = statistics.median
    traced = [r for r in reps if r.traced]
    # the first repetition warms up (imports, JIT, Spark's JVM) and is left
    # out unless it is the only untraced one that passed
    untraced = [r for r in reps if not r.traced]
    plain = untraced[1:] or untraced
    if not traced or not plain:
        raise RuntimeError("need a passing traced and a passing untraced repetition")
    out = {name: med(r.layers[name] for r in traced) for name, _, _ in layers.PER_LAYER}
    out["bench.trace.overhead_us"] = med(r.update_us for r in traced) - med(
        r.update_us for r in plain
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )

    import layers
    from checks import check_solution
    from loadgen import WORKLOADS, make_stream
    from measure import driver_rep, repeat_post, run_reps
    from tracer import Tracer, summarize

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)

    if wl.spark:
        import spark_job

        reps, attempted, failed = spark_job.run(wl, args.seed, args.seconds, tracer, OUT_DIR)
    else:
        ds = wl.build()

        def one_rep(i):
            stream = make_stream(ds, args.seed, i)
            traced = tracer is not None and i % 2 == 1
            if traced:
                i0 = len(tracer.spans)
                with tracer.installed(layers.install_core), tracer.span("bench.rep"):
                    rep = driver_rep(wl, stream, traced=True)
                rep.layers = layers.rep_metrics(
                    summarize(tracer.spans[i0:]), layers.state_counters(rep.solver)
                )
            else:
                rep = driver_rep(wl, stream, traced=False)
            return rep, check_solution(rep.result, stream) + repeat_post(rep)

        reps, attempted, failed = run_reps(args.seconds, one_rep)
    if not reps:
        print("perfbench: no repetition passed", file=sys.stderr)
        return 1

    loc = src_loc()
    if tracer is None:
        metrics = e2e_metrics(reps)
        units = E2E_UNITS
    else:
        metrics = layer_metrics(reps)
        units = layers.UNITS
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path), {
            "workload": wl.name, "seed": args.seed, "src_loc": loc,
            "reps": [{"traced": r.traced, "setup_s": r.setup_s, "update_us": r.update_us,
                      "post_s": r.post_s, "run_s": r.run_s} for r in reps],
            "layers": metrics,
        })
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    print(f"{wl.name} failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} repetitions)")
    print(f"src_loc {loc} lines (informational, not gated)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
