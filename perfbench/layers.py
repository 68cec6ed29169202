"""Which program functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is computed per repetition and reported as the median
over the traced repetitions of a run. Metrics of a layer that a workload does
not use (the Spark layers on driver workloads, ``swap_balance`` on SFDM2)
read 0.

Which end-to-end metric each layer should move, and on which workload:

* ``metrics.point_to_rows``, ``core.bank.{accept_mask,append,update}``,
  ``core.bank.{accept_ratio,space_ratio}``: ``update_us`` and ``run_s`` on
  adult-sex-sfdm1 (per-element overhead regime) and lyrics-m15-sfdm2
  (distance-kernel regime); barely on census-m14-spark, where the driver
  applies only the prefilter's survivors.
* ``metrics.pairwise``, ``core.sfdm.*``, ``core.sfdm2.post_one``,
  ``core.sfdm1.swap_balance``, ``core.clustering.threshold_clusters``,
  ``matroid.*``, ``diversity.div``: ``post_s`` and ``run_s`` on
  lyrics-m15-sfdm2 and census-m14-spark (whose post phase runs on the
  driver), ``peak_rss_mb`` on census; no change predicted on adult-sex-sfdm1,
  whose post phase is under 2% of ``run_s``.
* ``spark.streaming.*``, ``core.bank.snapshot``, ``core.bank.survives_snapshot``:
  ``update_us`` and ``batch_p50_ms`` on census-m14-spark only; no other
  workload calls them.
* ``extent.estimate_extent``, ``spark.extent.spark_extent``: ``setup_s`` on
  every workload (the Spark workload uses ``spark_extent``).
"""
from __future__ import annotations

import numpy as np

from tracer import Tracer

# (name, unit, better)
PER_LAYER = [
    ("metrics.point_to_rows.calls", "count", "lower"),
    ("metrics.point_to_rows.s", "s", "lower"),
    ("core.bank.accept_mask.calls", "count", "lower"),
    ("core.bank.accept_mask.s", "s", "lower"),
    ("core.bank.append.calls", "count", "lower"),
    ("core.bank.append.s", "s", "lower"),
    ("core.bank.update.s", "s", "lower"),
    ("core.bank.update.self_s", "s", "lower"),
    ("core.bank.accept_ratio", "ratio", "lower"),
    ("core.bank.space_ratio", "ratio", "lower"),
    ("metrics.pairwise.calls", "count", "lower"),
    ("metrics.pairwise.s", "s", "lower"),
    ("core.sfdm.guesses", "count", "lower"),
    ("core.sfdm.guesses_eligible", "count", "lower"),
    ("core.sfdm.solve.s", "s", "lower"),
    ("core.sfdm.solve.self_s", "s", "lower"),
    ("core.sfdm2.post_one.calls", "count", "lower"),
    ("core.sfdm2.post_one.s", "s", "lower"),
    ("core.sfdm1.swap_balance.calls", "count", "lower"),
    ("core.sfdm1.swap_balance.s", "s", "lower"),
    ("core.clustering.threshold_clusters.calls", "count", "lower"),
    ("core.clustering.threshold_clusters.s", "s", "lower"),
    ("core.clustering.threshold_clusters.clusters", "count", "lower"),
    ("matroid.intersection.greedy.s", "s", "lower"),
    ("matroid.intersection.augment.calls", "count", "lower"),
    ("matroid.intersection.augment.s", "s", "lower"),
    ("matroid.intersection.augment.success_ratio", "ratio", "higher"),
    ("matroid.partition.can_add.calls", "count", "lower"),
    ("diversity.div.calls", "count", "lower"),
    ("diversity.div.s", "s", "lower"),
    ("spark.streaming.batch.s", "s", "lower"),
    ("spark.streaming.batch.self_s", "s", "lower"),
    ("spark.streaming.broadcast.s", "s", "lower"),
    ("spark.streaming.prefilter_collect.s", "s", "lower"),
    ("spark.streaming.rescan.s", "s", "lower"),
    ("spark.streaming.apply.s", "s", "lower"),
    ("spark.streaming.trigger_overhead.s", "s", "lower"),
    ("spark.streaming.keep_ratio", "ratio", "lower"),
    ("spark.streaming.scans_per_row", "ratio", "lower"),
    ("spark.streaming.prefilter_tasks", "count", "higher"),
    ("core.bank.snapshot.s", "s", "lower"),
    ("core.bank.snapshot.bytes", "bytes", "lower"),
    ("core.bank.survives_snapshot.s", "s", "lower"),
    ("core.bank.survives_snapshot.rows_in", "count", "lower"),
    ("core.bank.survives_snapshot.rows_kept", "count", "lower"),
    ("extent.estimate_extent.s", "s", "lower"),
    ("spark.extent.spark_extent.s", "s", "lower"),
    ("bench.trace.overhead_us", "us", "lower"),
    ("bench.trace.self_sum_ratio", "ratio", "lower"),
    ("bench.trace.spans", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def install_core(tr: Tracer) -> None:
    """Wrap the stream phase, post phase and extent entry points of ``repro``."""
    import repro.core.bank as bank
    import repro.core.sfdm1 as sfdm1
    import repro.core.sfdm2 as sfdm2
    import repro.extent as extent
    import repro.matroid.intersection as inter
    import repro.matroid.partition as partition
    import repro.metrics as metrics

    def snapshot_bytes(sp, snap, _args):
        arrays = [snap["mus"], snap["feats"], snap["blind"][0], snap["blind"][1]]
        for member, sizes, _cap in snap["banks"].values():
            arrays += [member, sizes]
        sp.attrs["bytes"] = float(sum(a.nbytes for a in arrays))

    def n_clusters(sp, labels, _args):
        sp.attrs["clusters"] = float(labels.max() + 1) if len(labels) else 0.0

    def augmented(sp, ok, _args):
        sp.attrs["success"] = float(bool(ok))

    tr.wrap_leaf(metrics.Metric, "point_to_rows", "metrics.point_to_rows")
    tr.wrap_leaf(metrics.Metric, "pairwise", "metrics.pairwise")
    tr.wrap_leaf(bank.CandidateBank, "accept_mask", "core.bank.accept_mask")
    tr.wrap_leaf(bank.StreamState, "_append", "core.bank.append")
    tr.wrap_leaf(partition.PartitionMatroid, "can_add", "matroid.partition.can_add", timed=False)
    tr.wrap_span(bank.StreamState, "update", "core.bank.update")
    tr.wrap_span(bank.StreamState, "snapshot", "core.bank.snapshot", after=snapshot_bytes)
    tr.wrap_span(sfdm1.SFDM1, "solve", "core.sfdm.solve")
    tr.wrap_span(sfdm2.SFDM2, "solve", "core.sfdm.solve")
    tr.wrap_span(sfdm2.SFDM2, "_post_one", "core.sfdm2.post_one")
    tr.wrap_span(sfdm1, "swap_balance", "core.sfdm1.swap_balance")
    tr.wrap_span(
        sfdm2, "threshold_clusters", "core.clustering.threshold_clusters", after=n_clusters
    )
    tr.wrap_span(inter, "_greedy_phase", "matroid.intersection.greedy")
    tr.wrap_span(inter, "_augment_once", "matroid.intersection.augment", after=augmented)
    tr.wrap_span(sfdm1, "div", "diversity.div")
    tr.wrap_span(sfdm2, "div", "diversity.div")
    tr.wrap_span(extent, "estimate_extent", "extent.estimate_extent")


def state_counters(solver) -> dict:
    """Space and acceptance counters read from a solver's stream state."""
    from repro.core.sfdm1 import SFDM1

    st = solver.state
    g = len(st.mus)
    caps = sum(b.cap for b in st.group_banks.values())
    blind_full = st.blind.sizes == st.k
    if isinstance(solver, SFDM1):  # Alg. 2 line 9: every group candidate full
        groups_ok = [st.group_banks[grp].sizes == kg for grp, kg in solver.ks.items()]
    else:  # Alg. 3 line 9: every group candidate holds at least k_i
        groups_ok = [st.group_banks[grp].sizes >= kg for grp, kg in solver.ks.items()]
    eligible = np.logical_and.reduce([blind_full, *groups_ok])
    return {
        "core.bank.accept_ratio": st.n_stored / max(st.n_seen, 1),
        "core.bank.space_ratio": st.n_stored / (g * (st.k + caps)),
        "core.sfdm.guesses": float(g),
        "core.sfdm.guesses_eligible": float(eligible.sum()),
    }


def rep_metrics(summary: dict, extras: dict) -> dict:
    """Per-layer metrics of one traced repetition (see module docstring)."""
    spans, leaf, attrs = summary["spans"], summary["leaf"], summary["attrs"]
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    def span(name, key):
        return float(spans[name][key]) if name in spans else 0.0

    for name in ("metrics.point_to_rows", "core.bank.accept_mask", "core.bank.append",
                 "metrics.pairwise"):
        if name in leaf:
            out[f"{name}.calls"] = float(leaf[name]["calls"])
            out[f"{name}.s"] = leaf[name]["s"]
    if "matroid.partition.can_add" in leaf:
        out["matroid.partition.can_add.calls"] = float(leaf["matroid.partition.can_add"]["calls"])
    for name in ("core.bank.update", "core.sfdm.solve", "spark.streaming.batch"):
        out[f"{name}.s"] = span(name, "s")
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("core.sfdm2.post_one", "core.sfdm1.swap_balance",
                 "core.clustering.threshold_clusters", "matroid.intersection.augment",
                 "diversity.div"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    for name in ("matroid.intersection.greedy", "spark.streaming.broadcast",
                 "spark.streaming.prefilter_collect", "spark.streaming.rescan",
                 "core.bank.snapshot", "core.bank.survives_snapshot",
                 "extent.estimate_extent", "spark.extent.spark_extent"):
        out[f"{name}.s"] = span(name, "s")
    tc = span("core.clustering.threshold_clusters", "calls")
    if tc:
        out["core.clustering.threshold_clusters.clusters"] = (
            attrs["core.clustering.threshold_clusters.clusters"] / tc
        )
    aug = span("matroid.intersection.augment", "calls")
    if aug:
        out["matroid.intersection.augment.success_ratio"] = (
            attrs["matroid.intersection.augment.success"] / aug
        )
    snaps = span("core.bank.snapshot", "calls")
    if snaps:
        out["core.bank.snapshot.bytes"] = attrs["core.bank.snapshot.bytes"] / snaps
    out["core.bank.survives_snapshot.rows_in"] = attrs["core.bank.survives_snapshot.rows_in"]
    out["core.bank.survives_snapshot.rows_kept"] = attrs["core.bank.survives_snapshot.rows_kept"]
    out["spark.streaming.apply.s"] = summary["apply_s"]
    out["bench.trace.spans"] = float(sum(v["calls"] for v in spans.values()))
    root = span("bench.rep", "s")
    if root:
        # every span's self time plus the leaf calls it covers: 1.0 when
        # the spans of the repetition nest without gaps or overlaps
        covered = sum(v["self_s"] for v in spans.values()) + sum(v["s"] for v in leaf.values())
        out["bench.trace.self_sum_ratio"] = covered / root
    out.update(extras)
    return out
