"""The traced benchmark (``perfbench/``) wraps ``repro`` functions by name.

A renamed or deleted entry point breaks every traced repetition without
failing any other test, so installing the wrappers is checked here.
"""
from pathlib import Path

import repro.core.bank as bank
import repro.metrics as metrics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_core_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    pairwise, update = metrics.Metric.pairwise, bank.StreamState.update
    with Tracer().installed(layers.install_core):
        assert metrics.Metric.pairwise is not pairwise
    assert metrics.Metric.pairwise is pairwise
    assert bank.StreamState.update is update


def test_spark_job_entry_points_exist():
    # perfbench/spark_job.py patches or calls these directly
    import repro._stream_common as stream_common
    import repro.spark.streaming as streaming

    assert callable(streaming.make_algo)
    assert callable(stream_common.make_algo)
    assert callable(bank.survives_snapshot)
