"""Distributed (d_min, d_max) estimation on the Catalyst path.

Samples up to ``sample`` rows of a (id, features) DataFrame, self-joins the
sample, and aggregates min-nonzero/max pairwise distance with the SQL
expressions from :mod:`repro.spark.vectors`. Mirrors
:func:`repro.extent.estimate_extent` (same ``LO_FACTOR``/``HI_FACTOR``
safety factors) but runs as a Spark job — this is the pre-pass a streaming
deployment runs before the guess grid is fixed.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..extent import HI_FACTOR, LO_FACTOR
from .vectors import distance_expr


def spark_extent(
    df: DataFrame,
    metric: str,
    *,
    sample: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """(d_min, d_max) estimate from a sampled self-join. df: (id, features)."""
    n = df.count()
    frac = min(1.0, (sample * 1.2) / max(n, 1))
    s = df.sample(fraction=frac, seed=seed).limit(sample).select("id", "features")
    a = s.select(F.col("id").alias("id_a"), F.col("features").alias("fa"))
    b = s.select(F.col("id").alias("id_b"), F.col("features").alias("fb"))
    pairs = a.crossJoin(b).where(F.col("id_a") < F.col("id_b"))
    d = pairs.select(distance_expr("fa", "fb", metric).alias("d"))
    row = d.agg(
        F.min(F.when(F.col("d") > 0, F.col("d"))).alias("dmin"),
        F.max("d").alias("dmax"),
    ).first()
    if row["dmin"] is None:
        raise ValueError("all sampled points identical; d_min undefined")
    return float(row["dmin"]) * LO_FACTOR, float(row["dmax"]) * HI_FACTOR
