"""Seeded load generator for the perfbench workloads.

The generator is separate from the program under test: it builds a workload's
dataset stand-in, permutes it with the benchmark seed, and, for the Spark
workload, writes the permuted stream as ordered parquet files. The program
only sees the generated arrays and files. Everything here runs outside the
timed regions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets import Dataset, adult_like, census_like, equal_quotas, lyrics_like

K = 20
# Stream chunks per run. Driver workloads feed ``update()`` one chunk at a
# time; the Spark workload writes one parquet file per chunk, so a driver
# chunk and a Spark micro-batch hold the same rows.
N_CHUNKS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Dataset]
    algo: str
    eps: float
    spark: bool = False


# Stream sizes are small enough that one run holds many seeded stream orders:
# the post phase's time varies with the order, and its median over the run's
# orders must be steady from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("adult-sex-sfdm1", lambda: adult_like(5_000, "sex"), "sfdm1", 0.1),
        Workload(
            "census-m14-spark",
            lambda: census_like(5_000, "sex+age"),
            "sfdm2",
            0.1,
            spark=True,
        ),
        Workload("lyrics-m15-sfdm2", lambda: lyrics_like(5_000), "sfdm2", 0.05),
    )
}


@dataclass
class Stream:
    """One seeded, ordered stream: row ``i`` is the ``i``-th element fed."""

    feats: np.ndarray
    groups: np.ndarray
    ids: np.ndarray
    ks: dict[int, int]
    metric_name: str

    @property
    def n(self) -> int:
        return len(self.feats)

    @property
    def dim(self) -> int:
        return self.feats.shape[1]

    def chunks(self) -> list[slice]:
        """The ``N_CHUNKS`` contiguous row ranges (same split as the parquet files)."""
        bounds = np.linspace(0, self.n, N_CHUNKS + 1, dtype=int)
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def as_dataset(self) -> Dataset:
        return Dataset("perfbench", self.feats, self.groups, self.metric_name)


def make_stream(ds: Dataset, seed: int, rep: int) -> Stream:
    """Stream order for repetition ``rep`` of a run seeded with ``seed``.

    Ids are stream positions, which is also what the parquet writer assigns.
    """
    perm = np.random.default_rng([seed, rep]).permutation(ds.n)
    groups = ds.groups[perm]
    return Stream(
        feats=np.ascontiguousarray(ds.feats[perm]),
        groups=groups,
        ids=np.arange(ds.n, dtype=np.int64),
        ks=equal_quotas(K, groups),
        metric_name=ds.metric_name,
    )


def write_parquet(stream: Stream, path: str) -> None:
    """Write the stream as ``N_CHUNKS`` ordered parquet files under ``path``."""
    from repro.spark.streaming import write_stream_input

    write_stream_input(stream.as_dataset(), path, n_files=N_CHUNKS)
