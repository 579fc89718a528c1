"""Vectorized kernel: block-fill wall time, storage and query rate.

Builds SkyServer-shaped populations of **real** access areas (windows
over a five-table schema, quantized so the packed clause vocabulary
stays realistic) and compares two ways of filling the block-sparse
layout's intra-partition blocks at n ∈ {5 000, 20 000}:

- ``python``: per-pair calls of the pure-Python metric (the exact
  semantics baseline),
- ``kernel``: the vectorized struct-of-arrays kernel (bitwise-equal
  values), as ``BlockSparseDistanceMatrix.compute`` runs it.

The pure-Python fill is measured up to ``PYTHON_CAP`` items and
extrapolated linearly in intra-partition pair count beyond that (the
fill is exactly pair-proportional).  Writes
``benchmarks/out/BENCH_kernel.json``.

Acceptance (asserted): kernel block fill ≥ 5× faster than pure Python
at the larger size, and DBSCAN label parity between the two at the
smaller size.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the sizes ~10×.
"""

import json
import os
import random
import time

import numpy as np

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import ColumnConstantPredicate, ColumnRef, Op
from repro.clustering import partitioned_dbscan
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (300, 800) if SMOKE else (5000, 20000)
#: pure-Python fill measured up to here, extrapolated beyond
PYTHON_CAP = SIZES[0]
EPS = 0.12
MIN_PTS = 4
N_QUERY_SAMPLE = 200

TABLES = ("photoobj", "photoz", "specobj", "galaxy", "star")

#: SkyServer-like skew: single-table point lookups dominate, a tail of
#: joins.  All cross-partition d_tables values are ≥ 1/3, so EPS sits
#: safely below the exactness bound.
TABLE_SET_MIX = (
    (frozenset({"photoobj"}), 0.30),
    (frozenset({"photoz"}), 0.18),
    (frozenset({"specobj"}), 0.12),
    (frozenset({"galaxy"}), 0.10),
    (frozenset({"star"}), 0.08),
    (frozenset({"photoobj", "specobj"}), 0.08),
    (frozenset({"photoz", "specobj"}), 0.06),
    (frozenset({"photoobj", "photoz"}), 0.04),
    (frozenset({"photoobj", "specobj", "galaxy"}), 0.04),
)

WIDTHS = (8.0, 10.0, 12.0)
CENTERS = (20.0, 50.0, 80.0)


def _catalog():
    schema = Schema("bench")
    for name in TABLES:
        schema.add(Relation(name, (
            Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(schema, {
        (name, "x"): Interval(0.0, 100.0) for name in TABLES})


def make_population(n, seed=29):
    """Clustered window areas with a quantized clause vocabulary."""
    rng = random.Random(seed)
    sets = [ts for ts, _ in TABLE_SET_MIX]
    weights = [w for _, w in TABLE_SET_MIX]
    items = []
    for _ in range(n):
        table_set = rng.choices(sets, weights)[0]
        table = min(table_set)
        ref = ColumnRef(table, "x")
        lo = float(round(rng.choice(CENTERS) + rng.gauss(0.0, 4.0)))
        width = rng.choice(WIDTHS)
        items.append(AccessArea(tuple(sorted(table_set)), CNF.of([
            Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
            Clause.of([ColumnConstantPredicate(ref, Op.LE, lo + width)]),
        ])))
    return items


def _partitions(items):
    groups = {}
    for index, item in enumerate(items):
        groups.setdefault(item.table_set, []).append(index)
    return list(groups.items())


def _intra_pairs(items):
    return sum(len(m) * (len(m) - 1) // 2 for _, m in _partitions(items))


def _python_matrix(items, metric):
    """The block-sparse layout with every block filled by per-pair
    metric calls: the pure-Python baseline the kernel replaces."""
    keys, members = zip(*_partitions(items))
    blocks = [[metric(items[a], items[b])
               for x, a in enumerate(m) for b in m[x + 1:]]
              for m in members]
    bounds = np.array([[metric.d_tables(items[a[0]], items[b[0]])
                        for b in members] for a in members])
    return BlockSparseDistanceMatrix(len(items), keys, members, blocks,
                                     bounds)


def _timed(build):
    started = time.perf_counter()
    result = build()
    return result, time.perf_counter() - started


def test_kernel_artifact(out_dir):
    catalog = _catalog()
    rows = []
    python_rate = None  # measured seconds per intra-partition pair

    for n in SIZES:
        items = make_population(n)
        metric = QueryDistance(catalog)
        pairs = _intra_pairs(items)
        row = {"n": n, "intra_pairs": pairs,
               "dense_condensed_bytes": n * (n - 1) // 2 * 8}

        python = None
        if n <= PYTHON_CAP:
            python, python_seconds = _timed(
                lambda: _python_matrix(items, QueryDistance(catalog)))
            python_rate = python_seconds / pairs
            row.update(python_measured=True,
                       python_seconds=round(python_seconds, 4))
        else:
            row.update(python_measured=False,
                       python_seconds=round(python_rate * pairs, 4))

        kernel, kernel_seconds = _timed(
            lambda: BlockSparseDistanceMatrix.compute(
                items, QueryDistance(catalog), cutoff=EPS))
        row.update(
            kernel_seconds=round(kernel_seconds, 4),
            kernel_stored_floats=kernel.stats.stored_floats,
            kernel_speedup=round(
                row["python_seconds"] / kernel_seconds, 2))
        # Query throughput against the materialized blocks.
        sample = random.Random(7).sample(
            range(n), min(n, N_QUERY_SAMPLE))
        _, scan_seconds = _timed(
            lambda: [kernel.neighbors(i, EPS) for i in sample])
        row["matrix_queries_per_second"] = round(
            len(sample) / scan_seconds)

        if python is not None:
            # Both fills must produce identical cluster labels.
            want = partitioned_dbscan(items, metric, EPS, MIN_PTS,
                                      matrix=python).labels
            parity = partitioned_dbscan(items, metric, EPS, MIN_PTS,
                                        matrix=kernel).labels == want
            row["dbscan_label_parity"] = parity
            assert parity
        del kernel, python
        rows.append(row)

    artifact = {
        "eps": EPS,
        "smoke": SMOKE,
        "python_cap": PYTHON_CAP,
        "table_set_mix": sorted(
            ("+".join(sorted(ts)), w) for ts, w in TABLE_SET_MIX),
        "sizes": rows,
    }
    (out_dir / "BENCH_kernel.json").write_text(
        json.dumps(artifact, indent=2) + "\n", encoding="utf-8")

    # Acceptance: ≥5× kernel speedup over the pure-Python fill at the
    # larger size.
    assert rows[-1]["kernel_speedup"] >= 5.0, rows[-1]
