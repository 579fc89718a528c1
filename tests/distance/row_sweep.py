"""Parity sweep of the kernel's rows, blocks and dense fill over a
generator log.

Extracts a fresh generator log, groups its distinct access areas by
table set, and grows one :class:`~repro.distance.kernel.PackedPartition`
per partition area by area at resolutions 0, 0.01 and 0.05.  Before
each area joins, a probe scores it against the areas packed so far;
after, its insert row (``pair_rows``) does.  Once a partition is grown,
its ``condensed_block()`` is computed in one band of rows per area and
in bands of the default budget.  Per resolution, the dense fill
(:func:`~repro.distance.kernel.dense_fill`) covers a prefix of the
log's distinct areas across every table set.  Each must equal the
per-pair :class:`~repro.distance.QueryDistance` oracle with ``==``.  An
area the kernel refuses (``KernelUnsupported``) is left out of its
pack, as the service leaves it to the oracle.  Run from the repository
root::

    PYTHONPATH=src python -m tests.distance.row_sweep --seed 7 \\
        --n-queries 2000

It prints the first mismatch and exits 1, or prints a summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.extractor import AccessAreaExtractor
from repro.distance import QueryDistance, kernel
from repro.distance.kernel import (KernelUnsupported, PackedPartition,
                                   dense_fill)
from repro.schema import CONTENT_BOUNDS, StatisticsCatalog, skyserver_schema
from repro.workload import WorkloadConfig, generate_workload

RESOLUTIONS = (0.0, 0.01, 0.05)

#: Distinct areas, in arrival order, that the dense fill covers.
DENSE_PREFIX = 150


def distinct_areas(seed: int, n_queries: int
                   ) -> tuple[list, StatisticsCatalog]:
    """The distinct areas of a generator log, in arrival order, and the
    catalog that observed them."""
    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    seen, unique = set(), []
    workload = generate_workload(WorkloadConfig(n_queries=n_queries,
                                                seed=seed))
    for sql in workload.log.statements():
        try:
            area = extractor.extract(sql).area
        except Exception:
            continue
        stats.observe_cnf(area.cnf)
        if area not in seen:
            seen.add(area)
            unique.append(area)
    return unique, stats


def _banded_blocks(pack: PackedPartition) -> list:
    """``pack.condensed_block()`` in bands of one area and in bands of
    the default budget."""
    budget = kernel.BAND_FLOATS
    try:
        kernel.BAND_FLOATS = 0
        ones = pack.condensed_block()
    finally:
        kernel.BAND_FLOATS = budget
    return [("block in bands of one", ones),
            ("block", pack.condensed_block())]


def _mismatch(kind: str, resolution: float, got, want) -> Optional[str]:
    for k, (value, expected) in enumerate(zip(got, want)):
        if value != expected:
            return (f"resolution {resolution}: {kind}, entry {k}: kernel "
                    f"{value!r} != oracle {expected!r}")
    return None


def first_mismatch(seed: int, n_queries: int) -> tuple[Optional[str],
                                                      dict]:
    """A description of the first row, probe, block or dense entry that
    differs from the oracle, or ``None``; and what was compared."""
    unique, stats = distinct_areas(seed, n_queries)
    groups: dict = {}
    for area in unique:
        groups.setdefault(area.table_set, []).append(area)
    counts = {"areas": len(unique), "partitions": len(groups), "rows": 0,
              "probes": 0, "blocks": 0, "dense": 0, "refused": 0}
    for resolution in RESOLUTIONS:
        metric = QueryDistance(stats, resolution=resolution)
        oracle = QueryDistance(stats, resolution=resolution)
        for group in groups.values():
            pack = PackedPartition([], metric)
            held: list = []
            block: list = []   # the oracle's rows, for the block
            for area in group:
                try:
                    probe = pack.probe(area)
                    pack.extend([area])
                except KernelUnsupported:
                    counts["refused"] += 1
                    continue
                row = pack.pair_rows(len(held), range(len(held)))
                want = [oracle.d_conj(area.cnf, other.cnf) for other in held]
                for kind, values in (("probe", probe), ("row", row)):
                    for j, value in enumerate(values):
                        if value != want[j]:
                            return (f"resolution {resolution}, table set "
                                    f"{sorted(area.table_set)}: {kind} of "
                                    f"area {len(held)} against area {j}: "
                                    f"kernel {value!r} != oracle "
                                    f"{want[j]!r}\n  area:  {area.cnf}"
                                    f"\n  other: {held[j].cnf}"), counts
                    counts[kind + "s"] += 1
                held.append(area)
                block.append(want)
            # Pair (j, k), j < k, of the condensed layout is row k's j.
            want = [block[k][j] for j in range(len(held))
                    for k in range(j + 1, len(held))]
            for kind, values in _banded_blocks(pack):
                found = _mismatch(f"{kind} of table set "
                                  f"{sorted(group[0].table_set)}",
                                  resolution, values, want)
                if found:
                    return found, counts
            counts["blocks"] += 1
        prefix = unique[:DENSE_PREFIX]
        oracle = QueryDistance(stats, resolution=resolution)
        want = [oracle(prefix[i], prefix[j]) for i in range(len(prefix))
                for j in range(i + 1, len(prefix))]
        got, _ = dense_fill(prefix, QueryDistance(stats,
                                                  resolution=resolution))
        found = _mismatch(f"dense fill over {len(prefix)} areas",
                          resolution, got, want)
        if found:
            return found, counts
        counts["dense"] += len(want)
    return None, counts


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--n-queries", type=int, default=2000)
    options = args.parse_args(argv)
    mismatch, counts = first_mismatch(options.seed, options.n_queries)
    if mismatch is not None:
        print(f"mismatch: {mismatch}")
        return 1
    print(f"{counts['rows']} insert rows, {counts['probes']} probes and "
          f"{counts['blocks']} blocks over {counts['areas']} areas in "
          f"{counts['partitions']} partitions, and {counts['dense']} "
          f"dense entries, at resolutions {RESOLUTIONS} equal the oracle "
          f"({counts['refused']} refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
