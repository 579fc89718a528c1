"""Parity sweep of the kernel's on-demand rows over a generator log.

Extracts a fresh generator log, groups its distinct access areas by
table set, and grows one :class:`~repro.distance.kernel.PackedPartition`
per partition area by area at resolutions 0, 0.01 and 0.05.  Before
each area joins, a probe scores it against the areas packed so far;
after, its insert row (``pair_rows``) does.  Both must equal the
per-pair :class:`~repro.distance.QueryDistance` oracle with ``==``.
An area the kernel refuses (``KernelUnsupported``) is left out of its
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
from repro.distance import QueryDistance
from repro.distance.kernel import KernelUnsupported, PackedPartition
from repro.schema import CONTENT_BOUNDS, StatisticsCatalog, skyserver_schema
from repro.workload import WorkloadConfig, generate_workload

RESOLUTIONS = (0.0, 0.01, 0.05)


def partitions(seed: int, n_queries: int) -> tuple[list, StatisticsCatalog]:
    """The distinct areas of a generator log grouped by table set, in
    arrival order, and the catalog that observed them."""
    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    seen, groups = set(), {}
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
            groups.setdefault(area.table_set, []).append(area)
    return list(groups.values()), stats


def first_mismatch(seed: int, n_queries: int) -> tuple[Optional[str],
                                                      dict]:
    """A description of the first row or probe that differs from the
    oracle, or ``None``; and what was compared."""
    groups, stats = partitions(seed, n_queries)
    counts = {"areas": sum(map(len, groups)), "partitions": len(groups),
              "rows": 0, "probes": 0, "refused": 0}
    for resolution in RESOLUTIONS:
        metric = QueryDistance(stats, resolution=resolution)
        oracle = QueryDistance(stats, resolution=resolution)
        for group in groups:
            pack = PackedPartition([], metric)
            held: list = []
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
    print(f"{counts['rows']} insert rows and {counts['probes']} probes "
          f"over {counts['areas']} areas in {counts['partitions']} "
          f"partitions at resolutions {RESOLUTIONS} equal the oracle "
          f"({counts['refused']} refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
