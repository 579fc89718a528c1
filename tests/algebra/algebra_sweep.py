"""Parity sweep of the extraction algebra over random statements.

Draws statements from every :mod:`repro.qa.querygen` profile, each over
the random schema it was generated for, and a twin of each with new
literals, keyword case and spacing
(:func:`tests.sqlparser.shape_sweep.perturbed`).  Extracts each once
with :mod:`repro.algebra`'s ``to_cnf`` and ``consolidate`` and once with
the oracle in :mod:`tests.algebra.reference`.  The pickled
``(relations, cnf, notes, exact)``, or the exception's type and
message, must be equal; so must the consolidation of every CNF the
oracle's extraction consolidated: its pickle, its ``repr`` and its
:class:`~repro.algebra.consolidate.ConsolidationStats`.  Run from the
repository root::

    PYTHONPATH=src python -m tests.algebra.algebra_sweep --seed 7 \\
        --n-queries 2000

It prints the first mismatch and exits 1, or prints a summary.
"""

from __future__ import annotations

import argparse
import pickle
import random
import sys
from typing import Callable, Optional

from repro.algebra.consolidate import consolidate
from repro.core.extractor import AccessAreaExtractor
from tests.algebra import reference
from tests.sqlparser.shape_sweep import drawn, perturbed


def extraction(extractor: AccessAreaExtractor, sql: str):
    """The pickled ``(relations, cnf, notes, exact)`` of ``sql``'s area,
    or the exception's type and message."""
    try:
        area = extractor.extract(sql).area
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return pickle.dumps((area.relations, area.cnf, area.notes, area.exact))


def consolidation(consolidate_fn: Callable, cnf):
    """The pickle, ``repr`` and stats of ``consolidate_fn(cnf)``, or the
    exception's type and message."""
    try:
        result = consolidate_fn(cnf)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return pickle.dumps(result.cnf), repr(result.cnf), result.stats


def mismatch(extractor: AccessAreaExtractor, sql: str) -> Optional[tuple]:
    """``None`` when both algebras extract ``sql`` alike, else what
    differs and the two answers."""
    ours = extraction(extractor, sql)
    consolidated: list = []
    with reference.extracting_with_reference(consolidated):
        theirs = extraction(extractor, sql)
    if ours != theirs:
        return "extraction", ours, theirs
    for cnf in consolidated:
        ours = consolidation(consolidate, cnf)
        theirs = consolidation(reference.consolidate, cnf)
        if ours != theirs:
            return f"consolidation of {cnf}", ours, theirs
    return None


def first_mismatch(seed: int, n_queries: int) -> tuple[Optional[tuple],
                                                      int]:
    """The first statement the two algebras extract differently, as
    ``(sql, what, src answer, oracle answer)``, or ``None``; then the
    statements compared."""
    rng = random.Random(seed)
    checked = 0
    extractors: dict[int, AccessAreaExtractor] = {}
    for schema, sql in drawn(seed, n_queries):
        extractor = extractors.setdefault(id(schema),
                                          AccessAreaExtractor(schema))
        for text in (sql, perturbed(sql, rng)):
            if text is None:
                continue
            checked += 1
            found = mismatch(extractor, text)
            if found is not None:
                return (text, *found), checked
    return None, checked


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--n-queries", type=int, default=2000)
    options = args.parse_args(argv)
    found, checked = first_mismatch(options.seed, options.n_queries)
    if found is not None:
        sql, what, ours, theirs = found
        print(f"mismatch after {checked} statements:\n  sql: {sql!r}\n"
              f"  in: {what}\n  src: {ours!r}\n  oracle: {theirs!r}")
        return 1
    print(f"{checked} statements extract alike with the oracle's "
          f"algebra")
    return 0


if __name__ == "__main__":
    sys.exit(main())
