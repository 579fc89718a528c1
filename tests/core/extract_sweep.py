"""Parity sweep of the extractor's memo of statement shapes.

Draws statements from every :mod:`repro.qa.querygen` profile, each over
the random schema it was generated for, and a twin of each with new
literals, keyword case and spacing
(:func:`tests.sqlparser.shape_sweep.perturbed`); then pairs of SkyServer
statements of one shape whose literals decide the transform's outcome
differently (:data:`DECISIONS`), in both orders.  Extracts each once
through an extractor that holds the shapes it has seen, so a twin binds
its literals into its shape, and once through the full pipeline.  The
pickled ``(relations, cnf, notes, exact)``, or the exception's type and
message, must be equal.  Run from the repository root::

    PYTHONPATH=src python -m tests.core.extract_sweep --seed 7 \\
        --n-queries 2000

It prints the first mismatch and exits 1, or prints a summary.
"""

from __future__ import annotations

import argparse
import pickle
import random
import sys
from typing import Iterator, Optional

from repro.core.extractor import AccessAreaExtractor
from repro.obs import trace
from repro.schema import skyserver_schema
from repro.schema.database import Schema
from repro.sqlparser import parse
from tests.sqlparser.shape_sweep import drawn, perturbed

#: Statements of one shape whose literals decide otherwise: a constant
#: comparison, a LIKE wildcard, a string on a numeric column, a division
#: by zero, the sign of a HAVING domain, an unsatisfiable NOT EXISTS
#: subquery, a constant off the number line and equal constants of two
#: spellings.
DECISIONS = [
    ("SELECT * FROM PhotoObjAll WHERE 1 = 1 AND ra > 5",
     "SELECT * FROM PhotoObjAll WHERE 1 = 2 AND ra > 5"),
    ("SELECT * FROM DBObjects WHERE name LIKE 'ab'",
     "SELECT * FROM DBObjects WHERE name LIKE 'a%'"),
    ("SELECT * FROM PhotoObjAll WHERE ra > '5'",
     "SELECT * FROM PhotoObjAll WHERE ra > 'x'"),
    ("SELECT * FROM PhotoObjAll WHERE ra > 10 / 2",
     "SELECT * FROM PhotoObjAll WHERE ra > 10 / 0"),
    ("SELECT type FROM PhotoObjAll WHERE ra > '0' GROUP BY type "
     "HAVING SUM(ra) < 5",
     "SELECT type FROM PhotoObjAll WHERE ra > '-10' GROUP BY type "
     "HAVING SUM(ra) < 5"),
    ("SELECT * FROM PhotoObjAll p WHERE NOT EXISTS (SELECT * FROM Photoz "
     "z WHERE z.objid = p.objid AND z.z > 1 AND z.z < 2)",
     "SELECT * FROM PhotoObjAll p WHERE NOT EXISTS (SELECT * FROM Photoz "
     "z WHERE z.objid = p.objid AND z.z > 3 AND z.z < 2)"),
    ("SELECT * FROM PhotoObjAll WHERE ra > 5",
     "SELECT * FROM PhotoObjAll WHERE ra > 1e400"),
    ("SELECT * FROM PhotoObjAll WHERE ra = 5 OR ra = 5.0 OR dec < 1",
     "SELECT * FROM PhotoObjAll WHERE ra = 5.0 OR ra = 5 OR dec < 1"),
]


def extraction(extract, sql: str):
    """The pickled ``(relations, cnf, notes, exact)`` of ``sql``'s area,
    or the exception's type and message."""
    try:
        area = extract(sql).area
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return pickle.dumps((area.relations, area.cnf, area.notes, area.exact))


def held(extractor: AccessAreaExtractor, sql: str) -> tuple[object, bool]:
    """``extractor``'s answer, and whether a held shape gave it."""
    tracer = trace.Tracer()
    with trace.use_tracer(tracer):
        answer = extraction(extractor.extract, sql)
    return answer, tracer.roots[-1].attrs.get("shape") == "held"


def cases(seed: int, n_queries: int) -> Iterator[tuple[Schema, str]]:
    """Every drawn statement and its twin, then :data:`DECISIONS` in
    both orders, each pair's first statement again after its second."""
    rng = random.Random(seed)
    for schema, sql in drawn(seed, n_queries):
        yield schema, sql
        twin = perturbed(sql, rng)
        if twin is not None:
            yield schema, twin
    for order in (0, 1):
        # A schema of its own, so the shape's first statement is the
        # one this order puts first.
        schema = skyserver_schema()
        for pair in DECISIONS:
            first, then = pair[order], pair[1 - order]
            for sql in (first, then, first):
                yield schema, sql


def first_mismatch(seed: int, n_queries: int) -> tuple[Optional[tuple],
                                                      int, int]:
    """The first statement the memo answers otherwise than the full
    pipeline, as ``(sql, memo answer, full answer)``, or ``None``; then
    the statements compared and how many a held shape answered."""
    checked = hits = 0
    memos: dict[int, AccessAreaExtractor] = {}
    bypass: dict[int, AccessAreaExtractor] = {}
    for schema, sql in cases(seed, n_queries):
        memo = memos.setdefault(id(schema), AccessAreaExtractor(schema))
        plain = bypass.setdefault(id(schema), AccessAreaExtractor(schema))
        checked += 1
        ours, answered = held(memo, sql)
        hits += answered
        theirs = extraction(
            lambda text: plain.extract_statement(parse(text)), sql)
        if ours != theirs:
            return (sql, ours, theirs), checked, hits
    return None, checked, hits


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--n-queries", type=int, default=2000)
    options = args.parse_args(argv)
    found, checked, hits = first_mismatch(options.seed, options.n_queries)
    if found is not None:
        sql, ours, theirs = found
        print(f"mismatch after {checked} statements:\n  sql: {sql!r}\n"
              f"  memo: {ours!r}\n  full: {theirs!r}")
        return 1
    print(f"{checked} statements ({hits} answered by a held shape) "
          f"extract as through the full pipeline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
