"""The consolidation and CNF tail as first written, kept as an oracle.

:func:`consolidate` sweeps every clause for redundant disjuncts, unit
clauses included, and recomputes each unit clause's footprint for the
per-column merge; :func:`clause_of` renders every predicate to dedupe
even a clause of one; :func:`drop_subsumed` builds two predicate sets
for every pair of clauses it compares.  :mod:`repro.algebra.consolidate`
and :mod:`repro.algebra.cnf` compute the same without repeating that
work, and ``tests/algebra/test_reference_parity.py`` and
``tests/algebra/algebra_sweep.py`` hold them to these functions: the
same clauses in the same order, with the same constant objects, and the
same :class:`~repro.algebra.consolidate.ConsolidationStats`.

:func:`extracting_with_reference` routes extraction through this module
for as long as its ``with`` block runs.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Callable, Iterable, Iterator

from repro.algebra.boolexpr import FALSE, TRUE, And, Atom, BoolExpr, Or
from repro.algebra.cnf import (CNF, DEFAULT_PREDICATE_CAP, Clause,
                               CNFConversionError, truncate_predicates)
from repro.algebra.consolidate import ConsolidationResult, ConsolidationStats
from repro.algebra.intervals import NEG_INF, POS_INF, Interval, IntervalSet
from repro.algebra.nnf import to_nnf
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef, Op,
                                      Predicate)

# ``repro.algebra`` re-exports functions under its modules' names.
cnf_module = importlib.import_module("repro.algebra.cnf")
consolidate_module = importlib.import_module("repro.algebra.consolidate")
extractor_module = importlib.import_module("repro.core.extractor")


# -- the CNF tail -------------------------------------------------------------

def clause_of(predicates: Iterable[Predicate],
              rendered: dict[Predicate, str] | None = None) -> Clause:
    """``Clause.of``: dedupe by rendering, keep the last, sort."""
    if rendered is None:
        rendered = {}
    unique = {}
    for p in predicates:
        text = rendered.get(p)
        if text is None:
            text = rendered[p] = str(p)
        unique[text] = p
    return Clause(tuple(unique[key] for key in sorted(unique)))


def cnf_of(clauses: Iterable[Clause]) -> CNF:
    """``CNF.of``: dedupe by rendering, keep the last, sort."""
    unique = {str(c): c for c in clauses}
    return CNF(tuple(unique[key] for key in sorted(unique)))


def to_cnf(expr: BoolExpr,
           max_predicates: int | None = DEFAULT_PREDICATE_CAP,
           max_clauses: int = 200_000) -> CNF:
    expr = to_nnf(expr)
    if max_predicates is not None and expr.count_atoms() > max_predicates:
        expr = to_nnf(truncate_predicates(expr, max_predicates))
    clauses = _distribute(expr, max_clauses, {})
    if clauses is None:
        return CNF((Clause(()),))
    return cnf_of(drop_subsumed(clauses))


def _distribute(expr: BoolExpr, max_clauses: int,
                rendered: dict[Predicate, str]) -> list[Clause] | None:
    if expr is TRUE:
        return []
    if expr is FALSE:
        return None
    if isinstance(expr, Atom):
        return [clause_of([expr.predicate], rendered)]
    if isinstance(expr, And):
        out: list[Clause] = []
        for child in expr.children:
            sub = _distribute(child, max_clauses, rendered)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > max_clauses:
                raise CNFConversionError(
                    f"CNF exceeded {max_clauses} clauses")
        return out
    if isinstance(expr, Or):
        product: list[Clause] = [Clause(())]
        for child in expr.children:
            sub = _distribute(child, max_clauses, rendered)
            if sub is None:
                continue
            if not sub:
                return []
            next_product: list[Clause] = []
            for left in product:
                for right in sub:
                    next_product.append(
                        clause_of((*left.predicates, *right.predicates),
                                  rendered))
                    if len(next_product) > max_clauses:
                        raise CNFConversionError(
                            f"CNF exceeded {max_clauses} clauses")
            product = next_product
        if product == [Clause(())]:
            return None
        return product
    raise TypeError(f"unexpected node in NNF: {type(expr).__name__}")


def drop_subsumed(clauses: list[Clause]) -> list[Clause]:
    unique = list(set(clauses))
    if len(unique) > cnf_module._SUBSUMPTION_LIMIT:
        return sorted(unique, key=str)
    kept: list[Clause] = []
    for clause in sorted(unique, key=len):
        if not any(set(prev.predicates) <= set(clause.predicates)
                   for prev in kept):
            kept.append(clause)
    return kept


# -- consolidation ------------------------------------------------------------

_UNSAT = CNF((Clause(()),))


def consolidate(cnf: CNF) -> ConsolidationResult:
    stats = ConsolidationStats()

    clauses: list[Clause] = []
    for clause in cnf:
        simplified = _simplify_clause(clause, stats)
        if simplified is None:
            stats.removed_true_clauses += 1
            continue
        if len(simplified) == 0:
            stats.contradiction = True
            return ConsolidationResult(_UNSAT, stats)
        clauses.append(simplified)

    merged = _merge_unit_clauses(clauses, stats)
    if merged is None:
        stats.contradiction = True
        return ConsolidationResult(_UNSAT, stats)

    return ConsolidationResult(cnf_of(merged), stats)


def _simplify_clause(clause: Clause,
                     stats: ConsolidationStats) -> Clause | None:
    numeric: dict[ColumnRef, list[ColumnConstantPredicate]] = {}
    others: list[Predicate] = []
    for pred in clause:
        if isinstance(pred, ColumnConstantPredicate) and pred.is_numeric:
            numeric.setdefault(pred.ref, []).append(pred)
        else:
            others.append(pred)

    kept: list[Predicate] = list(others)
    for ref, preds in numeric.items():
        footprints = [(p, p.to_interval_set()) for p in preds]
        union = IntervalSet()
        for _, fp in footprints:
            union = union.union(fp)
        if union == IntervalSet([Interval.everything()]):
            return None
        remaining = list(footprints)
        index = 0
        while index < len(remaining):
            pred, fp = remaining[index]
            rest = [other_fp for j, (_, other_fp) in enumerate(remaining)
                    if j != index]
            union_rest = IntervalSet()
            for other_fp in rest:
                union_rest = union_rest.union(other_fp)
            if rest and fp.difference(union_rest).is_empty:
                remaining.pop(index)
                stats.dropped_redundant += 1
            else:
                index += 1
        kept.extend(pred for pred, _ in remaining)
    if len(kept) < len(clause.predicates):
        return clause_of(kept)
    return clause


def _merge_unit_clauses(clauses: list[Clause],
                        stats: ConsolidationStats) -> list[Clause] | None:
    numeric: dict[ColumnRef, IntervalSet] = {}
    numeric_clauses: dict[ColumnRef, list[Clause]] = {}
    categorical_eq: dict[ColumnRef, set] = {}
    categorical_ne: dict[ColumnRef, set] = {}
    passthrough: list[Clause] = []

    for clause in clauses:
        pred = clause.predicates[0] if clause.is_unit else None
        if (isinstance(pred, ColumnConstantPredicate) and pred.is_numeric):
            fp = pred.to_interval_set()
            if pred.ref in numeric:
                numeric[pred.ref] = numeric[pred.ref].intersect(fp)
            else:
                numeric[pred.ref] = fp
            numeric_clauses.setdefault(pred.ref, []).append(clause)
        elif (isinstance(pred, ColumnConstantPredicate)
              and isinstance(pred.value, str)):
            if pred.op is Op.EQ:
                categorical_eq.setdefault(pred.ref, set()).add(pred.value)
            elif pred.op is Op.NE:
                categorical_ne.setdefault(pred.ref, set()).add(pred.value)
            else:
                passthrough.append(clause)
        else:
            passthrough.append(clause)

    out: list[Clause] = list(passthrough)

    for ref, footprint in numeric.items():
        if footprint.is_empty:
            return None
        rebuilt = _intervals_to_clauses(ref, footprint)
        if rebuilt is None:
            rebuilt = numeric_clauses[ref]
            stats.notes.append(
                f"kept original clauses for disconnected footprint of {ref}")
        count = len(numeric_clauses[ref])
        if count > len(rebuilt):
            stats.merged_bounds += count - len(rebuilt)
        out.extend(rebuilt)

    for ref, values in categorical_eq.items():
        if len(values) > 1:
            return None
        value = next(iter(values))
        if value in categorical_ne.get(ref, set()):
            return None
        out.append(clause_of(
            [ColumnConstantPredicate(ref, Op.EQ, value)]))

    for ref, values in categorical_ne.items():
        if ref in categorical_eq:
            continue
        for value in sorted(values):
            out.append(clause_of(
                [ColumnConstantPredicate(ref, Op.NE, value)]))

    return out


def _intervals_to_clauses(ref: ColumnRef,
                          footprint: IntervalSet) -> list[Clause] | None:
    if len(footprint) != 1:
        return None
    return _interval_to_clauses(ref, footprint.intervals[0])


def _interval_to_clauses(ref: ColumnRef, iv: Interval) -> list[Clause]:
    if iv.is_point:
        return [clause_of([ColumnConstantPredicate(ref, Op.EQ, iv.lo)])]
    clauses: list[Clause] = []
    if iv.lo != NEG_INF:
        op = Op.GT if iv.lo_open else Op.GE
        clauses.append(clause_of([ColumnConstantPredicate(ref, op, iv.lo)]))
    if iv.hi != POS_INF:
        op = Op.LT if iv.hi_open else Op.LE
        clauses.append(clause_of([ColumnConstantPredicate(ref, op, iv.hi)]))
    return clauses


# -- routing extraction through the oracle ------------------------------------

@contextlib.contextmanager
def extracting_with_reference(consolidated: list[CNF] | None = None
                              ) -> Iterator[None]:
    """Extract with this module's ``to_cnf`` and ``consolidate``.

    Covers every name extraction reaches them through: the extractor's
    module attributes and the algebra modules' own, which
    ``transform._provably_unsat`` imports at call time.  Every CNF
    handed to :func:`consolidate` is appended to ``consolidated`` when
    one is given.  No held statement shape answers inside the block, so
    every extraction converts its constraint with :func:`to_cnf`; the
    cap's note is decided apart from the conversion, on a count of the
    constraint's predicates in NNF, as the extractor first did.
    """
    def consolidating(cnf: CNF) -> ConsolidationResult:
        if consolidated is not None:
            consolidated.append(cnf)
        return consolidate(cnf)

    def converting(expr: BoolExpr,
                   max_predicates: int | None = DEFAULT_PREDICATE_CAP,
                   max_clauses: int = 200_000,
                   on_truncate: Callable[[], None] | None = None) -> CNF:
        if on_truncate is not None and max_predicates is not None \
                and to_nnf(expr).count_atoms() > max_predicates:
            on_truncate()
        return to_cnf(expr, max_predicates, max_clauses)

    patched = [(extractor_module, "to_cnf", converting),
               (extractor_module, "consolidate_cnf", consolidating),
               (extractor_module._HeldShapes, "get", lambda _shapes, _key:
                None),
               (cnf_module, "to_cnf", to_cnf),
               (consolidate_module, "consolidate", consolidating)]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patched]
    try:
        for module, name, value in patched:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
