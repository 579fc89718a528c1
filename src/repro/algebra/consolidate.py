"""Predicate consolidation (Section 4.5 cleanup step).

After CNF conversion the paper performs "some consolidation on the
remaining predicates: we remove redundant constraints, merge overlapping
constraints, and check the set of constraints for contradictions".

This module implements those three steps on a :class:`~repro.algebra.cnf.CNF`:

1. **Within-clause redundancy** — in a disjunction, a predicate whose
   footprint is contained in another predicate's footprint on the same
   column is dropped; a disjunction covering the whole axis makes the
   clause TRUE and removes it.
2. **Merging of unit clauses** — all unit column-constant clauses on the
   same numeric column are intersected into a minimal bound pair
   (``a >= lo AND a <= hi``), with ``=`` for points.
3. **Contradiction check** — an empty intersection (e.g. ``a > 5 AND
   a < 3``, or ``a = 'x' AND a = 'y'``) collapses the whole CNF to the
   unsatisfiable CNF containing the empty clause.

Unit clauses skip the first step's sweep: with no other disjunct to be
covered by, a unit clause can only stay as it is or be TRUE, and it is
TRUE exactly when its footprint is the whole axis (``ra < 1e400``).
Each numeric unit clause's footprint is built once, for that test and
for its column's intersection in the second step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import CNF, Clause
from .intervals import NEG_INF, POS_INF, Interval, IntervalSet
from .predicates import (ColumnConstantPredicate, ColumnRef, Op, Predicate)


@dataclass
class ConsolidationStats:
    """Bookkeeping about what consolidation changed."""

    dropped_redundant: int = 0
    merged_bounds: int = 0
    removed_true_clauses: int = 0
    contradiction: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ConsolidationResult:
    cnf: CNF
    stats: ConsolidationStats


_UNSAT = CNF((Clause(()),))

#: The footprint of a disjunction that holds on the whole axis.
_EVERYTHING = IntervalSet([Interval.everything()])


def consolidate(cnf: CNF) -> ConsolidationResult:
    """Apply redundancy removal, merging, and contradiction checking."""
    stats = ConsolidationStats()

    # Each kept clause with its footprint: built here for a numeric
    # unit clause, ``None`` for any other clause.
    clauses: list[tuple[Clause, IntervalSet | None]] = []
    for clause in cnf:
        if len(clause.predicates) == 1:
            pred = clause.predicates[0]
            footprint = None
            if isinstance(pred, ColumnConstantPredicate) and pred.is_numeric:
                footprint = pred.to_interval_set()
                if footprint == _EVERYTHING:  # the clause is TRUE
                    stats.removed_true_clauses += 1
                    continue
            clauses.append((clause, footprint))
            continue
        simplified = _simplify_clause(clause, stats)
        if simplified is None:  # clause became TRUE
            stats.removed_true_clauses += 1
            continue
        if len(simplified) == 0:  # clause is unsatisfiable
            stats.contradiction = True
            return ConsolidationResult(_UNSAT, stats)
        clauses.append((simplified, None))

    merged = _merge_unit_clauses(clauses, stats)
    if merged is None:
        stats.contradiction = True
        return ConsolidationResult(_UNSAT, stats)

    return ConsolidationResult(CNF.of(merged), stats)


def _simplify_clause(clause: Clause,
                     stats: ConsolidationStats) -> Clause | None:
    """Drop redundant disjuncts; return ``None`` when the clause is TRUE."""
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
        if union == _EVERYTHING:
            return None  # disjunction covers the whole axis: clause is TRUE
        # Drop covered disjuncts one at a time against the *remaining*
        # set — dropping all members of a mutually-covering family would
        # change semantics.
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
        return Clause.of(kept)
    return clause


def _merge_unit_clauses(clauses: list[tuple[Clause, IntervalSet | None]],
                        stats: ConsolidationStats) -> list[Clause] | None:
    """Intersect unit column-constant clauses per column, in clause
    order, reusing the footprints ``clauses`` carries.

    Returns ``None`` on contradiction.
    """
    # per column, the intersected footprint and the clauses in it
    numeric: dict[ColumnRef, list] = {}
    categorical_eq: dict[ColumnRef, set] = {}
    categorical_ne: dict[ColumnRef, set] = {}
    passthrough: list[Clause] = []

    for clause, footprint in clauses:
        pred = clause.predicates[0] if clause.is_unit else None
        if (isinstance(pred, ColumnConstantPredicate) and pred.is_numeric):
            if footprint is None:  # a clause the sweep left one predicate
                footprint = pred.to_interval_set()
            held = numeric.get(pred.ref)
            if held is None:
                numeric[pred.ref] = [footprint, [clause]]
            else:
                held[0] = held[0].intersect(footprint)
                held[1].append(clause)
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

    for ref, (footprint, originals) in numeric.items():
        if footprint.is_empty:
            return None
        rebuilt = _intervals_to_clauses(ref, footprint)
        if rebuilt is None:
            # Not representable as bound atoms alone; keep the original
            # clauses untouched (merging must never change semantics).
            rebuilt = originals
            stats.notes.append(
                f"kept original clauses for disconnected footprint of {ref}")
        if len(originals) > len(rebuilt):
            stats.merged_bounds += len(originals) - len(rebuilt)
        out.extend(rebuilt)

    for ref, values in categorical_eq.items():
        if len(values) > 1:
            return None  # a = 'x' AND a = 'y'
        value = next(iter(values))
        if value in categorical_ne.get(ref, set()):
            return None  # a = 'x' AND a <> 'x'
        out.append(_unit(ref, Op.EQ, value))

    for ref, values in categorical_ne.items():
        if ref in categorical_eq:
            continue  # the EQ already implies all satisfiable NEs
        for value in sorted(values):
            out.append(_unit(ref, Op.NE, value))

    return out


def _unit(ref: ColumnRef, op: Op, value) -> Clause:
    return Clause((ColumnConstantPredicate(ref, op, value),))


def _intervals_to_clauses(ref: ColumnRef,
                          footprint: IntervalSet) -> list[Clause] | None:
    """Rebuild a per-column footprint as unit clauses, if representable.

    A conjunction of atoms can express a single interval (optionally with
    point exclusions, which we do not attempt to reconstruct); multi-piece
    footprints return ``None``.
    """
    if len(footprint) != 1:
        return None
    return _interval_to_clauses(ref, footprint.intervals[0])


def _interval_to_clauses(ref: ColumnRef, iv: Interval) -> list[Clause]:
    if iv.is_point:
        return [_unit(ref, Op.EQ, iv.lo)]
    clauses: list[Clause] = []
    if iv.lo != NEG_INF:
        op = Op.GT if iv.lo_open else Op.GE
        clauses.append(_unit(ref, op, iv.lo))
    if iv.hi != POS_INF:
        op = Op.LT if iv.hi_open else Op.LE
        clauses.append(_unit(ref, op, iv.hi))
    return clauses
