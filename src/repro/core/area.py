"""The access-area model (Definitions 1–4 / intermediate format).

An :class:`AccessArea` is the materialized intermediate format of
Section 2.4: the sorted list of relations of the universal relation
``U = R1 × … × RN`` plus a CNF constraint ``F(p1, …, pK)`` over atomic
predicates.  The access area it denotes is ``σ_F(R1 × … × RN)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.cnf import CNF, Clause
from ..algebra.intervals import Interval, IntervalSet
from ..algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                  getstate_without, setstate_without_hash)


@dataclass(frozen=True, eq=False)
class AccessArea:
    """One query's access area in intermediate format.

    ``relations`` are real (alias-resolved) relation names, sorted
    alphabetically — the Section 4.5 cleanup ordering.  ``cnf`` is the
    constraint on the universal relation; the empty CNF means the whole
    universal relation is accessed.

    Equality and hashing are **canonical**: two areas are equal exactly
    when their :attr:`fingerprint` matches — sorted relation set plus
    the order-insensitive CNF key of sorted clauses over normalized
    predicate forms.  Clause or predicate ordering quirks from the
    parser, duplicated clauses, and equal-but-differently-spelled
    literals (``5`` vs ``5.0``) therefore never split identity, and the
    access-area intern pool can key a dict by the area itself.
    ``notes`` are diagnostics and do not participate; neither does
    ``exact``, which records whether extraction applied any *widening*
    approximation (``False`` means the CNF is a sound over-set but not
    necessarily the minimal access area — consumers such as the
    differential oracle must then skip equality checks).
    """

    relations: tuple[str, ...]
    cnf: CNF
    notes: tuple[str, ...] = field(default=())
    exact: bool = field(default=True)

    # Neither the cached hash and fingerprint nor ``_digest``, the key a
    # store holds this area under (repro.store.codec.keep_digest), is
    # pickled.
    __getstate__ = getstate_without("_hash", "_fingerprint", "_digest")
    __setstate__ = setstate_without_hash

    def __post_init__(self) -> None:
        ordered = tuple(sorted(dict.fromkeys(self.relations)))
        object.__setattr__(self, "relations", ordered)

    @property
    def fingerprint(self) -> tuple:
        """Canonical, order-insensitive identity key of this area."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = (self.relations, self.cnf.canonical_key())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessArea):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.fingerprint)
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def is_unconstrained(self) -> bool:
        return self.cnf.is_true

    @property
    def is_empty(self) -> bool:
        """True when the constraint is unsatisfiable (empty access area)."""
        return any(len(clause) == 0 for clause in self.cnf)

    @property
    def table_set(self) -> frozenset[str]:
        """``q.FROM`` of the distance function (Section 5.1).

        Relation names are canonical as of extraction (schema
        capitalization, lowercase fallback — see
        :meth:`repro.core.context.ExtractionContext.canonical_relation`),
        so this frozenset doubles as the partition key of the table-set
        clustering decomposition: equal sets ⇔ ``d_tables == 0``.
        """
        return frozenset(self.relations)

    def column_footprints(self) -> dict[ColumnRef, IntervalSet]:
        """Per-column numeric footprint implied by *unit* clauses.

        Unit clauses constrain their column everywhere in the area, so
        intersecting them per column yields the projection of the access
        area onto each constrained axis.  Non-unit clauses and non-numeric
        predicates do not narrow any single axis and are skipped — a
        conservative over-approximation.

        The result is computed once and cached (the area is immutable;
        aggregation and density analysis call this repeatedly).
        """
        cached = getattr(self, "_footprints_cache", None)
        if cached is not None:
            return cached
        footprints = self._compute_footprints()
        object.__setattr__(self, "_footprints_cache", footprints)
        return footprints

    def _compute_footprints(self) -> dict[ColumnRef, IntervalSet]:
        footprints: dict[ColumnRef, IntervalSet] = {}
        for clause in self.cnf:
            if not clause.is_unit:
                continue
            pred = clause.predicates[0]
            if not (isinstance(pred, ColumnConstantPredicate)
                    and pred.is_numeric):
                continue
            fp = pred.to_interval_set()
            if pred.ref in footprints:
                footprints[pred.ref] = footprints[pred.ref].intersect(fp)
            else:
                footprints[pred.ref] = fp
        return footprints

    def footprint_hull(self, ref: ColumnRef) -> Interval | None:
        """Bounding interval of the area's footprint on one column."""
        footprint = self.column_footprints().get(ref)
        if footprint is None:
            return None
        return footprint.hull()

    def describe(self) -> str:
        """Human-readable Boolean-expression form, Table-1 style."""
        if self.is_empty:
            return "∅"
        where = str(self.cnf)
        tables = ", ".join(self.relations) or "(no relations)"
        if self.cnf.is_true:
            return tables
        return f"{where}  [on {tables}]"

    def __str__(self) -> str:
        return self.describe()


def unconstrained(relations: tuple[str, ...] | list[str]) -> AccessArea:
    """The access area of a constraint-free query (e.g. full outer join)."""
    return AccessArea(tuple(relations), CNF.true())


def empty_area(relations: tuple[str, ...] | list[str]) -> AccessArea:
    """An unsatisfiable access area (contradictory constraints)."""
    return AccessArea(tuple(relations), CNF((Clause(()),)))
