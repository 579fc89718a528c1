"""Atomic predicates over database columns.

The paper's intermediate format constrains the universal relation with a
CNF over *atomic* predicates.  Two kinds occur in the SkyServer log and are
modelled here:

* **column-constant** predicates ``a θ c`` (Section 2.1) with
  ``θ ∈ {<, <=, =, >, >=, <>}``, over numeric or categorical columns;
* **column-column** predicates ``a1 θ a2`` (join conditions pushed into the
  WHERE clause, Section 4.2).

Predicates are immutable and hashable so they can live in sets (used by
consolidation and by the OLAPClus baseline's exact matching).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .coercion import compare_values
from .intervals import NEG_INF, POS_INF, Interval, IntervalSet


class Op(enum.Enum):
    """Comparison operators of column-constant atomic predicates."""

    LT = "<"
    LE = "<="
    EQ = "="
    GT = ">"
    GE = ">="
    NE = "<>"

    def negate(self) -> "Op":
        """The operator of the logically negated predicate."""
        return _NEGATIONS[self]

    def flip(self) -> "Op":
        """The operator obtained by swapping the two operands."""
        return _FLIPS[self]

    def __str__(self) -> str:
        return self.value


_NEGATIONS = {
    Op.LT: Op.GE,
    Op.LE: Op.GT,
    Op.EQ: Op.NE,
    Op.GT: Op.LE,
    Op.GE: Op.LT,
    Op.NE: Op.EQ,
}

_FLIPS = {
    Op.LT: Op.GT,
    Op.LE: Op.GE,
    Op.EQ: Op.EQ,
    Op.GT: Op.LT,
    Op.GE: Op.LE,
    Op.NE: Op.NE,
}

Constant = Union[int, float, str, bool]


def normalize_constant(value: Constant) -> tuple:
    """Type-tagged canonical form of a predicate constant.

    Numerically equal int/float literals (``5`` vs ``5.0``) normalize to
    the same key, but strings never collide with numbers and booleans
    never collide with 0/1 — the tags keep the spaces disjoint.
    """
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 2 ** 53:
        return ("n", int(value))
    return ("n", value)


def getstate_without(*cached: str):
    """A ``__getstate__`` that leaves the ``cached`` entries out of the
    pickle: values the object recomputes on first use after a load,
    such as the ``_hash`` that :func:`setstate_without_hash` drops."""
    def getstate(obj) -> dict:
        return {key: value for key, value in obj.__dict__.items()
                if key not in cached}
    return getstate


def setstate_without_hash(obj, state: dict) -> None:
    """``__setstate__`` of the classes that cache ``hash()`` in
    ``_hash``.  String hashes differ between interpreters, so a hash
    cached by the process that pickled the object (an area read back
    from the store after a restart, or a record written before
    :func:`getstate_without`) would split equal objects in every
    dict; the next ``hash()`` recomputes it."""
    obj.__dict__.update(state)
    obj.__dict__.pop("_hash", None)


@dataclass(frozen=True, eq=True)
class ColumnRef:
    """A fully qualified column reference ``relation.column``.

    ``relation`` is the *real* relation name: alias resolution happens
    during extraction (Section 4.5 cleanup step), before predicates are
    built.
    """

    relation: str
    column: str

    __getstate__ = getstate_without("_hash")
    __setstate__ = setstate_without_hash

    def __hash__(self) -> int:
        # Cached: refs are hashed millions of times by the distance memo.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.relation, self.column))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def qualified(self) -> str:
        return f"{self.relation}.{self.column}"

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True)
class Predicate:
    """Base class for atomic predicates."""

    __getstate__ = getstate_without("_hash")
    __setstate__ = setstate_without_hash

    def negate(self) -> "Predicate":
        raise NotImplementedError

    def canonical_form(self) -> tuple:
        """Order- and spelling-insensitive identity key.

        Two predicates with equal canonical forms denote the same atomic
        constraint; the access-area intern pool and the canonical
        :class:`~repro.core.area.AccessArea` identity sort and compare
        by this key, never by rendering order or literal formatting.
        """
        raise NotImplementedError

    @property
    def columns(self) -> tuple[ColumnRef, ...]:
        raise NotImplementedError

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(ref.relation for ref in self.columns)


@dataclass(frozen=True, eq=True)
class ColumnConstantPredicate(Predicate):
    """``a θ c`` where ``a`` is a column and ``c`` a constant."""

    ref: ColumnRef
    op: Op
    value: Constant

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.ref, self.op, self.value))
            object.__setattr__(self, "_hash", cached)
        return cached

    def negate(self) -> "ColumnConstantPredicate":
        return ColumnConstantPredicate(self.ref, self.op.negate(), self.value)

    def canonical_form(self) -> tuple:
        return ("cc", self.ref.qualified, self.op.value,
                normalize_constant(self.value))

    @property
    def columns(self) -> tuple[ColumnRef, ...]:
        return (self.ref,)

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float)) and not isinstance(
            self.value, bool)

    def to_interval_set(self) -> IntervalSet:
        """Footprint of this predicate on the column's domain axis.

        Only meaningful for numeric constants.  ``<>`` yields the two
        open rays around the excluded point.
        """
        if not self.is_numeric:
            raise TypeError(f"non-numeric predicate {self} has no interval")
        # Keep ints exact: SkyServer objid/specobjid constants exceed the
        # float64 mantissa, and the rebuilt predicates must round-trip.
        c = self.value
        if self.op is Op.LT:
            return IntervalSet([Interval(NEG_INF, c, True, True)])
        if self.op is Op.LE:
            return IntervalSet([Interval(NEG_INF, c, True, False)])
        if self.op is Op.EQ:
            return IntervalSet([Interval.point(c)])
        if self.op is Op.GT:
            return IntervalSet([Interval(c, POS_INF, True, True)])
        if self.op is Op.GE:
            return IntervalSet([Interval(c, POS_INF, False, True)])
        return IntervalSet([
            Interval(NEG_INF, c, True, True),
            Interval(c, POS_INF, True, True),
        ])

    def evaluate(self, value: Constant) -> bool:
        """Evaluate the predicate against a concrete column value."""
        return _compare(value, self.op, self.value)

    def __str__(self) -> str:
        value = self.value
        ref = self.ref
        if isinstance(value, str):
            value = repr(value)
        return f"{ref.relation}.{ref.column} {self.op.value} {value}"


@dataclass(frozen=True, eq=True)
class ColumnColumnPredicate(Predicate):
    """``a1 θ a2`` — typically a join condition pushed into the WHERE."""

    left: ColumnRef
    op: Op
    right: ColumnRef

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.left, self.op, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __post_init__(self) -> None:
        # Canonical operand order so that T.u = S.u and S.u = T.u compare
        # (and hash) equal, which exact-match baselines rely on.
        if (self.right.qualified, ) < (self.left.qualified, ):
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)
            object.__setattr__(self, "op", self.op.flip())

    def negate(self) -> "ColumnColumnPredicate":
        return ColumnColumnPredicate(self.left, self.op.negate(), self.right)

    def canonical_form(self) -> tuple:
        # Operand order is already canonical (see __post_init__).
        return ("jj", self.left.qualified, self.op.value,
                self.right.qualified)

    @property
    def columns(self) -> tuple[ColumnRef, ...]:
        return (self.left, self.right)

    @property
    def is_equijoin(self) -> bool:
        return self.op is Op.EQ

    def evaluate(self, left_value: Constant, right_value: Constant) -> bool:
        return _compare(left_value, self.op, right_value)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def _compare(left: Constant, op: Op, right: Constant) -> bool:
    """Three-valued-free comparison used by the predicate evaluator.

    Delegates to the shared :func:`~repro.algebra.coercion.compare_values`
    rule (NULL rejection, numeric coercion of mixed int/str operands) so
    the predicate evaluator and the execution engine can never disagree
    on a comparison — the differential oracle's two sides share one
    helper.
    """
    return compare_values(left, op.value, right)
