"""Conjunctive normal form (CNF) of query constraints.

The intermediate format of Section 2.4 requires the constraint on the
universal relation to be a conjunction of disjunctions of atomic
predicates.  This module provides:

* :class:`Clause` — one disjunction of atomic predicates;
* :class:`CNF` — a conjunction of clauses;
* :func:`to_cnf` — conversion of an arbitrary Boolean expression by
  NNF-rewriting followed by distribution of OR over AND.

Distribution is worst-case exponential — the paper reports that "the
necessary system resources grow exponentially with the number of
predicates" and works around it by "only consider[ing] the first 35
predicates of any query" (Section 6.6).  :func:`to_cnf` reproduces exactly
that workaround through ``max_predicates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .boolexpr import (FALSE, TRUE, And, Atom, BoolExpr, Or, make_and,
                       make_or)
from .nnf import to_nnf
from .predicates import Predicate, getstate_without

#: The paper's workaround cap on the number of predicates fed to the CNF
#: converter (Section 6.6).
DEFAULT_PREDICATE_CAP = 35


class CNFConversionError(Exception):
    """Raised when a constraint cannot be converted within resource limits."""


@dataclass(frozen=True)
class Clause:
    """A disjunction of atomic predicates.

    Duplicate predicates are collapsed; order is canonical (sorted by
    string form) so that equal clauses compare and hash equal.
    """

    predicates: tuple[Predicate, ...]

    __getstate__ = getstate_without("_canonical_key")

    @staticmethod
    def of(predicates: Iterable[Predicate],
           rendered: dict[Predicate, Predicate | str] | None = None
           ) -> "Clause":
        """The clause of ``predicates``, deduplicated by rendering.

        A clause of one predicate is built as it is; nothing is
        rendered.  ``rendered`` memoizes renderings, and equal
        predicates share the rendering of the first one it saw: it
        holds that first predicate until a clause of several needs its
        text.  :func:`to_cnf` passes one for the length of a call:
        predicates are shared across many clauses during distribution,
        where canonicalization would otherwise re-render them millions
        of times.
        """
        predicates = tuple(predicates)
        if len(predicates) == 1:
            if rendered is not None:
                rendered.setdefault(predicates[0], predicates[0])
            return Clause(predicates)
        if rendered is None:
            rendered = {}
        unique = {}
        for p in predicates:
            text = rendered.get(p)
            if text is None:
                text = rendered[p] = str(p)
            elif not isinstance(text, str):
                text = rendered[p] = str(text)
            unique[text] = p
        return Clause(tuple(unique[key] for key in sorted(unique)))

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    @property
    def is_unit(self) -> bool:
        return len(self.predicates) == 1

    def canonical_key(self) -> tuple:
        """Order-insensitive identity of this disjunction.

        The sorted, deduplicated tuple of the predicates' canonical
        forms: two clauses whose predicates arrived from the parser in
        different orders (or with differently spelled but equal
        literals) share one key.  Cached — clauses are immutable and the
        intern pool keys by this repeatedly.
        """
        cached = self.__dict__.get("_canonical_key")
        if cached is None:
            cached = tuple(sorted(
                {p.canonical_form() for p in self.predicates}))
            object.__setattr__(self, "_canonical_key", cached)
        return cached

    def subsumes(self, other: "Clause") -> bool:
        """True when this clause's predicate set is a subset of other's.

        A subset clause is logically *stronger*: if it holds, the superset
        clause holds too, so the superset is redundant in a CNF.
        """
        return set(self.predicates) <= set(other.predicates)

    def __str__(self) -> str:
        if not self.predicates:
            return "FALSE"
        if self.is_unit:
            return str(self.predicates[0])
        return "(" + " OR ".join(str(p) for p in self.predicates) + ")"


@dataclass(frozen=True)
class CNF:
    """A conjunction of clauses.  The empty CNF means TRUE."""

    clauses: tuple[Clause, ...]

    __getstate__ = getstate_without("_canonical_key")

    @staticmethod
    def of(clauses: Iterable[Clause]) -> "CNF":
        unique = {str(c): c for c in clauses}
        return CNF(tuple(unique[key] for key in sorted(unique)))

    @staticmethod
    def true() -> "CNF":
        return CNF(())

    @property
    def is_true(self) -> bool:
        return not self.clauses

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def predicates(self) -> Iterator[Predicate]:
        for clause in self.clauses:
            yield from clause

    def count_predicates(self) -> int:
        return sum(len(c) for c in self.clauses)

    def canonical_key(self) -> tuple:
        """Order-insensitive identity of this conjunction.

        The sorted, deduplicated tuple of the clauses' canonical keys
        (see :meth:`Clause.canonical_key`) — the "sorted CNF of sorted
        clauses" fingerprint component of the access-area intern layer.
        """
        cached = self.__dict__.get("_canonical_key")
        if cached is None:
            cached = tuple(sorted(
                {clause.canonical_key() for clause in self.clauses}))
            object.__setattr__(self, "_canonical_key", cached)
        return cached

    def conjoin(self, other: "CNF") -> "CNF":
        return CNF.of((*self.clauses, *other.clauses))

    def to_boolexpr(self) -> BoolExpr:
        return make_and(
            make_or(Atom(p) for p in clause) for clause in self.clauses)

    def __str__(self) -> str:
        if not self.clauses:
            return "TRUE"
        return " AND ".join(str(c) for c in self.clauses)


def truncate_predicates(expr: BoolExpr, cap: int) -> BoolExpr:
    """Keep only the first ``cap`` predicate leaves of ``expr``.

    Excess leaves are replaced by TRUE, which *widens* the constraint —
    a conservative over-approximation of the access area, matching the
    paper's workaround semantics ("only considers the first 35 predicates
    of any query").
    """
    counter = {"seen": 0}

    def rewrite(node: BoolExpr) -> BoolExpr:
        if isinstance(node, Atom):
            counter["seen"] += 1
            return node if counter["seen"] <= cap else TRUE
        if isinstance(node, And):
            return make_and(rewrite(c) for c in node.children)
        if isinstance(node, Or):
            return make_or(rewrite(c) for c in node.children)
        return node

    return rewrite(expr)


def to_cnf(expr: BoolExpr,
           max_predicates: int | None = DEFAULT_PREDICATE_CAP,
           max_clauses: int = 200_000,
           on_truncate: Callable[[], None] | None = None) -> CNF:
    """Convert a Boolean expression into CNF.

    Parameters
    ----------
    expr:
        Arbitrary expression tree (NOT nodes allowed; they are pushed to
        the leaves first).
    max_predicates:
        The paper's predicate cap; ``None`` disables truncation.
    max_clauses:
        Hard safety limit on the intermediate clause count; exceeding it
        raises :class:`CNFConversionError` instead of exhausting memory.
    on_truncate:
        Called before distribution when the cap truncates ``expr``.
    """
    expr, truncated = nnf_within_cap(expr, max_predicates)
    if truncated and on_truncate is not None:
        on_truncate()
    return nnf_to_cnf(expr, max_clauses)


def nnf_within_cap(expr: BoolExpr, max_predicates: int | None
                   ) -> tuple[BoolExpr, bool]:
    """``expr`` in NNF with only its first ``max_predicates`` predicate
    leaves (see :func:`truncate_predicates`), and whether the cap
    dropped any: the half of :func:`to_cnf` before distribution."""
    expr = to_nnf(expr)
    if max_predicates is not None and expr.count_atoms() > max_predicates:
        return to_nnf(truncate_predicates(expr, max_predicates)), True
    return expr, False


def nnf_to_cnf(expr: BoolExpr, max_clauses: int = 200_000) -> CNF:
    """The CNF of ``expr``, already in NNF: distribution, then the
    canonical clause order of :meth:`CNF.of` after dropping subsumed
    clauses.  The half of :func:`to_cnf` after the cap."""
    clauses = _distribute(expr, max_clauses, {})
    if clauses is None:
        return CNF((Clause(()),))  # unsatisfiable: the empty clause
    return CNF.of(_drop_subsumed(clauses))


def _distribute(expr: BoolExpr, max_clauses: int,
                rendered: dict[Predicate, Predicate | str]
                ) -> list[Clause] | None:
    """Return the clause list of ``expr`` (already in NNF).

    ``None`` encodes FALSE (an unsatisfiable constraint); an empty list
    encodes TRUE.  ``rendered`` is :meth:`Clause.of`'s memo.
    """
    if expr is TRUE:
        return []
    if expr is FALSE:
        return None
    if isinstance(expr, Atom):
        return [Clause.of((expr.predicate,), rendered)]
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
        # Cross product of the children's clause lists.
        product: list[Clause] = [Clause(())]
        for child in expr.children:
            sub = _distribute(child, max_clauses, rendered)
            if sub is None:
                continue  # FALSE is the identity of OR
            if not sub:
                return []  # TRUE absorbs the whole disjunction
            next_product: list[Clause] = []
            for left in product:
                for right in sub:
                    next_product.append(
                        Clause.of((*left.predicates, *right.predicates),
                                  rendered))
                    if len(next_product) > max_clauses:
                        raise CNFConversionError(
                            f"CNF exceeded {max_clauses} clauses")
            product = next_product
        if product == [Clause(())]:
            # Every child was FALSE.
            return None
        return product
    raise TypeError(f"unexpected node in NNF: {type(expr).__name__}")


#: Above this clause count the quadratic subsumption sweep is skipped —
#: keeping redundant clauses is sound, just less tidy.
_SUBSUMPTION_LIMIT = 2000


def _drop_subsumed(clauses: list[Clause]) -> list[Clause]:
    """Remove clauses that are supersets of another clause."""
    unique = list(set(clauses))
    if len(unique) > _SUBSUMPTION_LIMIT:
        return sorted(unique, key=str)
    if all(len(clause.predicates) == 1 for clause in unique):
        return unique  # distinct unit clauses never subsume each other
    kept: list[Clause] = []
    held: list[frozenset] = []
    # Sort by length so potential subsumers come first; each clause's
    # predicate set is built once.
    for clause in sorted(unique, key=len):
        members = frozenset(clause.predicates)
        if not any(subset <= members for subset in held):
            kept.append(clause)
            held.append(members)
    return kept
