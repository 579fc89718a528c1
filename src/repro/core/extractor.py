"""The access-area extractor: the paper's end-to-end per-query pipeline.

Section 4.5 / 6.6 describe four stages, each timed separately here:

1. **Parsing** — SQL text → AST (:mod:`repro.sqlparser`);
2. **Extraction** — AST → universal-relation constraint
   (:mod:`repro.core.transform`, :mod:`repro.core.aggregates`);
3. **CNF** — constraint → conjunctive normal form with the 35-predicate
   workaround (:mod:`repro.algebra.cnf`);
4. **Consolidation** — redundancy removal / merging / contradiction check
   (:mod:`repro.algebra.consolidate`).

The output is an :class:`~repro.core.area.AccessArea` whose relation list
is alias-resolved and alphabetically ordered.

Statements that differ only in their literals share a *shape*
(:func:`~repro.sqlparser.lexer.scan`), and for most shapes no literal
decides anything before the CNF's distribution: the relations, the
notes and the NNF constraint's tree are the same whatever the literals
hold, and only the constants in its predicates change.  An extractor
therefore holds, per shape, what extracting the shape's first statement
gave (a :class:`_HeldShape`).  When a second statement of the shape
arrives, the first is transformed once more to note where each
constant of its constraint came from; from then on a statement of the
shape binds its literals into that constraint and runs only the stages
that read the constants: distribution and canonicalization, the
placement check and consolidation.  Where the transform's outcome does
depend on a literal (constant folding, a LIKE wildcard), the held shape
re-checks it and hands a statement that decides otherwise to the full
pipeline; where re-checking would cost the transform itself (HAVING,
vacuous nested constructs), the shape is not held.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from ..algebra.boolexpr import TRUE, BoolExpr, Not, Or, make_and, make_or
from ..algebra.cnf import (DEFAULT_PREDICATE_CAP, nnf_to_cnf, nnf_within_cap,
                           to_cnf)
from ..obs import trace
from ..algebra.consolidate import consolidate as consolidate_cnf
from ..algebra.intervals import Interval
from ..algebra.nnf import to_nnf
from ..algebra.boolexpr import And, Atom
from ..algebra.predicates import ColumnConstantPredicate, ColumnRef, Op
from ..schema.database import Schema
from ..sqlparser import (LexError, SqlError, UnsupportedStatementError,
                          ast, parse)
from ..sqlparser.lexer import scan
from ..sqlparser.parser import ShapeMemo, slot_value
from .aggregates import (SUPPORTED_AGGREGATES, aggregate_constraint,
                         effective_domain)
from .area import AccessArea
from .context import ExtractionContext
from .transform import (_fold, _operand, condition_to_expr,
                        constants_compare, from_items_to_expr, has_wildcard,
                        numeric_text)

_OPS = {"<": Op.LT, "<=": Op.LE, "=": Op.EQ,
        ">": Op.GT, ">=": Op.GE, "<>": Op.NE}


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds spent in each pipeline stage (Section 6.6).

    A statement of a held shape reports its scan as ``parse`` and the
    binding of its literals as ``extract``."""

    parse: float = 0.0
    extract: float = 0.0
    cnf: float = 0.0
    consolidate: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.extract + self.cnf + self.consolidate


class ExtractionResult:
    """An extracted access area plus per-stage timings."""

    __slots__ = ("area", "timings", "span_id", "_statement", "_sql",
                 "_features")

    def __init__(self, area: AccessArea, timings: StageTimings,
                 statement: Optional[ast.SelectStatement] = None,
                 span_id: Optional[str] = None, *,
                 sql: Optional[str] = None,
                 features: Optional[frozenset[str]] = None) -> None:
        self.area = area
        self.timings = timings
        #: Span id of the ``query`` trace span (None when tracing is
        #: off); lets stage-latency histograms attach exemplars pointing
        #: at the exact trace subtree that produced a slow observation.
        self.span_id = span_id
        self._statement = statement
        self._sql = sql
        self._features = features

    @property
    def statement(self) -> Optional[ast.SelectStatement]:
        """The parsed statement.  A held shape answers without one, and
        it is parsed on first use."""
        if self._statement is None and self._sql is not None:
            self._statement = parse(self._sql)
        return self._statement

    @property
    def features(self) -> frozenset[str]:
        """The statement's structural feature tags
        (:func:`query_features`)."""
        if self._features is None:
            self._features = frozenset(query_features(self.statement))
        return self._features

    @property
    def exact(self) -> bool:
        """True when no widening approximation touched the area.

        Inexact areas are still sound over-sets, but their canonical
        fingerprints are not comparable across semantically equal
        queries — equality-based consumers (the differential oracle's
        metamorphic check, exact-match baselines) must skip them.
        """
        return self.area.exact


@dataclass
class AccessAreaExtractor:
    """Extracts access areas from SQL text.

    Parameters mirror the paper's knobs: ``predicate_cap`` is the CNF
    workaround limit (35 in the paper, ``None`` to disable) and
    ``consolidate`` toggles the Section 4.5 cleanup (an ablation target).

    :meth:`extract` holds the shapes of the statements it extracted
    (see the module docstring), for the schema and cap it held them
    under, built on first use.
    """

    schema: Optional[Schema] = None
    predicate_cap: Optional[int] = DEFAULT_PREDICATE_CAP
    consolidate: bool = True
    _shapes: Optional["_HeldShapes"] = field(
        default=None, init=False, repr=False, compare=False)

    def extract(self, sql: str) -> ExtractionResult:
        """Full pipeline on one SQL string.

        Raises the :mod:`repro.sqlparser.errors` exceptions on statements
        outside the grammar (among them a numeric constant the interval
        algebra cannot place, see :func:`refuse_unplaceable`), and
        :class:`~repro.algebra.cnf.CNFConversionError` when the CNF blows
        past resource limits — the paper's unparseable/pathological
        classes.
        """
        with trace.span("query") as query_span:
            start = time.perf_counter()
            span = query_span.span
            span_id = None if span is None else span.span_id
            try:
                key, literals = scanned = scan(sql)
            except LexError:
                key = scanned = None    # the parse below reports it
            shapes = self._shapes
            if shapes is None or shapes.schema is not self.schema or \
                    shapes.predicate_cap != self.predicate_cap:
                shapes = self._shapes = _HeldShapes(self.schema,
                                                    self.predicate_cap)
            held = shapes.get(key)
            if held is not None:
                result = self._extract_held(held, sql, literals, start,
                                            query_span, span_id)
                if result is not None:
                    return result
            with trace.span("parse"):
                statement = parse(sql, scanned=scanned)
            result = self.extract_statement(
                statement, time.perf_counter() - start, span_id)
            if held is None and key is not None and shapes.fits(len(sql)):
                shapes.hold(key, _HeldShape(result.area, sql, scanned))
            return result

    def extract_statement(self, statement: ast.SelectStatement,
                          parse_time: float = 0.0,
                          span_id: Optional[str] = None
                          ) -> ExtractionResult:
        start = time.perf_counter()
        with trace.span("extract"):
            ctx = ExtractionContext(self.schema)
            expr = self._statement_to_expr(statement, ctx)
        extract_time = time.perf_counter() - start

        start = time.perf_counter()
        with trace.span("cnf") as cnf_span:
            # The 35-predicate workaround truncates clauses during
            # distribution — a widening over-approximation.
            cnf = to_cnf(expr, max_predicates=self.predicate_cap,
                         on_truncate=lambda: ctx.approx(
                             f"predicate cap {self.predicate_cap} "
                             "truncated the CNF"))
            cnf_span.set(clauses=len(cnf))
        cnf_time = time.perf_counter() - start
        refuse_unplaceable(cnf.predicates())

        start = time.perf_counter()
        with trace.span("consolidate"):
            if self.consolidate:
                result = consolidate_cnf(cnf)
                cnf = result.cnf
        consolidate_time = time.perf_counter() - start

        area = AccessArea(tuple(ctx.relations), cnf, tuple(ctx.notes),
                          exact=ctx.exact)
        timings = StageTimings(parse_time, extract_time, cnf_time,
                               consolidate_time)
        return ExtractionResult(area, timings, statement, span_id=span_id)

    def _extract_held(self, held: "_HeldShape", sql: str,
                      literals: list[str], start: float, query_span,
                      span_id: Optional[str]
                      ) -> Optional[ExtractionResult]:
        """Extract ``sql`` from its held shape; ``None`` when one of its
        literals decides otherwise than the shape's first statement's
        did, or is one the grammar rejects: the full pipeline answers
        those."""
        scanned = time.perf_counter()
        try:
            answer = held.bind(literals, self)
        except SqlError:
            # A literal the parser or the transform refuses: the full
            # pipeline raises what it raises, in its own order.
            return None
        if answer is None:
            return None
        expr, relations, features = answer
        query_span.set(shape="held")
        bound = time.perf_counter()
        with trace.span("cnf") as cnf_span:
            cnf = nnf_to_cnf(expr)
            cnf_span.set(clauses=len(cnf))
        distributed = time.perf_counter()
        refuse_unplaceable(cnf.predicates())
        with trace.span("consolidate"):
            if self.consolidate:
                cnf = consolidate_cnf(cnf).cnf
        consolidated = time.perf_counter()
        area = AccessArea(relations, cnf, held.notes, exact=held.exact)
        timings = StageTimings(scanned - start, bound - scanned,
                               distributed - bound,
                               consolidated - distributed)
        return ExtractionResult(area, timings, span_id=span_id, sql=sql,
                                features=features)

    def _statement_to_expr(self, statement: ast.SelectStatement,
                           ctx: ExtractionContext) -> BoolExpr:
        join_expr = from_items_to_expr(statement.from_items, ctx)
        where_expr = TRUE
        if statement.where is not None:
            where_expr = condition_to_expr(statement.where, ctx)
        having_expr = TRUE
        if statement.having is not None:
            having_expr = having_to_expr(statement, where_expr, ctx)
        return make_and([join_expr, where_expr, having_expr])


# ---------------------------------------------------------------------------
# Held shapes: the constraint over literal slots
# ---------------------------------------------------------------------------

class _Slot(NamedTuple):
    """A column-constant predicate of a held shape, its constant still
    to be bound: ``value`` says where the constant comes from (see
    :func:`_value`), and ``coerce`` whether it meets a numeric column
    as a string (see :func:`~repro.core.transform._schema_coerce`).
    It negates as a predicate does, for :func:`~repro.algebra.nnf
    .to_nnf`."""

    ref: ColumnRef
    op: Op
    value: object
    coerce: bool

    def negate(self) -> "_Slot":
        return _Slot(self.ref, self.op.negate(), self.value, self.coerce)


class _Differs(Exception):
    """A constant expression that folded on a shape's first statement
    does not fold on this one (``x / 0``)."""


def _value(template: object, values: list) -> object:
    """The constant a template stands for, given the statement's
    literals as the parser converted them: a literal's place among
    them, ``(template,)`` for its negation, or ``(op, left, right)`` for
    a fold."""
    if type(template) is int:
        return values[template]
    if len(template) == 1:
        return -_value(template[0], values)
    op, left, right = template
    value = _fold(op, _value(left, values), _value(right, values))
    if value is None:
        raise _Differs
    return value


def _bound(expr: BoolExpr, values: list) -> BoolExpr:
    """The held NNF ``expr`` with every slot bound to its constant."""
    kind = type(expr)
    if kind is Atom:
        slot = expr.predicate
        if type(slot) is not _Slot:
            return expr
        value = _value(slot.value, values)
        if slot.coerce:
            value = numeric_text(value)
        return Atom(ColumnConstantPredicate(slot.ref, slot.op, value))
    if kind is And:
        return And(tuple([_bound(child, values) for child in expr.children]))
    if kind is Or:
        return Or(tuple([_bound(child, values) for child in expr.children]))
    return expr


class _ShapeRecorder:
    """Where the transform put the constants of a shape's first
    statement (the ``shape`` of its :class:`ExtractionContext`, in the
    pass :meth:`_HeldShape.bind` makes when a second statement
    arrives), and whether a literal decided anything a held shape could
    not re-check.

    ``origins`` is where the parser put each literal (see
    :func:`~repro.sqlparser.parse`) and ``rules`` each literal's rule;
    ``slots`` maps each atom built from a constant to the atom, its
    constant's template (see :func:`_value`) and whether it was coerced;
    ``comparisons`` and ``patterns`` are the decisions a later statement
    re-checks: constant comparisons that folded and LIKE patterns
    without a wildcard.
    """

    __slots__ = ("origins", "rules", "held", "slots", "comparisons",
                 "patterns")

    def __init__(self, origins: dict, rules: list) -> None:
        self.origins = origins
        self.rules = rules
        self.held = True
        self.slots: dict[int, tuple[Atom, object, bool]] = {}
        self.comparisons: list[tuple] = []
        self.patterns: list[int] = []

    @classmethod
    def of(cls, origins: dict, n_literals: int
           ) -> Optional["_ShapeRecorder"]:
        """A recorder for a statement of ``n_literals`` literals, or
        ``None`` when ``origins`` does not place every one of them."""
        rules: list = [None] * n_literals
        for _, placed in origins.values():
            for _, literal, rule in placed:
                rules[literal] = rule
        if None in rules:
            return None
        return cls(origins, rules)

    def unheld(self) -> None:
        """A literal decided something no held shape re-checks."""
        self.held = False

    def constant(self, leaf: Atom, source: ast.Expr, coerce: bool) -> None:
        """``leaf``'s constant is what ``source`` reduced to."""
        template = self._template(source)
        if template is not None:
            self.slots[id(leaf)] = (leaf, template, coerce)

    def pattern(self, leaf: Atom, like: ast.Like) -> None:
        """``leaf``'s constant is the wildcard-free pattern of ``like``."""
        literal = self._literal(like)
        if literal is not None:
            self.slots[id(leaf)] = (leaf, literal, False)
            self.patterns.append(literal)

    def negated(self, leaf: Atom, negated: BoolExpr) -> None:
        held = self.slots.get(id(leaf))
        if held is not None:
            self.slots[id(negated)] = (negated, held[1], held[2])

    def compared(self, left: ast.Expr, op: Op, right: ast.Expr,
                 holds: bool) -> None:
        """Two constant expressions compared, with outcome ``holds``."""
        left_template = self._template(left)
        right_template = self._template(right)
        if left_template is not None and right_template is not None:
            self.comparisons.append(
                (left_template, op, right_template, holds))

    def _literal(self, node: object) -> Optional[int]:
        origin = self.origins.get(id(node))
        if origin is None:
            self.held = False
            return None
        return origin[1][0][1]

    def _template(self, expr: ast.Expr) -> object:
        if isinstance(expr, ast.Literal):
            return self._literal(expr)
        if isinstance(expr, ast.UnaryMinus):
            inner = self._template(expr.operand)
            return None if inner is None else (inner,)
        if isinstance(expr, ast.Arithmetic):
            left = self._template(expr.left)
            right = self._template(expr.right)
            if left is None or right is None:
                return None
            return (expr.op, left, right)
        self.held = False
        return None

    def slotted(self, expr: BoolExpr, predicate_cap: Optional[int]
                ) -> Optional[BoolExpr]:
        """The NNF of ``expr`` after the cap, as :func:`~repro.algebra
        .cnf.to_cnf` converts it, with each atom built from a constant
        replaced by a :class:`_Slot` one; ``None`` if one was built
        without a record."""
        slotted = self._slotted(expr)
        return None if slotted is None else \
            nnf_within_cap(slotted, predicate_cap)[0]

    def _slotted(self, expr: BoolExpr) -> Optional[BoolExpr]:
        kind = type(expr)
        if kind is Atom:
            held = self.slots.get(id(expr))
            if held is not None:
                leaf, template, coerce = held
                pred = leaf.predicate
                return Atom(_Slot(pred.ref, pred.op, template, coerce))
            if isinstance(expr.predicate, ColumnConstantPredicate):
                return None
            return expr
        if kind is Not:
            child = self._slotted(expr.child)
            return None if child is None else Not(child)
        if kind is And or kind is Or:
            children = []
            for child in expr.children:
                child = self._slotted(child)
                if child is None:
                    return None
                children.append(child)
            return kind(tuple(children))
        return expr


#: What :meth:`_HeldShape._record` gives for a shape no held shape
#: answers: no constraint, rules, comparisons, patterns, relations or
#: features.
_UNHELD: tuple = (None, (), (), (), (), frozenset())


class _HeldShape:
    """What extracting a shape's first statement gave: the area's
    notes (the cap's among them) and exactness, and ``size``, the
    statement's length.  A shape seen once holds nothing more, and its
    first statement costs no more than the full pipeline.  When a
    second statement binds, the first is parsed and transformed again
    with a :class:`_ShapeRecorder`, which gives the NNF constraint
    after the cap over :class:`_Slot` predicates, each literal's parser
    rule, the decisions to re-check, the area's relations and the
    structural features :class:`~repro.core.stream.StreamMonitor`
    reads.  The relations and the predicates' column references come
    from that one pass, so an area shares its strings as the full
    pipeline's does, and pickles to the same bytes."""

    __slots__ = ("notes", "exact", "size", "_first", "_held")

    def __init__(self, area: AccessArea, sql: str,
                 scanned: tuple[str, list[str]]) -> None:
        """The shape of ``sql``, which :func:`~repro.sqlparser.lexer
        .scan` reads as ``scanned`` and which extracted to ``area``."""
        self.notes = area.notes
        self.exact = area.exact
        self.size = len(sql)
        self._first = (sql, scanned)
        self._held: Optional[tuple] = None

    def bind(self, literals: list[str], extractor: AccessAreaExtractor
             ) -> Optional[tuple[BoolExpr, tuple[str, ...],
                                 frozenset[str]]]:
        """The NNF constraint of this shape's statement with
        ``literals``, its area's relations and its structural features;
        ``None`` when one of the literals decides otherwise, or when the
        shape's first statement let a literal decide what no held shape
        re-checks.  Raises where the parser or the transform would
        refuse one.  ``extractor`` is the one that holds the shape."""
        held = self._held
        if held is None:
            held = self._held = self._record(extractor)
        expr, rules, comparisons, patterns, relations, features = held
        if expr is None:
            return None
        values = [slot_value(text, rule)
                  for text, rule in zip(literals, rules)]
        try:
            for literal in patterns:
                if has_wildcard(values[literal]):
                    return None
            for left, op, right, holds in comparisons:
                if constants_compare(_value(left, values), op,
                                     _value(right, values)) != holds:
                    return None
            return _bound(expr, values), relations, features
        except _Differs:
            return None

    def _record(self, extractor: AccessAreaExtractor) -> tuple:
        """Transform the shape's first statement again, recording where
        its constants went."""
        sql, scanned = self._first
        origins: dict = {}
        statement = parse(sql, scanned=scanned, slots=origins)
        recorder = _ShapeRecorder.of(origins, len(scanned[1]))
        if recorder is None:
            return _UNHELD
        ctx = ExtractionContext(extractor.schema, shape=recorder)
        expr = extractor._statement_to_expr(statement, ctx)
        if not recorder.held:
            return _UNHELD
        return (recorder.slotted(expr, extractor.predicate_cap),
                tuple(recorder.rules), tuple(recorder.comparisons),
                tuple(recorder.patterns), tuple(ctx.relations),
                frozenset(query_features(statement)))


class _HeldShapes(ShapeMemo):
    """An extractor's held shapes (:class:`_HeldShape`), for the
    ``schema`` and ``predicate_cap`` they were held under."""

    def __init__(self, schema: Optional[Schema],
                 predicate_cap: Optional[int]) -> None:
        super().__init__()
        self.schema = schema
        self.predicate_cap = predicate_cap


# ---------------------------------------------------------------------------
# Structural features
# ---------------------------------------------------------------------------

def query_features(statement: ast.SelectStatement) -> set[str]:
    """The structural feature tags of one statement."""
    features: set[str] = set()
    if statement.group_by:
        features.add("group-by")
    if statement.having is not None:
        features.add("having")
    if statement.top is not None:
        features.add("top")
    if statement.distinct:
        features.add("distinct")
    if statement.order_by:
        features.add("order-by")
    for item in statement.from_items:
        if _has_outer_join(item):
            features.add("outer-join")
    if statement.where is not None:
        features.update(_condition_features(statement.where))
    return features


def _has_outer_join(item: ast.FromItem) -> bool:
    if isinstance(item, ast.Join):
        if item.join_type in (ast.JoinType.LEFT, ast.JoinType.RIGHT,
                              ast.JoinType.FULL):
            return True
        return _has_outer_join(item.left) or _has_outer_join(item.right)
    return False


def _condition_features(cond: ast.Condition) -> set[str]:
    features: set[str] = set()
    stack = [cond]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.AndCondition, ast.OrCondition)):
            stack.extend(node.children)
        elif isinstance(node, ast.NotCondition):
            stack.append(node.child)
        elif isinstance(node, (ast.Exists, ast.InSubquery,
                               ast.QuantifiedComparison)):
            features.add("nested-subquery")
        elif isinstance(node, ast.InList):
            features.add("in-list")
        elif isinstance(node, ast.Between):
            features.add("between")
        elif isinstance(node, ast.Like):
            features.add("like")
        elif isinstance(node, ast.Comparison):
            if isinstance(node.right, ast.ScalarSubquery) or \
                    isinstance(node.left, ast.ScalarSubquery):
                features.add("nested-subquery")
    return features


# ---------------------------------------------------------------------------
# HAVING handling (Section 4.3) — lives here because it needs both the
# transform machinery and the WHERE constraint for effective domains.
# ---------------------------------------------------------------------------

def having_to_expr(statement: ast.SelectStatement, where_expr: BoolExpr,
                   ctx: ExtractionContext) -> BoolExpr:
    """Map a HAVING clause to its access-area constraint."""
    if ctx.shape is not None:
        ctx.shape.unheld()  # the Lemma 1-3 sign tests read the constants
    footprints = _conjunctive_footprints(where_expr)
    return _having_condition(statement.having, statement, footprints, ctx)


def _having_condition(cond: ast.Condition, statement: ast.SelectStatement,
                      footprints: dict[ColumnRef, Interval],
                      ctx: ExtractionContext) -> BoolExpr:
    if isinstance(cond, ast.AndCondition):
        return make_and(_having_condition(c, statement, footprints, ctx)
                        for c in cond.children)
    if isinstance(cond, ast.OrCondition):
        return make_or(_having_condition(c, statement, footprints, ctx)
                       for c in cond.children)
    if isinstance(cond, ast.NotCondition):
        return _negated_having(cond.child, statement, footprints, ctx)
    if isinstance(cond, ast.Comparison):
        mapped = _having_comparison(cond, footprints, ctx)
        if mapped is not None:
            return mapped
    if isinstance(cond, ast.Between) and _is_aggregate_call(cond.expr):
        if cond.negated:
            # AGG(a) NOT BETWEEN c1 AND c2 ≡ AGG < c1 OR AGG > c2: each
            # side maps through its own lemma rule.  Negating the mapped
            # BETWEEN constraint instead would be unsound — the lemma
            # output is an influence area, not complement-compatible.
            low = _having_comparison(
                ast.Comparison(cond.expr, "<", cond.low), footprints, ctx)
            high = _having_comparison(
                ast.Comparison(cond.expr, ">", cond.high), footprints, ctx)
            return make_or([expr for expr in (low, high)
                            if expr is not None])
        # HAVING AGG(a) BETWEEN c1 AND c2 → the two bound comparisons.
        low = _having_comparison(
            ast.Comparison(cond.expr, ">=", cond.low), footprints, ctx)
        high = _having_comparison(
            ast.Comparison(cond.expr, "<=", cond.high), footprints, ctx)
        return make_and([expr for expr in (low, high)
                         if expr is not None])
    # Plain (non-aggregate) HAVING conditions behave like WHERE conditions.
    return condition_to_expr(cond, ctx)


def _negated_having(cond: ast.Condition, statement: ast.SelectStatement,
                    footprints: dict[ColumnRef, Interval],
                    ctx: ExtractionContext) -> BoolExpr:
    """``HAVING NOT <cond>`` — negation pushed *into* the SQL condition.

    The Lemma mappings produce influence areas, which are not symmetric
    under complement: ``make_not`` over a mapped constraint (often TRUE,
    e.g. ``SUM(v) > c`` on a mixed-sign domain) would yield FALSE — a
    shrunken area, unsound.  Instead the negation is applied at the SQL
    level (``NOT (SUM(v) > c)`` ≡ ``SUM(v) <= c``) and the complementary
    comparison is mapped by its own lemma rule.
    """
    if isinstance(cond, ast.NotCondition):
        return _having_condition(cond.child, statement, footprints, ctx)
    if isinstance(cond, ast.AndCondition):
        return make_or(_negated_having(c, statement, footprints, ctx)
                       for c in cond.children)
    if isinstance(cond, ast.OrCondition):
        return make_and(_negated_having(c, statement, footprints, ctx)
                        for c in cond.children)
    if isinstance(cond, ast.Comparison) and (
            _is_aggregate_call(cond.left)
            or _is_aggregate_call(cond.right)):
        op = _OPS.get(cond.op)
        if op is None:
            ctx.approx(f"unknown negated HAVING operator {cond.op}")
            return TRUE
        negated = ast.Comparison(cond.left, op.negate().value, cond.right)
        mapped = _having_comparison(negated, footprints, ctx)
        if mapped is not None:
            return mapped
        return TRUE
    if isinstance(cond, ast.Between) and _is_aggregate_call(cond.expr):
        flipped = ast.Between(cond.expr, cond.low, cond.high,
                              negated=not cond.negated)
        return _having_condition(flipped, statement, footprints, ctx)
    # Non-aggregate conditions negate like WHERE conditions (with the
    # widening guards of transform._not_to_expr).
    return condition_to_expr(ast.NotCondition(cond), ctx)


def _having_comparison(cond: ast.Comparison,
                       footprints: dict[ColumnRef, Interval],
                       ctx: ExtractionContext) -> BoolExpr | None:
    """``AGG(a) θ c`` → the Lemma mapping; None when not an aggregate."""
    left, op_text, right = cond.left, cond.op, cond.right
    if _is_aggregate_call(right) and not _is_aggregate_call(left):
        left, right = right, left
        op_text = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
            op_text, op_text)
    if not _is_aggregate_call(left):
        return None
    call = left
    assert isinstance(call, ast.FunctionCall)
    constant = _operand(right, ctx)
    if not isinstance(constant, (int, float)) or isinstance(constant, bool):
        ctx.approx("non-constant aggregate comparison widened to TRUE")
        return TRUE
    op = _OPS.get(op_text)
    if op is None:
        ctx.approx(f"unknown aggregate comparison operator {op_text}")
        return TRUE

    ref: ColumnRef | None = None
    if call.args and not isinstance(call.args[0], ast.Star):
        operand = _operand(call.args[0], ctx)
        if isinstance(operand, ColumnRef):
            ref = operand
    if ref is not None and not _in_from(ref, ctx):
        # "we check if a belongs to some relation in the FROM clause.
        #  If it does not, we ignore it."
        ctx.approx(f"aggregate over column {ref} outside FROM ignored")
        return TRUE

    declared = _declared_domain(ref, ctx)
    where_fp = footprints.get(ref) if ref is not None else None
    dom = effective_domain(declared, where_fp)
    return aggregate_constraint(call.upper_name, ref, op, constant, dom)


def _is_aggregate_call(expr: ast.Expr) -> bool:
    return (isinstance(expr, ast.FunctionCall)
            and expr.upper_name in SUPPORTED_AGGREGATES)


def _in_from(ref: ColumnRef, ctx: ExtractionContext) -> bool:
    return ref.relation.lower() in (r.lower() for r in ctx.relations)


def _declared_domain(ref: ColumnRef | None,
                     ctx: ExtractionContext) -> Interval | None:
    if ref is None or ctx.schema is None:
        return None
    if not ctx.schema.has_relation(ref.relation):
        return None
    column = ctx.schema.relation(ref.relation).find_column(ref.column)
    if column is None or not column.is_numeric:
        return None
    return column.effective_domain


def _conjunctive_footprints(
        where_expr: BoolExpr) -> dict[ColumnRef, Interval]:
    """Single-interval footprint per column from top-level AND atoms.

    This is the WHERE narrowing that upgrades Lemma 1 to Lemmas 2/3.
    Disjunctive structure is ignored (conservative: wider domains only
    make the aggregate rules *less* constraining).
    """
    expr = to_nnf(where_expr)
    atoms: list[ColumnConstantPredicate] = []
    if isinstance(expr, Atom):
        candidates = [expr]
    elif isinstance(expr, And):
        candidates = [c for c in expr.children if isinstance(c, Atom)]
    else:
        candidates = []
    for leaf in candidates:
        pred = leaf.predicate
        if isinstance(pred, ColumnConstantPredicate) and pred.is_numeric:
            atoms.append(pred)
    refuse_unplaceable(atoms)

    footprints: dict[ColumnRef, Interval] = {}
    for pred in atoms:
        hull = pred.to_interval_set().hull()
        if hull is None:
            continue
        if pred.ref in footprints:
            narrowed = footprints[pred.ref].intersect(hull)
            if narrowed is not None:
                footprints[pred.ref] = narrowed
        else:
            footprints[pred.ref] = hull
    return footprints


#: per infinity, the ops that cannot place a constant there: a ray that
#: starts there (an empty set, which
#: :class:`~repro.algebra.intervals.Interval` cannot hold) and a point
#: at it.
_UNPLACEABLE = {math.inf: (Op.GT, Op.GE, Op.NE, Op.EQ),
                -math.inf: (Op.LT, Op.LE, Op.NE, Op.EQ)}


def refuse_unplaceable(predicates: Iterable) -> None:
    """Refuse a numeric constant the interval algebra cannot place on
    the number line: an integer beyond the float range, an infinity
    that starts a ray (``ra > 1e400``) or a point at an infinity
    (``ra = 1e400``).  SQL Server refuses such a literal too.  A ray
    towards an infinity (``ra < 1e400``) places."""
    for pred in predicates:
        if not (isinstance(pred, ColumnConstantPredicate)
                and pred.is_numeric):
            continue
        value = pred.value
        if isinstance(value, float):
            if pred.op not in _UNPLACEABLE.get(value, ()):
                continue
            constant = str(value)
        else:
            try:
                float(value)
                continue
            except OverflowError:
                constant = f"an integer of {value.bit_length()} bits"
        raise UnsupportedStatementError(
            f"constant off the number line ({pred.ref} {pred.op} "
            f"{constant})")
