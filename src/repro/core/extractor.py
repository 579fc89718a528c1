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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..algebra.boolexpr import TRUE, BoolExpr, make_and, make_not, make_or
from ..algebra.cnf import CNF, DEFAULT_PREDICATE_CAP, to_cnf
from ..obs import trace
from ..algebra.consolidate import consolidate as consolidate_cnf
from ..algebra.intervals import Interval
from ..algebra.nnf import to_nnf
from ..algebra.boolexpr import And, Atom
from ..algebra.predicates import ColumnConstantPredicate, ColumnRef, Op
from ..schema.database import Schema
from ..sqlparser import UnsupportedStatementError, ast, parse
from .aggregates import (SUPPORTED_AGGREGATES, aggregate_constraint,
                         effective_domain)
from .area import AccessArea
from .context import ExtractionContext
from .transform import condition_to_expr, from_items_to_expr, _operand

_OPS = {"<": Op.LT, "<=": Op.LE, "=": Op.EQ,
        ">": Op.GT, ">=": Op.GE, "<>": Op.NE}


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds spent in each pipeline stage (Section 6.6)."""

    parse: float = 0.0
    extract: float = 0.0
    cnf: float = 0.0
    consolidate: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.extract + self.cnf + self.consolidate


@dataclass(frozen=True)
class ExtractionResult:
    """An extracted access area plus per-stage timings."""

    area: AccessArea
    timings: StageTimings
    statement: Optional[ast.SelectStatement] = None
    #: Span id of the ``query`` trace span (None when tracing is off);
    #: lets stage-latency histograms attach exemplars pointing at the
    #: exact trace subtree that produced a slow observation.
    span_id: Optional[str] = None

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
    """

    schema: Optional[Schema] = None
    predicate_cap: Optional[int] = DEFAULT_PREDICATE_CAP
    consolidate: bool = True

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
            with trace.span("parse"):
                statement = parse(sql)
            parse_time = time.perf_counter() - start
            span = query_span.span
            return self.extract_statement(
                statement, parse_time,
                span_id=None if span is None else span.span_id)

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
            if self.predicate_cap is not None and \
                    to_nnf(expr).count_atoms() > self.predicate_cap:
                # The 35-predicate workaround truncates clauses during
                # distribution — a widening over-approximation.
                ctx.approx(f"predicate cap {self.predicate_cap} "
                           "truncated the CNF")
            cnf = to_cnf(expr, max_predicates=self.predicate_cap)
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
# HAVING handling (Section 4.3) — lives here because it needs both the
# transform machinery and the WHERE constraint for effective domains.
# ---------------------------------------------------------------------------

def having_to_expr(statement: ast.SelectStatement, where_expr: BoolExpr,
                   ctx: ExtractionContext) -> BoolExpr:
    """Map a HAVING clause to its access-area constraint."""
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
