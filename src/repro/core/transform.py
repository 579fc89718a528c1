"""AST → Boolean-constraint transformation (Sections 4.1, 4.2, 4.4).

This module turns a parsed SELECT statement's FROM and WHERE structure
into a constraint over the universal relation:

* **simple predicates** — comparisons, BETWEEN (split into two bounds),
  IN-lists (OR of equalities), NOT (operator inversion downstream);
* **joins** — CROSS / INNER / NATURAL push their condition into the
  constraint; FULL OUTER drops it (Example 2); LEFT / RIGHT OUTER reduce
  to the nested-IN form whose flattening lands back on the join condition
  (Example 3 + Lemma 4);
* **nested queries** — EXISTS / IN / ANY / ALL / scalar subqueries are
  flattened by adding the subquery's relations to the universal relation
  and splicing its constraint in place (Lemmas 4–6, Example 4).
  AND/OR-connected EXISTS over the same relation are grouped and their
  constraints OR-ed, which is what makes Lemma 5 come out right instead
  of a false contradiction;
* **approximations** — constructs whose exact predicate cannot be
  represented by column-constant/column-column atoms (arithmetic over
  columns, UDF calls, LIKE with wildcards, NOT EXISTS/NOT IN) are widened
  to TRUE (a conservative over-approximation) or handled by influence
  symmetry, with a note recorded on the context.
"""

from __future__ import annotations

from typing import Optional, Union

from ..algebra.boolexpr import (FALSE, TRUE, Atom, BoolExpr, atom,
                                make_and, make_not, make_or)
from ..algebra.coercion import parse_number
from ..algebra.predicates import (ColumnColumnPredicate,
                                  ColumnConstantPredicate, ColumnRef,
                                  Constant, Op)
from ..sqlparser import UnsupportedStatementError, ast
from .context import ExtractionContext

_OPS = {"<": Op.LT, "<=": Op.LE, "=": Op.EQ,
        ">": Op.GT, ">=": Op.GE, "<>": Op.NE}

Operand = Union[ColumnRef, int, float, str, bool, None]


# ---------------------------------------------------------------------------
# FROM clause (Section 4.2)
# ---------------------------------------------------------------------------

def from_items_to_expr(items: tuple[ast.FromItem, ...],
                       ctx: ExtractionContext) -> BoolExpr:
    """Register FROM relations and return the join constraint."""
    parts: list[BoolExpr] = []
    for item in items:
        parts.append(_from_item(item, ctx))
    return make_and(parts)


def _from_item(item: ast.FromItem, ctx: ExtractionContext) -> BoolExpr:
    if isinstance(item, ast.TableRef):
        ctx.register_table(item.name, item.alias)
        return TRUE
    return _join(item, ctx)


def _join(join: ast.Join, ctx: ExtractionContext) -> BoolExpr:
    left = _from_item(join.left, ctx)
    right = _from_item(join.right, ctx)
    jt = join.join_type

    if jt is ast.JoinType.FULL:
        # Example 2: FULL OUTER JOIN keeps every tuple of both sides, so
        # there is no constraint on U — the ON condition is dropped.
        return make_and([left, right])

    if jt is ast.JoinType.NATURAL:
        condition = _natural_condition(join, ctx)
        return make_and([left, right, condition])

    if jt is ast.JoinType.CROSS or join.condition is None:
        return make_and([left, right])

    # INNER keeps the condition directly; LEFT/RIGHT route through the
    # nested-IN equivalence of Example 3, whose Lemma-4 flattening yields
    # the very same condition — so the net transformation is identical.
    condition = condition_to_expr(join.condition, ctx)
    return make_and([left, right, condition])


def _natural_condition(join: ast.Join, ctx: ExtractionContext) -> BoolExpr:
    """Equate the common columns of the two sides of a NATURAL JOIN."""
    if ctx.schema is None:
        ctx.approx("NATURAL JOIN without schema: no condition derivable")
        return TRUE
    left_rels = _relations_of_item(join.left, ctx)
    right_rels = _relations_of_item(join.right, ctx)
    parts: list[BoolExpr] = []
    for lrel in left_rels:
        for rrel in right_rels:
            if not (ctx.schema.has_relation(lrel)
                    and ctx.schema.has_relation(rrel)):
                continue
            lcols = {c.name.lower() for c in ctx.schema.relation(lrel)}
            rcols = {c.name.lower() for c in ctx.schema.relation(rrel)}
            for name in sorted(lcols & rcols):
                parts.append(atom(ColumnColumnPredicate(
                    ColumnRef(lrel, name), Op.EQ, ColumnRef(rrel, name))))
    if not parts:
        ctx.note("NATURAL JOIN with no common columns")
    return make_and(parts)


def _relations_of_item(item: ast.FromItem,
                       ctx: ExtractionContext) -> list[str]:
    if isinstance(item, ast.TableRef):
        return [ctx.canonical_relation(item.name)]
    return (_relations_of_item(item.left, ctx)
            + _relations_of_item(item.right, ctx))


# ---------------------------------------------------------------------------
# Conditions (Sections 4.1 and 4.4)
# ---------------------------------------------------------------------------

def condition_to_expr(cond: ast.Condition,
                      ctx: ExtractionContext) -> BoolExpr:
    """Convert a condition tree into the constraint Boolean expression."""
    if isinstance(cond, (ast.AndCondition, ast.OrCondition)):
        return _connective_to_expr(cond, ctx)
    if isinstance(cond, ast.NotCondition):
        return _not_to_expr(cond, ctx)
    if isinstance(cond, ast.Comparison):
        return _comparison_to_expr(cond, ctx)
    if isinstance(cond, ast.Between):
        return _between_to_expr(cond, ctx)
    if isinstance(cond, ast.InList):
        return _in_list_to_expr(cond, ctx)
    if isinstance(cond, ast.InSubquery):
        return _in_subquery_to_expr(cond, ctx)
    if isinstance(cond, ast.Exists):
        return flatten_subquery(cond.query, ctx,
                                negated=cond.negated)
    if isinstance(cond, ast.QuantifiedComparison):
        return _quantified_to_expr(cond, ctx)
    if isinstance(cond, ast.Like):
        return _like_to_expr(cond, cond.negated, ctx)
    if isinstance(cond, ast.IsNull):
        # NULL membership does not restrict the value space we model.
        ctx.approx("IS NULL predicate widened to TRUE")
        return TRUE
    ctx.approx(f"unsupported condition {type(cond).__name__} widened")
    return TRUE


def _connective_to_expr(cond: ast.Condition,
                        ctx: ExtractionContext) -> BoolExpr:
    """AND/OR with the EXISTS-grouping rule of Section 4.4.

    Sibling EXISTS subqueries over the same relation set contribute ONE
    occurrence of that relation to U, so their constraints must be OR-ed
    (any tuple satisfying either influences the result).  Without the
    grouping, ``EXISTS(S.v < b) AND EXISTS(S.v > g)`` would wrongly
    conjoin into a contradiction — the situation Lemma 5 resolves.
    """
    is_and = isinstance(cond, ast.AndCondition)
    children = cond.children if isinstance(
        cond, (ast.AndCondition, ast.OrCondition)) else (cond,)

    groups: dict[frozenset[str], list[BoolExpr]] = {}
    rest: list[BoolExpr] = []
    for child in children:
        exists = _as_exists(child)
        if exists is not None:
            relations = _subquery_relation_key(exists.query, ctx)
            constraint = flatten_subquery(exists.query, ctx,
                                          negated=exists.negated)
            groups.setdefault(relations, []).append(constraint)
        else:
            rest.append(condition_to_expr(child, ctx))

    grouped = [make_or(constraints) for constraints in groups.values()]
    parts = rest + grouped
    return make_and(parts) if is_and else make_or(parts)


def _as_exists(cond: ast.Condition) -> Optional[ast.Exists]:
    if isinstance(cond, ast.Exists):
        return cond
    if isinstance(cond, ast.NotCondition) and \
            isinstance(cond.child, ast.Exists):
        inner = cond.child
        return ast.Exists(inner.query, negated=not inner.negated)
    return None


def _subquery_relation_key(stmt: ast.SelectStatement,
                           ctx: ExtractionContext) -> frozenset[str]:
    return frozenset(
        ctx.canonical_relation(ref.name).lower()
        for ref in stmt.table_refs())


def _not_to_expr(cond: ast.NotCondition,
                 ctx: ExtractionContext) -> BoolExpr:
    """NOT is pushed through condition connectives BEFORE conversion.

    Flattened subquery constraints describe which tuples of the added
    relations can influence the result — a property that is symmetric
    under negation — so NOT must never reach them.  De Morgan at the
    condition level routes every negation either to plain predicates
    (operator inversion) or to the influence-symmetric subquery cases.
    """
    child = cond.child
    if isinstance(child, ast.Exists):
        ctx.note("NOT EXISTS flattened via influence symmetry")
        return flatten_subquery(child.query, ctx, negated=not child.negated)
    if isinstance(child, ast.InSubquery):
        return _in_subquery_to_expr(
            ast.InSubquery(child.expr, child.query, not child.negated),
            ctx)
    if isinstance(child, ast.QuantifiedComparison):
        ctx.note("NOT over quantified comparison flattened via "
                 "influence symmetry")
        return _quantified_to_expr(child, ctx, under_not=True)
    if isinstance(child, ast.NotCondition):
        return condition_to_expr(child.child, ctx)
    if isinstance(child, ast.AndCondition):
        return make_or(
            _not_to_expr(ast.NotCondition(grandchild), ctx)
            for grandchild in child.children)
    if isinstance(child, ast.OrCondition):
        return make_and(
            _not_to_expr(ast.NotCondition(grandchild), ctx)
            for grandchild in child.children)
    if isinstance(child, ast.Comparison) and (
            isinstance(child.right, ast.ScalarSubquery)
            or isinstance(child.left, ast.ScalarSubquery)):
        # Negate the link operator only; the subquery's own constraint is
        # influence-symmetric and survives as-is.
        negated_op = _OPS[child.op].negate()
        op_text = {Op.LT: "<", Op.LE: "<=", Op.EQ: "=", Op.GT: ">",
                   Op.GE: ">=", Op.NE: "<>"}[negated_op]
        return _comparison_to_expr(
            ast.Comparison(child.left, op_text, child.right), ctx)
    if isinstance(child, ast.Like):
        # Flip the LIKE's own negation flag; wildcard patterns still
        # widen to TRUE inside, which stays sound under this rewrite.
        return _like_to_expr(child, not child.negated, ctx)
    if isinstance(child, ast.IsNull):
        # IS [NOT] NULL widens either way; negating TRUE would be FALSE —
        # a *shrunken* area — so route through the widening case instead.
        return condition_to_expr(
            ast.IsNull(child.expr, not child.negated), ctx)
    # Fallback: safe only when the child converted exactly.  A widened
    # child means `inner` is an over-set of the child's constraint, so
    # NOT inner would *under*-approximate — re-widen to TRUE instead.
    before = ctx.widening_count
    inner = condition_to_expr(child, ctx)
    if ctx.widening_count > before:
        ctx.approx("NOT over widened condition re-widened to TRUE")
        return TRUE
    return _negation(inner, ctx)


def _negation(expr: BoolExpr, ctx: ExtractionContext) -> BoolExpr:
    """``make_not(expr)``; a negated atom keeps its constant's source
    for the shape being recorded."""
    negated = make_not(expr)
    if ctx.shape is not None and isinstance(expr, Atom):
        ctx.shape.negated(expr, negated)
    return negated


def _comparison_to_expr(cond: ast.Comparison,
                        ctx: ExtractionContext) -> BoolExpr:
    op = _OPS.get(cond.op)
    if op is None:
        ctx.approx(f"unknown comparison operator {cond.op}")
        return TRUE

    if isinstance(cond.right, ast.ScalarSubquery):
        return _scalar_subquery_to_expr(cond.left, op, cond.right.query, ctx)
    if isinstance(cond.left, ast.ScalarSubquery):
        return _scalar_subquery_to_expr(
            cond.right, op.flip(), cond.left.query, ctx)

    left = _operand(cond.left, ctx)
    right = _operand(cond.right, ctx)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        return atom(ColumnColumnPredicate(left, op, right))
    if isinstance(left, ColumnRef) and _is_constant(right):
        return _constant_atom(left, op, right, cond.right, ctx)
    if _is_constant(left) and isinstance(right, ColumnRef):
        return _constant_atom(right, op.flip(), left, cond.left, ctx)
    if _is_constant(left) and _is_constant(right):
        # Constant folding: e.g. WHERE 1 = 1.
        holds = constants_compare(left, op, right)
        if ctx.shape is not None:
            ctx.shape.compared(cond.left, op, cond.right, holds)
        return TRUE if holds else FALSE
    ctx.approx("non-atomic comparison widened to TRUE")
    return TRUE


def constants_compare(left: Constant, op: Op, right: Constant) -> bool:
    """Whether the comparison of two constants holds."""
    return ColumnConstantPredicate(ColumnRef("", ""), op,
                                   right).evaluate(left)


def _constant_atom(ref: ColumnRef, op: Op, value: Constant,
                   source: ast.Expr, ctx: ExtractionContext) -> Atom:
    """The atom ``ref op value``, where ``value`` is what the constant
    expression ``source`` reduced to."""
    leaf = atom(ColumnConstantPredicate(
        ref, op, _schema_coerce(ref, value, ctx)))
    if ctx.shape is not None:
        ctx.shape.constant(leaf, source, isinstance(value, str)
                           and _numeric_column(ref, ctx))
    return leaf


def _between_to_expr(cond: ast.Between,
                     ctx: ExtractionContext) -> BoolExpr:
    """BETWEEN splits into the two bound predicates (Section 4.1)."""
    ref = _operand(cond.expr, ctx)
    low = _operand(cond.low, ctx)
    high = _operand(cond.high, ctx)
    if not isinstance(ref, ColumnRef) or not _is_constant(low) \
            or not _is_constant(high):
        ctx.approx("non-atomic BETWEEN widened to TRUE")
        return TRUE
    expr = make_and([_constant_atom(ref, Op.GE, low, cond.low, ctx),
                     _constant_atom(ref, Op.LE, high, cond.high, ctx)])
    return make_not(expr) if cond.negated else expr


def _in_list_to_expr(cond: ast.InList,
                     ctx: ExtractionContext) -> BoolExpr:
    ref = _operand(cond.expr, ctx)
    if not isinstance(ref, ColumnRef):
        ctx.approx("non-column IN list widened to TRUE")
        return TRUE
    parts: list[BoolExpr] = []
    for value_expr in cond.values:
        value = _operand(value_expr, ctx)
        if _is_constant(value):
            parts.append(_constant_atom(ref, Op.EQ, value, value_expr, ctx))
        else:
            ctx.approx("non-constant IN member widened")
            return TRUE
    expr = make_or(parts)
    return _negation(expr, ctx) if cond.negated else expr


def _in_subquery_to_expr(cond: ast.InSubquery,
                         ctx: ExtractionContext) -> BoolExpr:
    """``x IN (SELECT y FROM ...)`` ≡ ``EXISTS(... WHERE y = x)``."""
    if cond.negated:
        ctx.note("NOT IN flattened via influence symmetry")
    return flatten_subquery(cond.query, ctx, link=(cond.expr, Op.EQ),
                            negated=cond.negated)


def _quantified_to_expr(cond: ast.QuantifiedComparison,
                        ctx: ExtractionContext,
                        under_not: bool = False) -> BoolExpr:
    """ANY/ALL flatten like IN but keep the comparison operator.

    For ALL this keeps the user's comparison as-is — an approximation
    aimed at intent capture (the boundary tuples differ only in operator
    closure).  ALL (and NOT over ANY) holds vacuously on an empty
    subquery, so those forms pass ``vacuous_truth`` down.
    """
    op = _OPS.get(cond.op, Op.EQ)
    if cond.quantifier == "ALL":
        ctx.approx("ALL quantifier approximated by ANY-style flattening")
    vacuous = (cond.quantifier == "ALL") != under_not
    return flatten_subquery(cond.query, ctx, link=(cond.expr, op),
                            vacuous_truth=vacuous)


def _scalar_subquery_to_expr(outer_expr: ast.Expr, op: Op,
                             query: ast.SelectStatement,
                             ctx: ExtractionContext) -> BoolExpr:
    """Implicit nesting: ``T.u = (SELECT S.u FROM S WHERE ...)``."""
    return flatten_subquery(query, ctx, link=(outer_expr, op))


def _like_to_expr(cond: ast.Like, negated: bool,
                  ctx: ExtractionContext) -> BoolExpr:
    """``cond``, or its negation when ``negated`` differs from
    ``cond.negated``."""
    ref = _operand(cond.expr, ctx)
    if not isinstance(ref, ColumnRef):
        ctx.approx("non-column LIKE widened to TRUE")
        return TRUE
    if not has_wildcard(cond.pattern):
        # Wildcard-free LIKE is an equality on a categorical column.
        op = Op.NE if negated else Op.EQ
        leaf = atom(ColumnConstantPredicate(ref, op, cond.pattern))
        if ctx.shape is not None:
            ctx.shape.pattern(leaf, cond)
        return leaf
    if ctx.shape is not None:
        ctx.shape.unheld()  # the note quotes the pattern
    ctx.approx(f"LIKE pattern {cond.pattern!r} widened to TRUE")
    return TRUE


def has_wildcard(pattern: str) -> bool:
    return "%" in pattern or "_" in pattern


# ---------------------------------------------------------------------------
# Subquery flattening (Section 4.4, Lemmas 4-6, Example 4)
# ---------------------------------------------------------------------------

def flatten_subquery(stmt: ast.SelectStatement, ctx: ExtractionContext,
                     link: Optional[tuple[ast.Expr, Op]] = None,
                     negated: bool = False,
                     vacuous_truth: Optional[bool] = None) -> BoolExpr:
    """Flatten a nested query into a constraint on the enlarged U.

    The subquery's relations join the universal relation; its WHERE (and
    join conditions) become the returned constraint.  ``link`` adds the
    correlation predicate of IN / ANY / ALL / scalar forms: the outer
    expression compared against the subquery's first output column.
    Multi-level nesting recurses naturally (Example 4).

    ``negated`` marks NOT EXISTS / NOT IN forms; by influence symmetry the
    flattening is identical, so the flag only feeds diagnostics.

    ``vacuous_truth`` marks constructs that hold on an *empty* subquery
    result (NOT EXISTS, NOT IN, ALL, NOT over ANY; defaults to
    ``negated``).  Their flattened constraint must not be allowed to
    contradict: an unsatisfiable subquery produces no rows in any state,
    the construct is then TRUE everywhere, and conjoining the
    contradiction would collapse the whole area to ∅ — wrongly ruling
    out outer tuples that appear in every result.
    """
    sub = ctx.child()
    join_expr = from_items_to_expr(stmt.from_items, sub)
    where_expr = TRUE
    if stmt.where is not None:
        where_expr = condition_to_expr(stmt.where, sub)

    link_expr: BoolExpr = TRUE
    if link is not None:
        outer_expr, op = link
        inner_expr = _subquery_output(stmt)
        link_expr = _link_predicate(
            outer_expr, _operand(outer_expr, ctx), op, inner_expr,
            None if inner_expr is None else _operand(inner_expr, sub), ctx)

    having_expr = TRUE
    if stmt.having is not None:
        # Nested aggregate queries: combine Section 4.3 with Section 4.4.
        from .extractor import having_to_expr  # local import: no cycle
        having_expr = having_to_expr(stmt, where_expr, sub)

    if negated:
        ctx.note("negated subquery flattened without negation "
                 "(influence-symmetric approximation)")
    expr = make_and([join_expr, where_expr, link_expr, having_expr])
    if vacuous_truth is None:
        vacuous_truth = negated
    if vacuous_truth and ctx.shape is not None:
        ctx.shape.unheld()  # the refutation below reads the constants
    if vacuous_truth and _provably_unsat(expr):
        ctx.note("vacuously-true nested construct over an unsatisfiable "
                 "subquery: constraint dropped")
        return TRUE
    return expr


def _provably_unsat(expr: BoolExpr) -> bool:
    """Cheap satisfiability refutation via the consolidation engine."""
    from ..algebra.cnf import to_cnf
    from ..algebra.consolidate import consolidate
    from ..algebra.nnf import to_nnf
    if to_nnf(expr).count_atoms() > 64:
        return False  # CNF blow-up guard: assume satisfiable
    return consolidate(to_cnf(expr)).stats.contradiction


def _subquery_output(stmt: ast.SelectStatement) -> Optional[ast.Expr]:
    """The subquery's first output expression, unless it is ``*``."""
    if not stmt.select_items:
        return None
    first = stmt.select_items[0].expr
    if isinstance(first, ast.Star):
        return None
    return first


def _link_predicate(outer_expr: ast.Expr, outer: Operand, op: Op,
                    inner_expr: Optional[ast.Expr], inner: Operand,
                    ctx: ExtractionContext) -> BoolExpr:
    if isinstance(outer, ColumnRef) and isinstance(inner, ColumnRef):
        return atom(ColumnColumnPredicate(outer, op, inner))
    if isinstance(outer, ColumnRef) and _is_constant(inner):
        return _constant_atom(outer, op, inner, inner_expr, ctx)
    if _is_constant(outer) and isinstance(inner, ColumnRef):
        return _constant_atom(inner, op.flip(), outer, outer_expr, ctx)
    ctx.approx("subquery link predicate widened to TRUE")
    return TRUE


# ---------------------------------------------------------------------------
# Operand extraction
# ---------------------------------------------------------------------------

def _schema_coerce(ref: ColumnRef, value: Constant,
                   ctx: ExtractionContext) -> Constant:
    """Build-time mirror of the shared mixed-type comparison coercion.

    A numeric-string constant against a column the schema declares
    numeric (``WHERE ra > '180'``) becomes its numeric value, so the
    predicate consolidates, intervals, and interns exactly like its
    unquoted spelling.  Evaluation semantics are unchanged — the
    compare-time rule in :mod:`repro.algebra.coercion` performs the
    same conversion — this only canonicalizes the stored constant.
    """
    if not isinstance(value, str) or not _numeric_column(ref, ctx):
        return value
    return numeric_text(value)


def _numeric_column(ref: ColumnRef, ctx: ExtractionContext) -> bool:
    """Whether the schema declares ``ref`` numeric."""
    if ctx.schema is None or not ctx.schema.has_relation(ref.relation):
        return False
    column = ctx.schema.relation(ref.relation).find_column(ref.column)
    return column is not None and column.is_numeric


def numeric_text(value: str) -> Constant:
    """A string constant against a numeric column: its number, if it
    spells one, else the string."""
    parsed = parse_number(value)
    return value if parsed is None else parsed


def _operand(expr: ast.Expr, ctx: ExtractionContext) -> Operand:
    """Reduce a scalar expression to a column reference or a constant.

    Anything more complex (arithmetic over columns, UDF calls) returns
    ``None``, signalling the caller to widen.  Constant arithmetic is
    folded so that ``WHERE r < 20 + 2`` still yields an atomic predicate.
    """
    if isinstance(expr, ast.ColumnExpr):
        ref = ctx.resolve_column(expr.table, expr.name)
        if ref is None:
            ctx.note(f"unresolved column {expr}")
        return ref
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.UnaryMinus):
        inner = _operand(expr.operand, ctx)
        if _is_constant(inner) and not isinstance(inner, str):
            return -inner
        return None
    if isinstance(expr, ast.Arithmetic):
        left = _operand(expr.left, ctx)
        right = _operand(expr.right, ctx)
        if _is_number(left) and _is_number(right):
            value = _fold(expr.op, left, right)
            if value is None and ctx.shape is not None:
                ctx.shape.unheld()  # x / 0: another divisor folds
            return value
        return None
    return None


def _is_constant(value: Operand) -> bool:
    return value is not None and not isinstance(value, ColumnRef)


def _is_number(value: Operand) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fold(op: str, left: float, right: float) -> Optional[float]:
    """``left op right``, or ``None`` for an operation that does not
    fold.  A result off the number line — an integer beyond the float
    range, or arithmetic that overflows it on the way — raises
    :class:`UnsupportedStatementError`, as a literal of that size does
    (see :func:`repro.core.extractor.refuse_unplaceable`)."""
    try:
        if op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        elif op == "*":
            result = left * right
        elif op == "/" and right != 0:
            result = left / right
        elif op == "%" and right != 0:
            result = left % right
        else:
            return None
        float(result)
    except OverflowError:
        raise UnsupportedStatementError(
            f"constant off the number line (a folded {op} leaves the "
            f"float range)") from None
    return result
