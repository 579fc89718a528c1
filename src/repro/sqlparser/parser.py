"""Recursive-descent parser for the SkyServer SELECT dialect.

The grammar mirrors what occurs in the SkyServer query log (Section 4):
SELECT with DISTINCT / TOP / INTO, comma and JOIN FROM clauses (INNER /
LEFT / RIGHT / FULL OUTER / CROSS / NATURAL), WHERE conditions with the
full predicate vocabulary (comparisons, BETWEEN, IN, EXISTS, ANY / ALL /
SOME, LIKE, IS NULL, NOT / AND / OR), GROUP BY, HAVING, ORDER BY, and the
MySQL-dialect LIMIT that the paper notes it can still process even though
such queries error on the actual MSSQL server (Section 6.6).

Non-SELECT statements raise :class:`UnsupportedStatementError`; malformed
input raises :class:`ParseError` — the two unparsed classes of Section 6.1.
So does a statement nested deeper than :data:`MAX_NESTING`, before the
recursive descent can exhaust Python's stack.

Statements that differ only in their number and string literals have
one *shape* (:func:`~.lexer.scan`), and the grammar decides on token
types and keywords alone, so a shape parses the same way whatever its
literals hold.  :func:`parse` therefore parses each shape once: it
holds the AST of the first statement of a shape together with where
each literal went, and answers a later one by binding its literals
into a fresh copy of the nodes above them (:class:`_Shape`).  The memo
is bounded by :data:`SHAPE_CHARS`.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Optional

from . import ast
from .errors import ParseError, UnsupportedStatementError
from .lexer import Token, TokenType, scan, tokenize

_COMPARISON_OPS = {"<", "<=", "=", ">", ">=", "<>"}

#: Deepest nesting the parser follows.  Each SELECT, opening
#: parenthesis, NOT and unary sign opens one level, and the statement's
#: own SELECT is the first.  One level costs the recursive descent about
#: six stack frames, so a statement at the limit (about 600 frames)
#: stays well below Python's default recursion limit of 1000.
MAX_NESTING = 100

_STATEMENT_KEYWORDS = {
    "CREATE", "INSERT", "UPDATE", "DELETE", "DROP", "DECLARE", "ALTER",
    "EXEC", "EXECUTE", "SET", "TRUNCATE", "USE", "GRANT", "WITH",
}


#: Characters of statement text the shape memo may hold, counted over
#: the statements that introduced its shapes; the least recently used
#: shape goes first.  A longer statement is never held.
SHAPE_CHARS = 1 << 16


def parse(sql: str, *, scanned: Optional[tuple[Optional[str], list[str]]]
          = None, slots: Optional[dict] = None) -> ast.SelectStatement:
    """Parse one SQL statement into a :class:`~.ast.SelectStatement`.

    A statement whose shape is held skips the recursive descent: its
    literals are bound into the held shape.  A literal the grammar
    rejects there (a malformed number, a TOP past the float range)
    falls back to the full parse, which reports it; a statement that
    fails to parse is never held.

    ``scanned`` is :func:`~.lexer.scan`'s answer for ``sql`` when the
    caller has it already.  When the returned statement's shape is
    held, ``slots`` (if given) receives where each of its literals
    went: ``id(node) -> (node, ((field, place among the literals,
    rule), ...))`` for every node a literal fills, the field by its
    place in the node's constructor (see :func:`slot_value` for the
    rule).
    """
    key, literals = scan(sql) if scanned is None else scanned
    shape = _SHAPES.get(key)
    if shape is not None:
        try:
            return shape.bind(literals, slots)
        except ParseError:
            if slots is not None:
                slots.clear()
    tokens = tokenize(sql)
    parser = _Parser(tokens)
    statement = parser.parse_statement()
    parser.expect_end()
    if key is not None and len(sql) <= SHAPE_CHARS:
        shape = _Shape.of(statement, parser.slots, tokens, len(sql), slots)
        if shape is not None:
            _SHAPES.hold(key, shape)
        elif slots is not None:
            slots.clear()
    return statement


class _Parser:
    """Token-stream cursor with one-statement parsing methods."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        #: token positions where a grouped condition was rolled back
        self._ungrouped: set[int] = set()
        #: id of each node built from a literal token -> the node and,
        #: per field the literal filled, (field, token index, rule)
        self.slots: dict[int, tuple[object, list[tuple[str, int, int]]]] = {}

    # -- cursor helpers ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._accept_keyword(name):
            raise ParseError(
                f"expected {name}, found {self.current}",
                self.current.position)

    def _accept_punct(self, value: str) -> bool:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise ParseError(
                f"expected {value!r}, found {self.current}",
                self.current.position)

    def _open(self) -> None:
        """Enter one nesting level; :meth:`_close` leaves it.

        An exception in between leaves the count raised; the one place
        that recovers from a ``ParseError``, the grouped-condition
        backtracking, restores it.
        """
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"statement nests deeper than {MAX_NESTING} levels",
                self.current.position)

    def _close(self) -> None:
        self._depth -= 1

    def _slot(self, node: object, field: str, index: int, rule: int) -> None:
        """Note that ``field`` of ``node`` holds the literal token at
        ``index``, converted by ``rule`` (see :func:`slot_value`)."""
        self.slots.setdefault(id(node), (node, []))[1].append(
            (field, index, rule))

    def _literal(self, value: object, rule: int) -> ast.Literal:
        """The literal token just consumed, as a node."""
        node = ast.Literal(value)
        self._slot(node, "value", self._pos - 1, rule)
        return node

    def expect_end(self) -> None:
        self._accept_punct(";")
        if self.current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input: {self.current}",
                self.current.position)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.SelectStatement:
        token = self.current
        if token.type is TokenType.KEYWORD and token.value in _STATEMENT_KEYWORDS:
            raise UnsupportedStatementError(token.value)
        if not token.is_keyword("SELECT"):
            raise ParseError(
                f"expected SELECT, found {token}", token.position)
        return self.parse_select()

    def parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        self._open()
        distinct = self._accept_keyword("DISTINCT")
        self._accept_keyword("ALL")  # SELECT ALL is a no-op
        top_at = self._pos + 1
        top = self._parse_top()
        select_items = self._parse_select_list()
        self._parse_into()
        from_items: tuple[ast.FromItem, ...] = ()
        if self._accept_keyword("FROM"):
            from_items = self._parse_from_list()
        where = self._parse_condition() if self._accept_keyword("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._parse_expr_list()
        having = self._parse_condition() if self._accept_keyword("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_list()
        limit_at = self._pos + 1
        limit = self._parse_limit()
        if self.current.is_keyword("UNION"):
            raise UnsupportedStatementError("UNION")
        self._close()
        statement = ast.SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            top=top,
            distinct=distinct,
            limit=limit,
        )
        if top is not None:
            self._slot(statement, "top", top_at, _AS_COUNT)
        if limit is not None:
            self._slot(statement, "limit", limit_at, _AS_COUNT)
        return statement

    def _parse_top(self) -> Optional[int]:
        if not self._accept_keyword("TOP"):
            return None
        token = self.current
        if token.type is not TokenType.NUMBER:
            raise ParseError("expected number after TOP", token.position)
        self._advance()
        return _count(token.value, "TOP", token.position)

    def _parse_into(self) -> None:
        """SkyServer CasJobs ``SELECT ... INTO mydb.table`` — parse & drop."""
        if not self._accept_keyword("INTO"):
            return
        if self.current.type is not TokenType.IDENT:
            raise ParseError("expected identifier after INTO",
                             self.current.position)
        self._advance()
        while self._accept_punct("."):
            if self.current.type is TokenType.IDENT:
                self._advance()
            else:
                raise ParseError("expected identifier after '.'",
                                 self.current.position)

    def _parse_limit(self) -> Optional[int]:
        """MySQL-dialect LIMIT n [OFFSET m] — accepted, value recorded."""
        if not self._accept_keyword("LIMIT"):
            return None
        token = self.current
        if token.type is not TokenType.NUMBER:
            raise ParseError("expected number after LIMIT", token.position)
        self._advance()
        if self._accept_keyword("OFFSET"):
            if self.current.type is not TokenType.NUMBER:
                raise ParseError("expected number after OFFSET",
                                 self.current.position)
            self._advance()
        return _count(token.value, "LIMIT", token.position)

    # -- select list ---------------------------------------------------------

    def _parse_select_list(self) -> tuple[ast.SelectItem, ...]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> ast.SelectItem:
        star = self._try_parse_star()
        if star is not None:
            return ast.SelectItem(star)
        expr = self._parse_expr()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif self.current.type is TokenType.IDENT:
            alias = self.current.value
            self._advance()
        return ast.SelectItem(expr, alias)

    def _try_parse_star(self) -> Optional[ast.Star]:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == "*":
            self._advance()
            return ast.Star()
        if (token.type is TokenType.IDENT
                and self._peek().type is TokenType.PUNCT
                and self._peek().value == "."
                and self._peek(2).type is TokenType.PUNCT
                and self._peek(2).value == "*"):
            self._advance()
            self._advance()
            self._advance()
            return ast.Star(token.value)
        return None

    def _expect_ident(self, what: str) -> str:
        token = self.current
        if token.type is not TokenType.IDENT:
            raise ParseError(f"expected {what}, found {token}",
                             token.position)
        self._advance()
        return token.value

    # -- FROM clause ----------------------------------------------------------

    def _parse_from_list(self) -> tuple[ast.FromItem, ...]:
        items = [self._parse_from_item()]
        while self._accept_punct(","):
            items.append(self._parse_from_item())
        return tuple(items)

    def _parse_from_item(self) -> ast.FromItem:
        item: ast.FromItem = self._parse_table_primary()
        while True:
            join_type = self._try_parse_join_type()
            if join_type is None:
                return item
            right = self._parse_table_primary()
            condition: Optional[ast.Condition] = None
            if self._accept_keyword("ON"):
                condition = self._parse_condition()
            elif join_type not in (ast.JoinType.CROSS, ast.JoinType.NATURAL):
                raise ParseError(
                    f"{join_type.value} JOIN requires ON",
                    self.current.position)
            item = ast.Join(item, right, join_type, condition)

    def _try_parse_join_type(self) -> Optional[ast.JoinType]:
        token = self.current
        if token.is_keyword("JOIN"):
            self._advance()
            return ast.JoinType.INNER
        mapping = {
            "INNER": ast.JoinType.INNER,
            "LEFT": ast.JoinType.LEFT,
            "RIGHT": ast.JoinType.RIGHT,
            "FULL": ast.JoinType.FULL,
            "CROSS": ast.JoinType.CROSS,
            "NATURAL": ast.JoinType.NATURAL,
        }
        if token.type is TokenType.KEYWORD and token.value in mapping:
            join_type = mapping[token.value]
            self._advance()
            self._accept_keyword("OUTER")
            self._accept_keyword("INNER")  # NATURAL INNER JOIN
            self._expect_keyword("JOIN")
            return join_type
        return None

    def _parse_table_primary(self) -> ast.TableRef:
        if self._accept_punct("("):
            if self.current.is_keyword("SELECT"):
                raise UnsupportedStatementError("derived table")
            raise ParseError("unexpected '(' in FROM clause",
                             self.current.position)
        name = self._expect_ident("table name")
        while self._accept_punct("."):
            # Schema-qualified names like dbo.PhotoObjAll: keep last part.
            name = self._expect_ident("table name")
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif self.current.type is TokenType.IDENT:
            alias = self.current.value
            self._advance()
        return ast.TableRef(name, alias)

    # -- conditions -------------------------------------------------------------

    def _parse_condition(self) -> ast.Condition:
        return self._parse_or()

    def _parse_or(self) -> ast.Condition:
        children = [self._parse_and()]
        while self._accept_keyword("OR"):
            children.append(self._parse_and())
        if len(children) == 1:
            return children[0]
        return ast.OrCondition(tuple(children))

    def _parse_and(self) -> ast.Condition:
        children = [self._parse_not()]
        while self._accept_keyword("AND"):
            children.append(self._parse_not())
        if len(children) == 1:
            return children[0]
        return ast.AndCondition(tuple(children))

    def _parse_not(self) -> ast.Condition:
        if self._accept_keyword("NOT"):
            self._open()
            child = self._parse_not()
            self._close()
            return ast.NotCondition(child)
        return self._parse_primary_condition()

    def _parse_primary_condition(self) -> ast.Condition:
        token = self.current
        if token.is_keyword("EXISTS"):
            self._advance()
            return ast.Exists(self._parse_subquery())
        if token.type is TokenType.PUNCT and token.value == "(":
            grouped = self._try_parse_grouped_condition()
            if grouped is not None:
                return grouped
        return self._parse_predicate()

    def _try_parse_grouped_condition(self) -> Optional[ast.Condition]:
        """Attempt ``( condition )`` with backtracking.

        ``(a + b) > 5`` must fall through to expression parsing, while
        ``(a > 1 OR b < 2)`` must parse as a grouped condition.  We try the
        condition interpretation and roll back the cursor when it either
        fails or is followed by something that only an expression permits.
        Nesting past the limit is not rolled back: the expression reading
        opens the same parentheses, so retrying it would only fail again,
        after work that grows with the square of the depth.

        A rollback is remembered by position.  The attempt depends only
        on the tokens from there on, so it would fail again; without the
        memo, an expression reading that re-enters the same parentheses
        retries every inner group, which doubles the work per level.
        """
        if self._pos in self._ungrouped:
            return None
        saved = self._pos, self._depth
        self._expect_punct("(")
        try:
            self._open()
            condition = self._parse_condition()
            self._expect_punct(")")
            self._close()
        except (ParseError, UnsupportedStatementError):
            if self._depth > MAX_NESTING:
                raise
            self._pos, self._depth = saved
            self._ungrouped.add(self._pos)
            return None
        follow = self.current
        expression_follow = (
            (follow.type is TokenType.OPERATOR)
            or (follow.type is TokenType.PUNCT
                and follow.value in "+-*/%.")
            or follow.is_keyword("BETWEEN", "IN", "LIKE", "IS")
        )
        if expression_follow:
            self._pos, self._depth = saved
            self._ungrouped.add(self._pos)
            return None
        return condition

    def _parse_predicate(self) -> ast.Condition:
        expr = self._parse_expr()
        token = self.current
        negated = False
        if token.is_keyword("NOT"):
            # e.g. "x NOT BETWEEN ...", "x NOT IN ...", "x NOT LIKE ..."
            self._advance()
            negated = True
            token = self.current
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_expr()
            self._expect_keyword("AND")
            high = self._parse_expr()
            return ast.Between(expr, low, high, negated)
        if token.is_keyword("IN"):
            self._advance()
            return self._parse_in_tail(expr, negated)
        if token.is_keyword("LIKE"):
            self._advance()
            pattern_token = self.current
            if pattern_token.type is not TokenType.STRING:
                raise ParseError("expected string after LIKE",
                                 pattern_token.position)
            self._advance()
            like = ast.Like(expr, pattern_token.value, negated)
            self._slot(like, "pattern", self._pos - 1, _AS_STRING)
            return like
        if negated:
            raise ParseError("dangling NOT in predicate", token.position)
        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(expr, is_negated)
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = token.value
            self._advance()
            if self.current.is_keyword("ANY", "SOME", "ALL"):
                quantifier = "ANY" if self.current.value in ("ANY", "SOME") \
                    else "ALL"
                self._advance()
                return ast.QuantifiedComparison(expr, op, quantifier,
                                                self._parse_subquery())
            right = self._parse_expr()
            return ast.Comparison(expr, op, right)
        raise ParseError(f"expected predicate, found {token}", token.position)

    def _parse_in_tail(self, expr: ast.Expr,
                       negated: bool) -> ast.Condition:
        if self._peek().is_keyword("SELECT"):
            return ast.InSubquery(expr, self._parse_subquery(), negated)
        self._expect_punct("(")
        self._open()
        values = [self._parse_expr()]
        while self._accept_punct(","):
            values.append(self._parse_expr())
        self._expect_punct(")")
        self._close()
        return ast.InList(expr, tuple(values), negated)

    def _parse_subquery(self) -> ast.SelectStatement:
        """``( SELECT ... )``: two nesting levels."""
        self._expect_punct("(")
        self._open()
        query = self.parse_select()
        self._expect_punct(")")
        self._close()
        return query

    # -- scalar expressions -------------------------------------------------------

    def _parse_expr_list(self) -> tuple[ast.Expr, ...]:
        exprs = [self._parse_expr()]
        while self._accept_punct(","):
            exprs.append(self._parse_expr())
        return tuple(exprs)

    def _parse_order_list(self) -> tuple[ast.OrderItem, ...]:
        items = [self._parse_order_item()]
        while self._accept_punct(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _parse_expr(self) -> ast.Expr:
        expr = self._parse_term()
        while (self.current.type is TokenType.PUNCT
               and self.current.value in "+-"):
            op = self._advance().value
            right = self._parse_term()
            expr = ast.Arithmetic(op, expr, right)
        return expr

    def _parse_term(self) -> ast.Expr:
        expr = self._parse_factor()
        while (self.current.type is TokenType.PUNCT
               and self.current.value in "*/%"):
            op = self._advance().value
            right = self._parse_factor()
            expr = ast.Arithmetic(op, expr, right)
        return expr

    def _parse_factor(self) -> ast.Expr:
        token = self.current
        if token.type is TokenType.PUNCT and token.value in ("-", "+"):
            self._advance()
            self._open()
            operand = self._parse_factor()
            self._close()
            if token.value == "+":
                return operand
            if isinstance(operand, ast.Literal) and isinstance(
                    operand.value, (int, float)):
                # Only a number token makes such a literal.
                _, [(_, index, negations)] = self.slots[id(operand)]
                negated = ast.Literal(-operand.value)
                self._slot(negated, "value", index, negations + 1)
                return negated
            return ast.UnaryMinus(operand)
        if token.type is TokenType.NUMBER:
            self._advance()
            return self._literal(_parse_number(token.value), 0)
        if token.type is TokenType.STRING:
            self._advance()
            return self._literal(token.value, _AS_STRING)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.PUNCT and token.value == "(":
            if self._peek().is_keyword("SELECT"):
                return ast.ScalarSubquery(self._parse_subquery())
            self._advance()
            self._open()
            expr = self._parse_expr()
            self._expect_punct(")")
            self._close()
            return expr
        if token.type is TokenType.IDENT:
            return self._parse_identifier_expr()
        if token.is_keyword("CASE"):
            raise UnsupportedStatementError("CASE expression")
        raise ParseError(f"expected expression, found {token}",
                         token.position)

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._expect_ident("identifier")
        if self._accept_punct("("):
            return self._parse_function_tail(name)
        if (self.current.type is TokenType.PUNCT
                and self.current.value == "."):
            self._advance()
            column = self._expect_ident("column name")
            if self._accept_punct("("):
                # Qualified UDF call like dbo.fGetNearbyObjEq(...)
                return self._parse_function_tail(f"{name}.{column}")
            return ast.ColumnExpr(name, column)
        return ast.ColumnExpr(None, name)

    def _parse_function_tail(self, name: str) -> ast.FunctionCall:
        args: list[ast.Expr] = []
        self._open()
        if not self._accept_punct(")"):
            args.append(self._parse_function_arg())
            while self._accept_punct(","):
                args.append(self._parse_function_arg())
            self._expect_punct(")")
        self._close()
        return ast.FunctionCall(name, tuple(args))

    def _parse_function_arg(self) -> ast.Expr:
        if self.current.type is TokenType.PUNCT and self.current.value == "*":
            self._advance()
            return ast.Star()
        self._accept_keyword("DISTINCT")  # COUNT(DISTINCT x)
        return self._parse_expr()


def _parse_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"malformed numeric literal {text!r}") from None


def _count(text: str, clause: str, position: int) -> int:
    """The integer a TOP or LIMIT number stands for."""
    try:
        return int(float(text))
    except (OverflowError, ValueError):
        raise ParseError(f"{clause} needs a finite number, found {text!r}",
                         position) from None


#: Rules of :func:`slot_value` besides a number negated n >= 0 times.
_AS_STRING, _AS_COUNT = -1, -2


def slot_value(text: str, rule: int) -> object:
    """What a literal's text becomes in the field it fills: a string
    as it is, a TOP or LIMIT count, or a number negated ``rule`` times
    (the unary-minus fold)."""
    if rule == _AS_STRING:
        return text
    if rule == _AS_COUNT:
        return _count(text, "TOP or LIMIT", -1)
    value = _parse_number(text)
    for _ in range(rule):
        value = -value
    return value


def _tuple(*items: object) -> tuple:
    return items


#: Field names of every AST node class, in constructor order.
_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in vars(ast).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)}


class _Shape:
    """A parsed statement with its literals taken out.

    ``steps`` rebuild, children first, every node that has a literal
    below it.  Each is ``(make, fields, nodes, literals)``: the node's
    class (:func:`_tuple` for a tuple), its field values in the
    statement parsed, the fields that take an earlier step's result as
    ``(field, step)``, and those that take a literal as ``(field, place
    among the statement's literals, rule)``.  Every other node is
    shared with the statement parsed; AST nodes are frozen.
    """

    __slots__ = ("statement", "steps", "size")

    def __init__(self, statement: ast.SelectStatement, steps: tuple,
                 size: int) -> None:
        self.statement = statement
        self.steps = steps
        self.size = size

    @classmethod
    def of(cls, statement: ast.SelectStatement,
           slots: dict[int, tuple[object, list[tuple[str, int, int]]]],
           tokens: list[Token], size: int,
           origins: Optional[dict] = None) -> Optional["_Shape"]:
        """The shape of a statement just parsed from ``tokens``, with
        the parser's ``slots``; ``None`` if a node occurs twice in it.
        ``origins``, if given, receives where the statement's literals
        went, as :func:`parse` describes its ``slots``."""
        # Breadth first, so every node comes after its parent.  A field
        # is a position in a tuple, a name in a node.
        nodes: list = [statement]
        parent: list[Optional[tuple[int, int | str]]] = [None]
        place = {id(statement): 0}
        for index, node in enumerate(nodes):
            for field, value in (enumerate(node) if type(node) is tuple
                                 else vars(node).items()):
                if type(value) in _FIELDS or (type(value) is tuple
                                              and value):
                    if place.setdefault(id(value), len(nodes)) != len(nodes):
                        return None
                    nodes.append(value)
                    parent.append((index, field))
        live: set[int] = set()
        for node_id in slots:
            index = place.get(node_id)   # None: dropped while parsing
            while index is not None and index not in live:
                live.add(index)
                above = parent[index]
                index = None if above is None else above[0]
        number, string = TokenType.NUMBER, TokenType.STRING
        literal_of = {at: n for n, at in enumerate([
            at for at, token in enumerate(tokens)
            if token.type is number or token.type is string])}
        holes: dict[int, list[tuple[int, int]]] = {index: [] for index in live}
        steps = []
        for index in sorted(live, reverse=True):   # children first
            node = nodes[index]
            names = _FIELDS.get(type(node))
            if names is None:
                steps.append((_tuple, node, tuple(holes[index]), ()))
            else:
                filled = slots.get(id(node), (None, ()))[1]
                steps.append((
                    type(node), tuple([getattr(node, name) for name in names]),
                    tuple([(names.index(field), step)
                           for field, step in holes[index]]),
                    tuple([(names.index(field), literal_of[token], rule)
                           for field, token, rule in filled])))
                if origins is not None and filled:
                    origins[id(node)] = (node, steps[-1][3])
            above = parent[index]
            if above is not None:
                holes[above[0]].append((above[1], len(steps) - 1))
        return cls(statement, tuple(steps), size)

    def bind(self, literals: list[str],
             origins: Optional[dict] = None) -> ast.SelectStatement:
        """The statement of this shape with ``literals`` in its slots;
        raises :class:`ParseError` where :func:`parse` would reject one.
        ``origins``, if given, receives where the literals went, as
        :func:`parse` describes its ``slots``."""
        built: list = []
        for make, fields, nodes, slots in self.steps:
            args = list(fields)
            for field, step in nodes:
                args[field] = built[step]
            for field, literal, rule in slots:
                args[field] = slot_value(literals[literal], rule)
            node = make(*args)
            if origins is not None and slots:
                origins[id(node)] = (node, slots)
            built.append(node)
        return built[-1] if built else self.statement


class ShapeMemo:
    """Shape key -> what the first statement of that shape gave (here a
    :class:`_Shape`; anything with a ``size``, the length of that
    statement), least recently used first, within :data:`SHAPE_CHARS`
    characters.  Every lookup and change holds a lock: the parser's is
    process-wide."""

    def __init__(self) -> None:
        self._shapes: OrderedDict[str, _Shape] = OrderedDict()
        self._chars = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._shapes)

    def get(self, key: Optional[str]) -> Optional[_Shape]:
        with self._lock:
            shape = self._shapes.get(key)
            if shape is not None:
                self._shapes.move_to_end(key)
        return shape

    @staticmethod
    def fits(size: int) -> bool:
        """Whether a statement of ``size`` characters may be held."""
        return size <= SHAPE_CHARS

    def hold(self, key: str, shape: _Shape) -> None:
        """Hold ``shape``, no larger than :data:`SHAPE_CHARS`."""
        with self._lock:
            shapes = self._shapes
            held = shapes.pop(key, None)
            if held is not None:
                self._chars -= held.size
            while self._chars + shape.size > SHAPE_CHARS:
                _, evicted = shapes.popitem(last=False)
                self._chars -= evicted.size
            shapes[key] = shape
            self._chars += shape.size

    def clear(self) -> None:
        with self._lock:
            self._shapes.clear()
            self._chars = 0


_SHAPES = ShapeMemo()
