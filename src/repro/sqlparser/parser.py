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
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .errors import ParseError, UnsupportedStatementError
from .lexer import Token, TokenType, tokenize

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


def parse(sql: str) -> ast.SelectStatement:
    """Parse one SQL statement into a :class:`~.ast.SelectStatement`."""
    tokens = tokenize(sql)
    parser = _Parser(tokens)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


class _Parser:
    """Token-stream cursor with one-statement parsing methods."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        #: token positions where a grouped condition was rolled back
        self._ungrouped: set[int] = set()

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
        limit = self._parse_limit()
        if self.current.is_keyword("UNION"):
            raise UnsupportedStatementError("UNION")
        self._close()
        return ast.SelectStatement(
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

    def _parse_top(self) -> Optional[int]:
        if not self._accept_keyword("TOP"):
            return None
        token = self.current
        if token.type is not TokenType.NUMBER:
            raise ParseError("expected number after TOP", token.position)
        self._advance()
        return int(float(token.value))

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
        return int(float(token.value))

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
            return ast.Like(expr, pattern_token.value, negated)
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
                return ast.Literal(-operand.value)
            return ast.UnaryMinus(operand)
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(_parse_number(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
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
