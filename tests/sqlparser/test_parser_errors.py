"""Failure taxonomy: the paper's three classes of unparseable statements."""

import pytest

from repro.sqlparser import ast, parse
from repro.sqlparser.errors import (LexError, ParseError, SqlError,
                                    UnsupportedStatementError)
from repro.sqlparser.parser import MAX_NESTING, _Parser


class TestUnsupportedStatements:
    @pytest.mark.parametrize("sql,keyword", [
        ("CREATE TABLE x (a int)", "CREATE"),
        ("DECLARE @ra float", "DECLARE"),
        ("INSERT INTO T VALUES (1)", "INSERT"),
        ("UPDATE T SET u = 1", "UPDATE"),
        ("DELETE FROM T", "DELETE"),
        ("DROP TABLE T", "DROP"),
        ("EXEC spMyProc 1", "EXEC"),
        ("WITH cte AS (SELECT 1) SELECT * FROM cte", "WITH"),
    ])
    def test_statement_keywords(self, sql, keyword):
        with pytest.raises(UnsupportedStatementError) as excinfo:
            parse(sql)
        assert excinfo.value.keyword == keyword

    def test_union_unsupported(self):
        with pytest.raises(UnsupportedStatementError):
            parse("SELECT u FROM T UNION SELECT u FROM S")

    def test_case_expression_unsupported(self):
        with pytest.raises(UnsupportedStatementError):
            parse("SELECT CASE WHEN u > 1 THEN 1 ELSE 0 END FROM T")


class TestParseErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT FROM T",
        "SELECT * FROM",
        "SELECT * FROM T WHERE",
        "SELECT * FROM T WHERE u >",
        "SELECT * FROM T WHERE u BETWEEN 1",
        "SELECT * FROM T GROUP",
        "SELECT * FROM T ORDER u",
        "SELECT * FROM T WHERE u IN (",
        "SELECT TOP FROM T",
        "SELECT * FROM T LIMIT x",
        "SELCT * FROM T",
    ])
    def test_malformed(self, sql):
        with pytest.raises(ParseError):
            parse(sql)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT FROM T")
        assert excinfo.value.position >= 0

    def test_dangling_not(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM T WHERE u NOT 5")


class TestLexErrors:
    def test_illegal_character(self):
        with pytest.raises(LexError):
            parse("SELECT ? FROM T")

    def test_all_errors_are_sql_errors(self):
        for bad in ["CREATE TABLE x (a int)", "SELECT FROM",
                    "SELECT 'oops FROM T",
                    "SELECT TOP 1e400 ra FROM PhotoObj",
                    "SELECT ra FROM PhotoObj LIMIT 1e999"]:
            with pytest.raises(SqlError):
                parse(bad)


class TestCounts:
    """TOP and LIMIT take an integer count; a number float() cannot
    read as a finite value is a parse error at its token."""

    @pytest.mark.parametrize("sql,position", [
        ("SELECT TOP 1e400 ra FROM PhotoObj", 16),
        ("SELECT ra FROM PhotoObj LIMIT 1e999", 35),
        ("SELECT TOP \u00b2 ra FROM PhotoObj", 12),
    ])
    def test_count_past_the_float_range(self, sql, position):
        with pytest.raises(ParseError, match="needs a finite number") \
                as excinfo:
            parse(sql)
        assert excinfo.value.position == position

    def test_counts_truncate(self):
        assert parse("SELECT TOP 1.9 ra FROM PhotoObj").top == 1
        assert parse("SELECT ra FROM PhotoObj LIMIT 1e3").limit == 1000


class TestRobustness:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_whitespace_only(self):
        with pytest.raises(ParseError):
            parse("   \n\t ")

    def test_comment_only(self):
        with pytest.raises(ParseError):
            parse("-- just a comment")

    def test_deeply_parenthesized(self):
        depth = 30
        sql = ("SELECT * FROM T WHERE " + "(" * depth + "u > 1"
               + ")" * depth)
        stmt = parse(sql)
        assert stmt.where is not None


def _grouped(levels):
    """A statement ``levels`` deep: its own SELECT is the first level,
    each grouping parenthesis one more."""
    inner = levels - 1
    return ("SELECT ra FROM PhotoObj WHERE " + "(" * inner + "ra > 1"
            + ")" * inner)


class TestNestingLimit:
    """Past ``MAX_NESTING`` levels the parser raises ``ParseError``
    instead of exhausting Python's stack with ``RecursionError``."""

    def test_statement_at_limit_parses(self):
        stmt = parse(_grouped(MAX_NESTING))
        assert isinstance(stmt.where, ast.Comparison)

    def test_one_level_past_limit_is_parse_error(self):
        with pytest.raises(ParseError, match="nests deeper than"):
            parse(_grouped(MAX_NESTING + 1))

    def test_refusal_is_not_retried(self, monkeypatch):
        # Each grouping parenthesis may also be read as an expression;
        # retrying that reading at every level after the limit is hit
        # would cost work quadratic in the limit.
        calls = []
        original = _Parser._parse_factor

        def counting(self):
            calls.append(self._pos)
            return original(self)

        monkeypatch.setattr(_Parser, "_parse_factor", counting)
        with pytest.raises(ParseError):
            parse(_grouped(1000))
        assert 0 < len(calls) <= MAX_NESTING

    def test_grouped_backtracking_is_not_exponential(self, monkeypatch):
        # A scalar subquery inside a grouped expression: each level is
        # first tried as a grouped condition, which fails, and the
        # expression reading then enters the same parentheses again.
        def nested(levels):
            condition = "ra > 1"
            for _ in range(levels):
                condition = (f"((SELECT ra FROM PhotoObj WHERE {condition})"
                             f" + 1 > 0) + 1 > 0")
            return "SELECT ra FROM PhotoObj WHERE " + condition

        calls = []
        original = _Parser._try_parse_grouped_condition

        def counting(self):
            calls.append(self._pos)
            return original(self)

        monkeypatch.setattr(_Parser, "_try_parse_grouped_condition",
                            counting)
        counts = []
        for levels in (8, 16):
            calls.clear()
            with pytest.raises(ParseError):
                parse(nested(levels))
            counts.append(len(calls))
        # A statement that fails is never answered from the shape memo.
        assert 0 < counts[0] and counts[1] <= 4 * counts[0], counts

    @pytest.mark.parametrize("sql", [
        _grouped(1000),
        "SELECT ra FROM P WHERE " + "NOT " * 1000 + "ra > 1",
        "SELECT ra FROM P WHERE ra > " + "- " * 1000 + "1",
        "SELECT ra FROM P WHERE ra > " + "+" * 1000 + "1",
        "SELECT ra FROM P WHERE ra > " + "(" * 1000 + "1" + ")" * 1000,
        "SELECT ra FROM P WHERE ra > " + "f(" * 1000 + "1" + ")" * 1000,
        "SELECT ra FROM P WHERE ra IN " + "(" * 1000 + "1" + ")" * 1000,
        "SELECT ra FROM P WHERE ra > "
        + "(SELECT ra FROM P WHERE ra > " * 500 + "1" + ")" * 500,
        "SELECT ra FROM P WHERE ra IN "
        + "(SELECT ra FROM P WHERE ra IN " * 500 + "(1)" + ")" * 500,
        "SELECT ra FROM P WHERE "
        + "EXISTS (SELECT ra FROM P WHERE " * 500 + "ra > 1" + ")" * 500,
        "SELECT ra FROM P WHERE ra > ANY "
        + "(SELECT ra FROM P WHERE ra > ANY " * 500 + "(SELECT 1)"
        + ")" * 500,
        "SELECT ra FROM P WHERE " + "(NOT " * 500 + "ra > 1" + ")" * 500,
    ], ids=["grouped", "not", "minus", "plus", "parenthesised", "function",
            "in-list", "scalar-subquery", "in-subquery", "exists", "any",
            "grouped-not"])
    def test_every_nesting_kind_is_bounded(self, sql):
        with pytest.raises(ParseError):
            parse(sql)
