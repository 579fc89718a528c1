"""The parser's shape memo answers exactly as the recursive descent does."""

import glob
import json
import os

import pytest

from repro.sqlparser import LexError, ParseError, ast, parse
from repro.sqlparser import parser
from repro.sqlparser.lexer import scan
from repro.workload import WorkloadConfig, generate_workload

from .shape_sweep import first_mismatch, outcome, uncached

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "qa", "corpus")

#: Statements whose parse turns on a literal, a comment, a quote or a
#: character outside ASCII; each shape occurs with several literals.
HOSTILE = [
    "SELECT TOP 5 ra FROM PhotoObj", "SELECT TOP 1e400 ra FROM PhotoObj",
    "SELECT TOP ² ra FROM PhotoObj", "SELECT TOP 1.9 ra FROM PhotoObj",
    "SELECT ra FROM PhotoObj LIMIT 7", "SELECT ra FROM PhotoObj LIMIT 1e999",
    "SELECT ra FROM PhotoObj LIMIT ٣",
    "SELECT ra FROM PhotoObj LIMIT 5 OFFSET 3",
    "SELECT ra FROM PhotoObj LIMIT 5 OFFSET ²",
    "SELECT ra FROM PhotoObj WHERE ra > - -5",
    "SELECT ra FROM PhotoObj WHERE ra > - -7.5",
    "SELECT ra FROM PhotoObj WHERE ra > - - -0.0",
    "SELECT ra FROM PhotoObj WHERE ra > -(5)",
    "SELECT ra FROM PhotoObj WHERE ra > -(5 + 1)",
    "SELECT ra FROM PhotoObj WHERE ra > -'x'",
    "SELECT ra FROM PhotoObj WHERE ra > -'y'",
    "SELECT ra FROM PhotoObj WHERE ra > +'z'",
    "SELECT ra FROM PhotoObj WHERE name = 'it''s'",
    "SELECT ra FROM PhotoObj WHERE name = ''''",
    "SELECT ra FROM PhotoObj WHERE name = ''",
    "SELECT ra -- line\nFROM PhotoObj WHERE ra > 1",
    "SELECT ra /* block\n */ FROM PhotoObj WHERE ra > 2",
    "SELECT [ra] FROM \"PhotoObj\" WHERE [ra] > 3",
    "SELECT [select] FROM [Photo Obj] WHERE [ra] > 4",
    "SELECT ra FROM PhotoObj WHERE ra != 4",
    "SELECT ra FROM PhotoObj WHERE ra > 5",
    "SELECT ra FROM PhotoObj WHERE ra > ٣",
    "SELECT ra FROM PhotoObj WHERE ra > ²",
    "SELECT ra FROM PhotoObj WHERE ra > 1²",
    "SELECT ra FROM PhotoObj WHERE ra > 1e²",
    "SELECT ra FROM PhotoObj WHERE ra > 5 AND dec < 1",
    "SELECT ra FROM PhotoObj WHERE ra > ² AND dec < 1",
    "SELECT ré FROM PhotoObj WHERE ré > 1",
    "SELECT ſelect FROM PhotoObj",
    "SELECT ra FROM PhotoObj WHERE name = 'oops",
    "SELECT ra FROM PhotoObj /* oops",
    "SELECT [ra FROM PhotoObj", "SELECT \"ra FROM PhotoObj",
    "SELECT ra FROM PhotoObj WHERE ra ~ 1",
    "SELECT ra FROM PhotoObj WHERE ra IN (1, 2, 'x')",
    "SELECT ra FROM PhotoObj WHERE ra IN (3, 4, 'y')",
    "SELECT ra FROM PhotoObj WHERE ra IN (3, ², 'y')",
    "SELECT ra FROM PhotoObj WHERE name LIKE 'a%'",
    "SELECT ra FROM PhotoObj WHERE name LIKE 'b_'",
    "SELECT ra FROM PhotoObj WHERE name NOT LIKE 'c'",
    "SELECT ra FROM PhotoObj WHERE (ra > 1 OR ra < 2) AND (ra + 1) > 3",
    "SELECT ra FROM PhotoObj WHERE (ra > 5 OR ra < 6) AND (ra + 7) > 8",
    "SELECT ra FROM PhotoObj WHERE (ra > ² OR ra < 6) AND (ra + 7) > 8",
    "SELECT ra FROM PhotoObj WHERE ra > " + "9" * 5000,
    "SELECT ra FROM PhotoObj WHERE ra > -" + "8" * 5000,
    "SELECT ra FROM PhotoObj WHERE ra > 1 +",
    "SELECT ra FROM PhotoObj WHERE ra > 2 +",
    "SELECT ra FROM PhotoObj WHERE ra BETWEEN 'a' AND 2",
    "SELECT ra FROM PhotoObj WHERE ra BETWEEN -1 AND -'b'",
    "", "   ", "-- only", "SELECT",
]


@pytest.fixture
def empty_memo():
    parser._SHAPES.clear()
    yield parser._SHAPES
    parser._SHAPES.clear()


def _assert_parses_as_descent(statements):
    """Parse in order; returns how many found their shape held."""
    hits = 0
    for sql in statements:
        try:
            hits += parser._SHAPES.get(scan(sql)[0]) is not None
        except LexError:
            pass
        assert outcome(parse, sql) == outcome(uncached, sql), sql
    return hits


class TestParity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 13])
    def test_generator_log_in_order(self, seed, empty_memo):
        workload = generate_workload(WorkloadConfig(n_queries=3000,
                                                    seed=seed))
        statements = [sql for sql, _ in
                      workload.log.statements_with_users()]
        hits = _assert_parses_as_descent(statements)
        # Both paths ran: first-of-shape parses and bound literals.
        assert 0 < len(empty_memo) < hits

    def test_qa_corpus_and_hostile_statements(self, empty_memo):
        corpus = [json.load(open(path))["sql"]
                  for path in sorted(glob.glob(os.path.join(CORPUS,
                                                            "*.json")))]
        assert corpus
        assert _assert_parses_as_descent(corpus + HOSTILE) > 0

    def test_qa_profiles_and_perturbed_twins(self, empty_memo):
        mismatch, parsed, hits = first_mismatch(seed=5, n_queries=400)
        assert mismatch is None
        assert 0 < hits < parsed

    def test_parity_holds_while_the_memo_evicts(self, empty_memo,
                                                monkeypatch):
        monkeypatch.setattr(parser, "SHAPE_CHARS", 2000)
        mismatch, parsed, hits = first_mismatch(seed=9, n_queries=200)
        assert mismatch is None
        assert 0 < len(empty_memo) < parsed - hits


class TestMemo:
    def test_a_hit_binds_the_new_literals(self, empty_memo):
        first = parse("SELECT TOP 5 ra FROM PhotoObj WHERE ra > -3 "
                      "AND name LIKE 'a%' AND dec IN (1, 'x')")
        second = parse("select top 9 ra from PhotoObj where ra>-2.5 "
                       "and name like 'b' and dec in (7,'y')")
        assert len(empty_memo) == 1
        assert second.top == 9
        ra, name, dec = second.where.children
        assert ra.right == ast.Literal(-2.5)
        assert name.pattern == "b"
        assert dec.values == (ast.Literal(7), ast.Literal("y"))
        # Nodes without a literal below them are shared, and frozen.
        assert second.from_items is first.from_items
        assert second.where is not first.where

    def test_a_rejected_literal_takes_the_full_parse(self, empty_memo):
        parse("SELECT ra FROM PhotoObj WHERE ra > 5")
        with pytest.raises(ParseError,
                           match="malformed numeric literal '²'"):
            parse("SELECT ra FROM PhotoObj WHERE ra > ²")
        parse("SELECT TOP 5 ra FROM PhotoObj")
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT TOP 1e400 ra FROM PhotoObj")
        assert excinfo.value.position == 16

    def test_a_failed_parse_is_never_held(self, empty_memo):
        for sql in ("SELECT ra FROM PhotoObj WHERE ra >",
                    "CREATE TABLE x (a int)", "SELECT ra FROM"):
            with pytest.raises(Exception):
                parse(sql)
        assert len(empty_memo) == 0

    def test_least_recently_used_shape_goes_first(self, empty_memo,
                                                  monkeypatch):
        shapes = ["SELECT ra FROM PhotoObj WHERE ra > 1",
                  "SELECT dec FROM PhotoObj WHERE dec > 1",
                  "SELECT u FROM PhotoObj WHERE u > 1"]
        monkeypatch.setattr(parser, "SHAPE_CHARS",
                            len(shapes[0]) + len(shapes[1]))
        parse(shapes[0])
        parse(shapes[1])
        parse(shapes[0].replace("1", "2"))   # a hit touches shape 0
        parse(shapes[2])                     # evicts shape 1
        held = [empty_memo.get(scan(sql)[0]) is not None for sql in shapes]
        assert held == [True, False, True]

    def test_a_statement_longer_than_the_bound_is_not_held(
            self, empty_memo, monkeypatch):
        monkeypatch.setattr(parser, "SHAPE_CHARS", 10)
        parse("SELECT ra FROM PhotoObj")
        assert len(empty_memo) == 0

    def test_a_tree_holding_one_node_twice_is_not_held(self):
        # Rebinding one occurrence would leave the other stale, so such
        # a tree (the parser builds none) is refused.
        literal = ast.Literal(1)
        statement = ast.SelectStatement(
            (ast.SelectItem(literal), ast.SelectItem(literal)))
        slots = {id(literal): (literal, [("value", 1, 0)])}
        assert parser._Shape.of(statement, slots, [], 10) is None

    def test_literal_free_statement_is_shared_whole(self, empty_memo):
        sql = "SELECT ra FROM PhotoObj"
        assert parse(sql) is parse(sql + " ")

    def test_a_long_arithmetic_chain_binds(self, empty_memo):
        # The chain nests no deeper than MAX_NESTING counts, but its
        # AST is 3,000 nodes deep: holding and binding walk it without
        # recursion.
        def chain(last):
            return ("SELECT ra FROM PhotoObj WHERE ra > "
                    + "1 + " * 3000 + str(last))

        parse(chain(7))
        statement = parse(chain(9))
        assert len(empty_memo) == 1
        assert statement.where.right.right == ast.Literal(9)


class TestThreads:
    def test_concurrent_parses_answer_as_the_descent(self, empty_memo,
                                                     monkeypatch):
        # The memo is process-wide: threads that parse while it evicts
        # must neither answer wrongly nor lose count of what it holds.
        import sys
        import threading

        workload = generate_workload(WorkloadConfig(n_queries=400, seed=3))
        statements = workload.log.statements()
        expected = [outcome(uncached, sql) for sql in statements]
        monkeypatch.setattr(parser, "SHAPE_CHARS", 600)
        wrong = []

        def work(offset):
            for k in range(len(statements)):
                index = (k * 7 + offset) % len(statements)
                if outcome(parse, statements[index]) != expected[index]:
                    wrong.append(statements[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        held = list(empty_memo._shapes.values())
        assert held and empty_memo._chars == sum(s.size for s in held)
        assert empty_memo._chars <= 600
