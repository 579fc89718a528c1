"""NNF and CNF conversion, incl. the 35-predicate workaround."""

import gc
import weakref

import pytest

from repro.algebra.boolexpr import (FALSE, TRUE, Not, atom, make_and,
                                    make_not, make_or)
from repro.algebra.cnf import (CNF, Clause, CNFConversionError, to_cnf,
                               truncate_predicates)
from repro.algebra.nnf import to_nnf
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)


def p(col: str, op: Op, value):
    return atom(ColumnConstantPredicate(ColumnRef("T", col), op, value))


class TestNNF:
    def test_pushes_not_through_and(self):
        expr = to_nnf(make_not(make_and([p("u", Op.GT, 5),
                                         p("v", Op.LE, 10)])))
        # De Morgan: OR of inverted atoms.
        assert str(expr) == "T.u <= 5 OR T.v > 10"

    def test_pushes_not_through_or(self):
        expr = to_nnf(Not(make_or([p("u", Op.GT, 5), p("v", Op.LE, 10)])))
        assert str(expr) == "T.u <= 5 AND T.v > 10"

    def test_no_not_nodes_remain(self):
        expr = Not(make_or([Not(p("u", Op.GT, 1)),
                            make_and([p("v", Op.LT, 2),
                                      Not(p("w", Op.EQ, 3))])]))
        nnf = to_nnf(expr)

        def has_not(node):
            if isinstance(node, Not):
                return True
            children = getattr(node, "children", ())
            return any(has_not(c) for c in children)

        assert not has_not(nnf)

    def test_constants(self):
        assert to_nnf(Not(TRUE)) is FALSE
        assert to_nnf(Not(FALSE)) is TRUE


class TestClause:
    def test_of_deduplicates(self):
        pred = ColumnConstantPredicate(ColumnRef("T", "u"), Op.GT, 1)
        clause = Clause.of([pred, pred])
        assert len(clause) == 1

    def test_subsumes(self):
        a = ColumnConstantPredicate(ColumnRef("T", "u"), Op.GT, 1)
        b = ColumnConstantPredicate(ColumnRef("T", "v"), Op.LT, 2)
        assert Clause.of([a]).subsumes(Clause.of([a, b]))
        assert not Clause.of([a, b]).subsumes(Clause.of([a]))

    def test_str_empty_clause_is_false(self):
        assert str(Clause(())) == "FALSE"


class TestRenderingLifetime:
    def test_converted_predicate_is_freed(self):
        # to_cnf's predicate renderings live for one call: once its
        # output is dropped, nothing holds a predicate it rendered.
        kept = ColumnConstantPredicate(ColumnRef("T", "u"), Op.GT, 31.5)
        expr = make_or([make_and([atom(kept), p("v", Op.LT, 2)]),
                        p("w", Op.EQ, 3)])
        cnf = to_cnf(expr)
        assert str(cnf) == "(T.u > 31.5 OR T.w = 3) AND (T.v < 2 OR T.w = 3)"
        assert str(to_cnf(expr)) == str(cnf)
        freed = weakref.ref(kept)
        del kept, expr, cnf
        gc.collect()
        assert freed() is None

    def test_equal_predicates_in_one_clause_collapse(self):
        # 5 == 5.0: equal predicates share their first rendering.
        clause = Clause.of([p("u", Op.GT, 5).predicate,
                            p("u", Op.GT, 5.0).predicate])
        assert len(clause) == 1


class TestToCNF:
    def test_atom(self):
        cnf = to_cnf(p("u", Op.GT, 1))
        assert len(cnf) == 1 and cnf.clauses[0].is_unit

    def test_conjunction(self):
        cnf = to_cnf(make_and([p("u", Op.GT, 1), p("v", Op.LT, 2)]))
        assert len(cnf) == 2

    def test_disjunction_single_clause(self):
        cnf = to_cnf(make_or([p("u", Op.GT, 1), p("v", Op.LT, 2)]))
        assert len(cnf) == 1 and len(cnf.clauses[0]) == 2

    def test_distribution(self):
        # (a AND b) OR c  ==>  (a OR c) AND (b OR c)
        cnf = to_cnf(make_or([
            make_and([p("u", Op.GT, 1), p("v", Op.LT, 2)]),
            p("w", Op.EQ, 3),
        ]))
        assert len(cnf) == 2
        assert all(len(clause) == 2 for clause in cnf)

    def test_true_yields_empty_cnf(self):
        assert to_cnf(TRUE).is_true

    def test_false_yields_empty_clause(self):
        cnf = to_cnf(FALSE)
        assert len(cnf) == 1 and len(cnf.clauses[0]) == 0

    def test_subsumed_clauses_dropped(self):
        # (a) AND (a OR b) simplifies to (a).
        a = p("u", Op.GT, 1)
        b = p("v", Op.LT, 2)
        cnf = to_cnf(make_and([a, make_or([a, b])]))
        assert len(cnf) == 1

    def test_not_handled_via_nnf(self):
        cnf = to_cnf(make_not(make_and([p("u", Op.GT, 5),
                                        p("v", Op.LE, 10)])))
        assert str(cnf) == "(T.u <= 5 OR T.v > 10)"

    def test_equivalence_by_truth_table(self):
        # Distribution over a nontrivial tree must preserve semantics.
        a, b, c, d = (p(col, Op.GT, 0) for col in "uvwx")
        expr = make_or([make_and([a, b]), make_and([c, d])])
        cnf = to_cnf(expr, max_predicates=None)
        preds = sorted({str(q) for q in expr.atoms()})
        for mask in range(2 ** len(preds)):
            env = {name: bool(mask >> i & 1)
                   for i, name in enumerate(preds)}
            assert _eval_expr(expr, env) == _eval_cnf(cnf, env)


class TestPredicateCap:
    def _wide_or(self, n: int):
        return make_or([p("u", Op.EQ, i) for i in range(n)])

    def test_truncation_widens(self):
        expr = make_and([self._wide_or(3), p("v", Op.GT, 0)])
        truncated = truncate_predicates(expr, 3)
        # The 4th predicate leaf became TRUE, absorbing nothing fatal.
        assert truncated.count_atoms() <= 3

    def test_cap_applies(self):
        # AND of many ORs would blow up; the cap keeps it bounded.
        expr = make_and([
            make_or([p("u", Op.EQ, i), p("v", Op.EQ, i)])
            for i in range(40)
        ])
        cnf = to_cnf(expr, max_predicates=35)
        assert cnf.count_predicates() <= 36

    def test_no_cap_raises_on_blowup(self):
        # OR of ANDs: CNF size is 2^n clauses; must hit the safety limit.
        expr = make_or([
            make_and([p("u", Op.EQ, i), p("v", Op.EQ, i)])
            for i in range(25)
        ])
        with pytest.raises(CNFConversionError):
            to_cnf(expr, max_predicates=None, max_clauses=10_000)

    def test_cap_none_small_input_ok(self):
        cnf = to_cnf(make_and([p("u", Op.GT, 1)]), max_predicates=None)
        assert len(cnf) == 1


class TestCNFContainer:
    def test_conjoin(self):
        a = to_cnf(p("u", Op.GT, 1))
        b = to_cnf(p("v", Op.LT, 2))
        assert len(a.conjoin(b)) == 2

    def test_roundtrip_boolexpr(self):
        expr = make_and([p("u", Op.GT, 1),
                         make_or([p("v", Op.LT, 2), p("w", Op.EQ, 3)])])
        cnf = to_cnf(expr)
        again = to_cnf(cnf.to_boolexpr())
        assert str(cnf) == str(again)

    def test_of_deduplicates_clauses(self):
        clause = Clause.of(
            [ColumnConstantPredicate(ColumnRef("T", "u"), Op.GT, 1)])
        cnf = CNF.of([clause, clause])
        assert len(cnf) == 1


def _eval_expr(expr, env) -> bool:
    from repro.algebra.boolexpr import And, Atom, Or
    if expr is TRUE:
        return True
    if expr is FALSE:
        return False
    if isinstance(expr, Atom):
        return env[str(expr.predicate)]
    if isinstance(expr, And):
        return all(_eval_expr(c, env) for c in expr.children)
    if isinstance(expr, Or):
        return any(_eval_expr(c, env) for c in expr.children)
    raise AssertionError(f"unexpected node {expr}")


def _eval_cnf(cnf, env) -> bool:
    return all(any(env[str(pred)] for pred in clause) for clause in cnf)
