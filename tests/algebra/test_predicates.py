"""Atomic predicates: negation, footprints, evaluation, canonical order."""

import pytest

from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)

T_U = ColumnRef("T", "u")
S_U = ColumnRef("S", "u")


class TestOp:
    def test_negations_are_involutions(self):
        for op in Op:
            assert op.negate().negate() is op

    def test_negate_table(self):
        assert Op.LT.negate() is Op.GE
        assert Op.LE.negate() is Op.GT
        assert Op.EQ.negate() is Op.NE

    def test_flip(self):
        assert Op.LT.flip() is Op.GT
        assert Op.GE.flip() is Op.LE
        assert Op.EQ.flip() is Op.EQ
        assert Op.NE.flip() is Op.NE


class TestColumnConstantPredicate:
    def test_negate_inverts_operator(self):
        pred = ColumnConstantPredicate(T_U, Op.GT, 5)
        assert pred.negate() == ColumnConstantPredicate(T_U, Op.LE, 5)

    def test_footprint_lt(self):
        fp = ColumnConstantPredicate(T_U, Op.LT, 3).to_interval_set()
        assert fp.contains(2.999) and not fp.contains(3)

    def test_footprint_le(self):
        fp = ColumnConstantPredicate(T_U, Op.LE, 3).to_interval_set()
        assert fp.contains(3) and not fp.contains(3.001)

    def test_footprint_eq_is_point(self):
        fp = ColumnConstantPredicate(T_U, Op.EQ, 3).to_interval_set()
        assert fp.contains(3) and not fp.contains(3.0001)
        assert fp.total_width == 0

    def test_footprint_ne_has_two_pieces(self):
        fp = ColumnConstantPredicate(T_U, Op.NE, 3).to_interval_set()
        assert len(fp) == 2
        assert fp.contains(2) and fp.contains(4) and not fp.contains(3)

    def test_footprint_preserves_big_ints(self):
        # int64 ids exceed the float mantissa; the footprint must not
        # round them.
        big = 1_237_657_855_534_432_934
        fp = ColumnConstantPredicate(T_U, Op.EQ, big).to_interval_set()
        assert fp.intervals[0].lo == big

    def test_footprint_categorical_raises(self):
        pred = ColumnConstantPredicate(T_U, Op.EQ, "star")
        with pytest.raises(TypeError):
            pred.to_interval_set()

    def test_is_numeric(self):
        assert ColumnConstantPredicate(T_U, Op.EQ, 1).is_numeric
        assert ColumnConstantPredicate(T_U, Op.EQ, 1.5).is_numeric
        assert not ColumnConstantPredicate(T_U, Op.EQ, "x").is_numeric
        assert not ColumnConstantPredicate(T_U, Op.EQ, True).is_numeric

    @pytest.mark.parametrize("op,value,probe,expected", [
        (Op.LT, 5, 4, True), (Op.LT, 5, 5, False),
        (Op.LE, 5, 5, True), (Op.GT, 5, 5, False),
        (Op.GE, 5, 5, True), (Op.EQ, 5, 5, True),
        (Op.NE, 5, 4, True), (Op.NE, 5, 5, False),
    ])
    def test_evaluate(self, op, value, probe, expected):
        assert ColumnConstantPredicate(T_U, op, value) \
            .evaluate(probe) is expected

    def test_evaluate_null_is_false(self):
        pred = ColumnConstantPredicate(T_U, Op.NE, 5)
        assert pred.evaluate(None) is False

    def test_str(self):
        assert str(ColumnConstantPredicate(T_U, Op.GT, 5)) == "T.u > 5"
        assert str(ColumnConstantPredicate(T_U, Op.EQ, "x")) == "T.u = 'x'"

    @pytest.mark.parametrize("value", [
        "x", "it's", 'say "hi"', "", "a\\b", True, False, 0, -3,
        2 ** 53 + 1, -(2 ** 64), 2.5, -0.0, 0.0, float("inf"),
        float("-inf"), float("nan"), 1e300, 5.0])
    @pytest.mark.parametrize("op", list(Op))
    def test_str_spells_ref_operator_and_constant(self, op, value):
        # The rendering CNF canonicalization sorts by: the qualified
        # column, the operator's symbol and the constant (quoted when a
        # string), as ColumnRef, Op and the constant format themselves.
        ref = ColumnRef("Photo Obj", "r'a")
        constant = repr(value) if isinstance(value, str) else value
        assert str(ColumnConstantPredicate(ref, op, value)) == \
            f"{ref} {op} {constant}"


class TestColumnColumnPredicate:
    def test_canonical_operand_order(self):
        a = ColumnColumnPredicate(T_U, Op.EQ, S_U)
        b = ColumnColumnPredicate(S_U, Op.EQ, T_U)
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_order_flips_operator(self):
        pred = ColumnColumnPredicate(T_U, Op.LT, S_U)
        # S.u sorts before T.u, so the stored form is S.u > T.u.
        assert pred.left == S_U and pred.op is Op.GT

    def test_negate(self):
        pred = ColumnColumnPredicate(S_U, Op.EQ, T_U)
        assert pred.negate().op is Op.NE

    def test_relations(self):
        pred = ColumnColumnPredicate(T_U, Op.EQ, S_U)
        assert pred.relations == frozenset({"T", "S"})

    def test_is_equijoin(self):
        assert ColumnColumnPredicate(T_U, Op.EQ, S_U).is_equijoin
        assert not ColumnColumnPredicate(T_U, Op.LT, S_U).is_equijoin

    def test_evaluate(self):
        pred = ColumnColumnPredicate(S_U, Op.EQ, T_U)
        assert pred.evaluate(3, 3)
        assert not pred.evaluate(3, 4)
        assert not pred.evaluate(None, 3)
