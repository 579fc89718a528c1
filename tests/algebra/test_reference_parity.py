"""The CNF tail and consolidation against the oracle they replaced.

:mod:`tests.algebra.reference` keeps the first implementations of
``Clause.of``, ``CNF.of``, ``_drop_subsumed``, ``to_cnf`` and
``consolidate``.  The ones in :mod:`repro.algebra` skip the redundancy
sweep for unit clauses, build each footprint once and build one-predicate
clauses without rendering; everything they return must be the same as the
oracle's, down to the pickled bytes: the same clauses in the same order,
holding the same constant objects, and the same
:class:`~repro.algebra.consolidate.ConsolidationStats`.
"""

import importlib
import math
import pickle
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.boolexpr import atom, make_and, make_not, make_or
from repro.algebra.cnf import CNF, Clause, to_cnf
from repro.algebra.consolidate import consolidate
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef, Op)
from repro.core.extractor import AccessAreaExtractor
from repro.qa.corpus import build_state, load_case
from repro.schema import skyserver_schema
from repro.workload import WorkloadConfig, generate_workload, table1_families
from tests.algebra import reference
from tests.algebra.algebra_sweep import consolidation, mismatch

cnf_module = importlib.import_module("repro.algebra.cnf")
extractor_module = importlib.import_module("repro.core.extractor")

# -- strategies ---------------------------------------------------------------

#: Two equal ``T.u`` objects: a rebuilt bound must hold the one the
#: oracle's would, which the pickle's memo tells apart.
_REFS = [ColumnRef("T", "u"), ColumnRef("T", "u"), ColumnRef("T", "v"),
         ColumnRef("S", "w")]

_BIG = 2 ** 53 + 1
_NUMBERS = [
    -2, 0, 1, 3, 5, 5.0, 0.0, -0.0, 2.5, -1,
    # ties across types: 5 == 5.0, 0.0 == -0.0, True == 1
    True, False,
    # integers past 2**53, and the float next to them
    _BIG, _BIG + 2, float(2 ** 53), 2 ** 64,
    # rays that reach an infinity (``x < 1e400``) and NaN (``1e400 -
    # 1e400`` folds to it)
    math.inf, -math.inf, math.nan, float("nan"),
]
_STRINGS = ["a", "b", "x"]


@st.composite
def predicates(draw):
    if draw(st.integers(0, 9)) == 0:
        left, right = draw(st.lists(st.sampled_from(_REFS[1:]), min_size=2,
                                    max_size=2, unique=True))
        return ColumnColumnPredicate(left, draw(st.sampled_from(list(Op))),
                                     right)
    ref = draw(st.sampled_from(_REFS))
    op = draw(st.sampled_from(list(Op)))
    value = draw(st.sampled_from(_NUMBERS + _STRINGS)
                 if ref.column != "v" else st.sampled_from(_STRINGS))
    return ColumnConstantPredicate(ref, op, value)


#: Equal constants that render apart, and constants whose renderings
#: sort between theirs (``-1`` between ``-0.0`` and ``0.0``).
_TIES = [0.0, -0.0, -1, 5, 5.0, 6, True, 1, 2]


@st.composite
def tied_predicates(draw):
    """Predicates on one column that are often equal but render apart:
    which of them a clause keeps, and where it sorts, depends on which
    was rendered first."""
    return ColumnConstantPredicate(_REFS[draw(st.integers(0, 1))],
                                   draw(st.sampled_from([Op.GT, Op.EQ])),
                                   draw(st.sampled_from(_TIES)))


any_predicates = st.one_of(predicates(), tied_predicates())


@st.composite
def bool_exprs(draw, depth=3):
    kind = draw(st.integers(0, 3)) if depth else 0
    if kind == 0:
        return atom(draw(any_predicates))
    if kind == 1:
        return make_not(draw(bool_exprs(depth=depth - 1)))
    children = draw(st.lists(bool_exprs(depth=depth - 1), min_size=1,
                             max_size=4))
    return make_and(children) if kind == 2 else make_or(children)


def _tied(value):
    return atom(ColumnConstantPredicate(_REFS[0], Op.GT, value))


#: Clauses as consolidation may meet them: mostly units, some of several
#: predicates (repeats included) and the empty clause.
clauses = st.one_of(
    predicates().map(lambda p: Clause((p,))),
    predicates().map(lambda p: Clause((p,))),
    st.lists(predicates(), max_size=4).map(tuple).map(Clause),
    st.lists(predicates(), min_size=2, max_size=4).map(Clause.of),
)
cnfs = st.lists(clauses, max_size=8).map(tuple).map(CNF)


def outcome(fn, *args):
    """Pickle and ``repr`` of ``fn(*args)``, or the exception's type and
    message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return pickle.dumps(value), repr(value)


# -- the CNF tail -------------------------------------------------------------

class TestCNFTail:
    @settings(max_examples=400, deadline=None)
    @given(bool_exprs(), st.sampled_from([None, 3, 35]))
    @example(make_and([make_or([_tied(-0.0), atom(ColumnConstantPredicate(
                                   _REFS[3], Op.GT, 7))]),
                       make_or([_tied(0.0), _tied(-1)])]),
             None)
    def test_to_cnf(self, expr, cap):
        # The example: ``T.u > 0.0`` sorts in its clause by the first
        # rendering of an equal predicate, ``T.u > -0.0``, so before
        # ``T.u > -1``.
        assert outcome(to_cnf, expr, cap) == \
            outcome(reference.to_cnf, expr, cap)

    @settings(max_examples=300, deadline=None)
    @given(bool_exprs())
    @example(make_and([_tied(-0.0), make_or([_tied(0.0), _tied(-1)])]))
    def test_to_cnf_past_the_subsumption_limit(self, expr):
        # The example: the unit ``T.u > -0.0`` no longer subsumes the
        # clause of ``T.u > 0.0``, which sorts by the unit's rendering.
        with mock.patch.object(cnf_module, "_SUBSUMPTION_LIMIT", 0):
            assert outcome(to_cnf, expr) == outcome(reference.to_cnf, expr)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(any_predicates, max_size=4), max_size=6))
    def test_clause_of_with_a_shared_memo(self, groups):
        ours: dict = {}
        theirs: dict = {}
        for group in groups:
            assert outcome(Clause.of, group, ours) == \
                outcome(reference.clause_of, group, theirs)
            assert outcome(Clause.of, group) == \
                outcome(reference.clause_of, group)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(any_predicates, min_size=1, max_size=3)
                    .map(Clause.of), max_size=10))
    @example([Clause.of([_tied(0.0).predicate, _tied(-1).predicate]),
              Clause.of([_tied(-0.0).predicate, _tied(-1).predicate])])
    def test_drop_subsumed(self, clause_list):
        # The example: two clauses of equal predicate sets in different
        # orders; one subsumes the other.
        assert cnf_module._drop_subsumed(clause_list) == \
            reference.drop_subsumed(clause_list)

    def test_drop_subsumed_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(cnf_module, "_SUBSUMPTION_LIMIT", 2)
        a, b, c = (ColumnConstantPredicate(_REFS[0], Op.GT, n)
                   for n in (1, 2, 3))
        clause_list = [Clause((a,)), Clause.of([a, b]), Clause((c,))]
        assert cnf_module._drop_subsumed(clause_list) == \
            reference.drop_subsumed(clause_list)
        assert len(cnf_module._drop_subsumed(clause_list)) == 3


# -- consolidation ------------------------------------------------------------

class TestConsolidation:
    @settings(max_examples=600, deadline=None)
    @given(cnfs)
    def test_any_cnf(self, cnf):
        assert consolidation(consolidate, cnf) == \
            consolidation(reference.consolidate, cnf)

    @settings(max_examples=400, deadline=None)
    @given(bool_exprs())
    def test_converted_cnf(self, expr):
        cnf = reference.to_cnf(expr)
        assert consolidation(consolidate, cnf) == \
            consolidation(reference.consolidate, cnf)

    @pytest.mark.parametrize("clause_list", [
        # a unit ray to an infinity is TRUE; its twin over NaN is not
        [(_REFS[0], Op.LT, math.inf), (_REFS[3], Op.GE, -math.inf),
         (_REFS[0], Op.LT, math.nan)],
        # equal bounds of two types: the first one's object survives
        [(_REFS[0], Op.GE, 5), (_REFS[1], Op.GE, 5.0),
         (_REFS[1], Op.LE, 5.0), (_REFS[0], Op.LE, 5)],
        [(_REFS[0], Op.GT, 0.0), (_REFS[0], Op.GT, -0.0),
         (_REFS[0], Op.LT, _BIG), (_REFS[0], Op.LT, float(2 ** 53))],
        # a disconnected footprint keeps its clauses; a contradiction
        [(_REFS[0], Op.NE, 3), (_REFS[0], Op.GT, 1)],
        [(_REFS[0], Op.GT, 3), (_REFS[0], Op.LT, 3)],
        # categorical sets, and a boolean constant that merges with none
        [(_REFS[2], Op.NE, "b"), (_REFS[2], Op.NE, "a"),
         (_REFS[2], Op.LT, "x"), (_REFS[0], Op.EQ, True)],
        [(_REFS[2], Op.EQ, "a"), (_REFS[2], Op.NE, "a")],
    ])
    def test_pinned_cnfs(self, clause_list):
        cnf = CNF(tuple(Clause((ColumnConstantPredicate(*args),))
                        for args in clause_list))
        assert consolidation(consolidate, cnf) == \
            consolidation(reference.consolidate, cnf)

    def test_true_units_count(self):
        cnf = CNF((Clause((ColumnConstantPredicate(_REFS[0], Op.LT,
                                                   math.inf),)),
                   Clause((ColumnConstantPredicate(_REFS[3], Op.GE,
                                                   -math.inf),))))
        result = consolidate(cnf)
        assert result.cnf.is_true
        assert result.stats.removed_true_clauses == 2

    def test_empty_clause_is_unsatisfiable(self):
        unit = Clause((ColumnConstantPredicate(_REFS[0], Op.GT, 1),))
        result = consolidate(CNF((unit, Clause(()))))
        assert result.stats.contradiction
        assert result.cnf == CNF((Clause(()),))


# -- extraction over the corpora ----------------------------------------------

def _assert_alike(extractor, statements):
    for sql in statements:
        found = mismatch(extractor, sql)
        assert found is None, (sql, found)


class TestCorpus:
    @pytest.mark.parametrize("seed", [1, 2, 3, 13])
    def test_generator_logs(self, seed):
        workload = generate_workload(WorkloadConfig(n_queries=1500,
                                                    seed=seed))
        _assert_alike(AccessAreaExtractor(skyserver_schema()),
                      workload.log.statements())

    def test_table1_families(self):
        rng = random.Random(29)
        _assert_alike(AccessAreaExtractor(skyserver_schema()),
                      [family.generate(rng) for family in table1_families()
                       for _ in range(25)])

    def test_qa_corpus(self):
        paths = sorted((Path(__file__).parents[1] / "qa" / "corpus")
                       .glob("*.json"))
        assert paths
        for path in paths:
            case = load_case(path)
            schema, _ = build_state(case)
            _assert_alike(AccessAreaExtractor(schema), [case.sql])


class TestRoutedExtraction:
    def test_no_held_shape_answers_inside_the_oracle_context(self):
        """Inside :func:`reference.extracting_with_reference` every
        extraction converts its constraint through the oracle's
        ``to_cnf``, even one whose shape the extractor holds."""
        extractor = AccessAreaExtractor(skyserver_schema())
        extractor.extract("SELECT * FROM PhotoObjAll WHERE ra > 5")
        converted = []
        with reference.extracting_with_reference():
            oracle = extractor_module.to_cnf

            def counting(*args, **kwargs):
                converted.append(args[0])
                return oracle(*args, **kwargs)

            with mock.patch.object(extractor_module, "to_cnf", counting):
                for value in (6, 7):
                    extractor.extract(
                        f"SELECT * FROM PhotoObjAll WHERE ra > {value}")
        assert len(converted) == 2

