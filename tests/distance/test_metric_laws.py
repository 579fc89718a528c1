"""Property-based metric-law battery for ``d = d_tables + d_conj``.

The clustering stage treats the query distance as a metric-like
dissimilarity; the matrix engine additionally relies on two exact
invariants — bitwise symmetry (a condensed matrix stores each pair
once) and the partition bound ``d ≥ d_tables ≥ 0.5`` for differing
relation sets (the block-skipping rule).  These laws are asserted
*exactly*, not approximately: ``d_conj``/``d_disj`` accumulate their
two directional sums separately precisely so that symmetry survives
float summation order.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)


def _stats():
    schema = Schema("laws")
    schema.add(Relation("T", (
        Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("b", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("s", ColumnType.VARCHAR, categories=("x", "y", "z")),
    )))
    schema.add(Relation("S", (
        Column("c", ColumnType.FLOAT, Interval(0.0, 10.0)),
    )))
    schema.add(Relation("R", (
        Column("d", ColumnType.FLOAT, Interval(-1.0, 1.0)),
    )))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "a"): Interval(0.0, 5.0),
        ("T", "b"): Interval(0.0, 5.0),
        ("S", "c"): Interval(0.0, 10.0),
        ("R", "d"): Interval(-1.0, 1.0),
    })


STATS = _stats()
DISTANCE = QueryDistance(STATS)

_numeric_refs = st.sampled_from([ColumnRef("T", "a"), ColumnRef("T", "b"),
                                 ColumnRef("S", "c"), ColumnRef("R", "d")])
_ops = st.sampled_from([Op.LT, Op.LE, Op.EQ, Op.GT, Op.GE, Op.NE])
_numeric_values = st.one_of(
    st.integers(min_value=-2, max_value=11),
    st.floats(min_value=-2.0, max_value=11.0,
              allow_nan=False, allow_infinity=False))

_numeric_predicates = st.builds(
    ColumnConstantPredicate, _numeric_refs, _ops, _numeric_values)
_categorical_predicates = st.builds(
    ColumnConstantPredicate,
    st.just(ColumnRef("T", "s")),
    st.sampled_from([Op.EQ, Op.NE]),
    st.sampled_from(["x", "y", "z", "w"]))
predicates = st.one_of(_numeric_predicates, _categorical_predicates)
clauses = st.lists(predicates, min_size=1, max_size=3).map(Clause.of)


@st.composite
def areas(draw):
    """Random access areas, including table sets beyond the CNF's own."""
    clause_list = draw(st.lists(clauses, min_size=0, max_size=4))
    relations = {pred.ref.relation
                 for clause in clause_list for pred in clause}
    relations |= set(draw(st.lists(
        st.sampled_from(["T", "S", "R"]), max_size=2)))
    if not relations:
        relations = {draw(st.sampled_from(["T", "S", "R"]))}
    return AccessArea(tuple(relations), CNF.of(clause_list))


@settings(max_examples=200, deadline=None)
@given(areas(), areas())
def test_symmetry_exact(q1, q2):
    """d(a, b) == d(b, a) bitwise — the condensed matrix stores one value."""
    assert DISTANCE(q1, q2) == DISTANCE(q2, q1)


@settings(max_examples=150, deadline=None)
@given(areas())
def test_identity(q):
    assert DISTANCE(q, q) == 0.0


@settings(max_examples=200, deadline=None)
@given(areas(), areas())
def test_range_bound(q1, q2):
    value = DISTANCE(q1, q2)
    assert 0.0 <= value <= 2.0


@st.composite
def small_table_set_areas(draw):
    """Areas over at most two relations (drawn from {T, S})."""
    area = draw(areas())
    relations = tuple(draw(st.sets(st.sampled_from(["T", "S"]),
                                   min_size=1, max_size=2)))
    return AccessArea(relations, area.cnf)


@settings(max_examples=200, deadline=None)
@given(small_table_set_areas(), small_table_set_areas())
def test_partition_bound(q1, q2):
    """d ≥ 0.5 whenever the table sets differ (sets of ≤ 2 relations).

    The Jaccard distance of two distinct relation sets drawn from at
    most two tables is at least 0.5 (worst case {A} vs {A, B}) and
    ``d_conj ≥ 0`` — the invariant partitioned DBSCAN's ``eps < 0.5``
    exactness rests on.  The constant does NOT survive larger sets
    ({A, B} vs {A, B, C} is 1/3 apart): see the sharp-bound test below,
    and note the matrix engine's block skipping never assumes 0.5 — it
    compares each pair's actual ``d_tables`` against the cutoff.
    """
    assume(q1.table_set != q2.table_set)
    assert DISTANCE(q1, q2) >= 0.5


@settings(max_examples=200, deadline=None)
@given(areas(), areas())
def test_partition_bound_sharp(q1, q2):
    """The general bound: differing table sets are ≥ 1/|union| apart."""
    assume(q1.table_set != q2.table_set)
    union = q1.table_set | q2.table_set
    assert DISTANCE(q1, q2) >= 1.0 / len(union)


@settings(max_examples=150, deadline=None)
@given(areas(), areas())
def test_table_component_is_lower_bound(q1, q2):
    """d ≥ d_tables exactly (d_conj never goes negative)."""
    assert DISTANCE(q1, q2) >= DISTANCE.d_tables(q1, q2)


@settings(max_examples=150, deadline=None)
@given(predicates, predicates)
def test_predicate_distance_laws(p1, p2):
    value = DISTANCE.d_pred(p1, p2)
    assert 0.0 <= value <= 1.0
    assert DISTANCE.d_pred(p2, p1) == value
    assert DISTANCE.d_pred(p1, p1) == 0.0


def test_triangle_inequality_fails():
    """The distance is only a semi-metric: symmetric with identity, but
    not triangle-inequal, so neighbour search must never prune with
    triangle arithmetic.  A = one clause near the left edge, C = one
    clause near the right edge, B = one clause near each: d(A,C) = 1
    while d(A,B) ≈ d(B,C) ≈ 0.38."""
    ref = ColumnRef("T", "a")

    def area(*bounds):
        return AccessArea(("T",), CNF.of([
            Clause.of([ColumnConstantPredicate(ref, op, value)])
            for op, value in bounds]))

    a = area((Op.LE, 0.25))
    c = area((Op.GE, 4.75))
    b = area((Op.LE, 0.275), (Op.GE, 4.725))
    direct = DISTANCE.distance(a, c)
    two_hop = DISTANCE.distance(a, b) + DISTANCE.distance(b, c)
    assert direct > two_hop, \
        "expected a triangle violation; the distance became a metric"
