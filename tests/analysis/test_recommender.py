"""Interest-area recommendation (QueRIE-style)."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.recommend.recommender as recommender_module
from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import partitioned_dbscan
from repro.clustering.dbscan import DBSCANResult
from repro.core import AccessAreaExtractor
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.distance.kernel import PackedPartition
from repro.recommend import (InterestRecommender, Recommendation,
                             fit_recommender)
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)


@pytest.fixture(scope="module")
def fitted():
    schema = Schema("rec")
    schema.add(Relation("T", (
        Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    schema.add(Relation("S", (
        Column("y", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    stats = StatisticsCatalog.from_exact_content(schema, {
        ("T", "x"): Interval(0.0, 100.0),
        ("S", "y"): Interval(0.0, 100.0),
    })
    extractor = AccessAreaExtractor(schema)
    areas = []
    # Popular cluster: T.x around [10, 20] (12 queries).
    for i in range(12):
        areas.append(extractor.extract(
            f"SELECT * FROM T WHERE x BETWEEN {10 + i * 0.1:.1f} "
            f"AND {20 + i * 0.1:.1f}").area)
    # Second cluster: T.x around [60, 70] (8 queries).
    for i in range(8):
        areas.append(extractor.extract(
            f"SELECT * FROM T WHERE x BETWEEN {60 + i * 0.1:.1f} "
            f"AND {70 + i * 0.1:.1f}").area)
    # Cluster on another relation (6 queries).
    for i in range(6):
        areas.append(extractor.extract(
            f"SELECT * FROM S WHERE y BETWEEN {40 + i * 0.1:.1f} "
            f"AND {50 + i * 0.1:.1f}").area)
    distance_stats = stats
    clustering = partitioned_dbscan(
        areas,
        __import__("repro.distance", fromlist=["QueryDistance"])
        .QueryDistance(distance_stats, resolution=0.02),
        eps=0.2, min_pts=4)
    recommender = InterestRecommender(stats, extractor=extractor,
                                      resolution=0.02,
                                      min_cluster_size=4)
    recommender.fit(areas, clustering)
    return recommender


class TestFitting:
    def test_clusters_indexed(self, fitted):
        assert fitted.n_clusters == 3

    def test_popular_ordering(self, fitted):
        top = fitted.popular(k=3)
        assert [r.popularity for r in top] == \
            sorted((r.popularity for r in top), reverse=True)
        assert top[0].popularity == 12


class TestRecommendation:
    def test_nearest_cluster_first(self, fitted):
        area = fitted.extractor.extract(
            "SELECT * FROM T WHERE x BETWEEN 12 AND 19").area
        recs = fitted.recommend(area, k=3)
        assert recs
        first = recs[0].aggregated
        assert first.bounds[0].interval.lo < 25  # the [10,20] cluster

    def test_other_relation_ranked_last(self, fitted):
        area = fitted.extractor.extract(
            "SELECT * FROM T WHERE x BETWEEN 12 AND 19").area
        recs = fitted.recommend(area, k=3, max_distance=2.0)
        assert recs[-1].aggregated.relations == ("S",)

    def test_recommend_for_sql(self, fitted):
        recs = fitted.recommend_for_sql(
            "SELECT * FROM T WHERE x BETWEEN 58 AND 72", k=1)
        assert recs
        assert recs[0].aggregated.bounds[0].interval.lo > 50

    def test_max_distance_filters(self, fitted):
        area = fitted.extractor.extract(
            "SELECT * FROM T WHERE x BETWEEN 12 AND 19").area
        recs = fitted.recommend(area, k=5, max_distance=0.3)
        assert all(r.distance <= 0.3 for r in recs)

    def test_suggested_sql_is_executable_syntax(self, fitted):
        from repro.sqlparser import parse
        for rec in fitted.popular(k=3):
            parse(rec.suggested_sql)  # must not raise

    def test_exclude_exact_drops_own_cluster(self, fitted):
        medoid = fitted.popular(k=1)[0].medoid
        recs = fitted.recommend(medoid, k=5, exclude_exact=True)
        assert all(r.distance > 1e-9 for r in recs)

    def test_describe(self, fitted):
        rec = fitted.popular(k=1)[0]
        text = rec.describe()
        assert "queries" in text

    def test_requires_extractor_for_sql(self):
        schema = Schema("empty")
        stats = StatisticsCatalog.from_exact_content(schema, {})
        bare = InterestRecommender(stats)
        with pytest.raises(ValueError):
            bare.recommend_for_sql("SELECT 1")

    def test_popular_distance_is_none(self, fitted):
        # Regression: popular() used to stamp float("nan"), which
        # breaks JSON serialization and every == comparison downstream.
        rec = fitted.popular(k=1)[0]
        assert rec.distance is None

    def test_popular_describe_renders_popular(self, fitted):
        text = fitted.popular(k=1)[0].describe()
        assert text.startswith("(popular, ")
        assert "nan" not in text

    def test_recommend_describe_renders_distance(self, fitted):
        area = fitted.extractor.extract(
            "SELECT * FROM T WHERE x BETWEEN 12 AND 19").area
        text = fitted.recommend(area, k=1)[0].describe()
        assert text.startswith("(d=")


def _interval_area(extractor, relation, column, lo, hi):
    return extractor.extract(
        f"SELECT * FROM {relation} WHERE {column} BETWEEN "
        f"{lo:.2f} AND {hi:.2f}").area


@pytest.fixture(scope="module")
def small_world():
    schema = Schema("recw")
    schema.add(Relation("T", (
        Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    stats = StatisticsCatalog.from_exact_content(schema, {
        ("T", "x"): Interval(0.0, 100.0),
    })
    return schema, stats, AccessAreaExtractor(schema)


class TestWeightedFit:
    """``fit(..., weights=...)`` must treat a weight-w unique area
    exactly like w expanded copies — aggregation support, medoid cost,
    popularity, and min_cluster_size all count multiplicity."""

    def _fit(self, stats, extractor, areas, labels, weights=None,
             min_cluster_size=4):
        from repro.clustering.dbscan import DBSCANResult
        rec = InterestRecommender(stats, extractor=extractor,
                                  resolution=0.02,
                                  min_cluster_size=min_cluster_size)
        rec.fit(areas, DBSCANResult(list(labels)), weights=weights)
        return rec

    def test_popularity_is_weighted_cardinality(self, small_world):
        _, stats, extractor = small_world
        areas = [_interval_area(extractor, "T", "x", 10 + i, 20 + i)
                 for i in range(3)]
        rec = self._fit(stats, extractor, areas, [0, 0, 0],
                        weights=[7, 2, 1], min_cluster_size=4)
        assert rec.popular(k=1)[0].popularity == 10

    def test_min_cluster_size_counts_weights(self, small_world):
        _, stats, extractor = small_world
        areas = [_interval_area(extractor, "T", "x", 10, 20),
                 _interval_area(extractor, "T", "x", 11, 21)]
        starved = self._fit(stats, extractor, areas, [0, 0],
                            weights=[1, 1], min_cluster_size=4)
        assert starved.n_clusters == 0
        fed = self._fit(stats, extractor, areas, [0, 0],
                        weights=[3, 2], min_cluster_size=4)
        assert fed.n_clusters == 1

    def test_weights_length_validated(self, small_world):
        _, stats, extractor = small_world
        areas = [_interval_area(extractor, "T", "x", 10, 20)]
        with pytest.raises(ValueError, match="weights"):
            self._fit(stats, extractor, areas, [0], weights=[1, 2])

    def test_weighted_medoid_follows_multiplicity(self, small_world):
        """A dominant-weight member drags the medoid to itself."""
        _, stats, extractor = small_world
        areas = [_interval_area(extractor, "T", "x", 10, 20),
                 _interval_area(extractor, "T", "x", 30, 40),
                 _interval_area(extractor, "T", "x", 31, 41)]
        heavy_first = self._fit(stats, extractor, areas, [0, 0, 0],
                                weights=[50, 1, 1], min_cluster_size=1)
        assert heavy_first.popular(k=1)[0].medoid == areas[0]
        heavy_last = self._fit(stats, extractor, areas, [0, 0, 0],
                               weights=[1, 50, 50], min_cluster_size=1)
        assert heavy_last.popular(k=1)[0].medoid in (areas[1], areas[2])


class TestInternedExpandedParity:
    """Weighted-unique fits must be *bitwise identical* to fits over
    the expanded population (the intern-pool contract of PR 4, now
    extended through the recommender)."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=1, max_value=6)),
        min_size=2, max_size=10, unique_by=lambda t: t[0]))
    def test_bitwise_parity(self, spec):
        schema = Schema("parity")
        schema.add(Relation("T", (
            Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
        stats = StatisticsCatalog.from_exact_content(schema, {
            ("T", "x"): Interval(0.0, 100.0),
        })
        extractor = AccessAreaExtractor(schema)
        from repro.clustering.dbscan import DBSCANResult

        unique_areas, counts, unique_labels = [], [], []
        expanded_areas, expanded_labels = [], []
        for slot, count in spec:
            # Two well-separated groups of overlapping ranges.
            lo = 10.0 + slot if slot < 3 else 60.0 + slot
            area = _interval_area(extractor, "T", "x", lo, lo + 10)
            label = 0 if slot < 3 else 1
            unique_areas.append(area)
            counts.append(count)
            unique_labels.append(label)
            expanded_areas.extend([area] * count)
            expanded_labels.extend([label] * count)

        def fit(areas, labels, weights):
            rec = InterestRecommender(stats, extractor=extractor,
                                      resolution=0.02,
                                      min_cluster_size=1)
            rec.fit(areas, DBSCANResult(list(labels)), weights=weights)
            return rec

        weighted = fit(unique_areas, unique_labels, counts)
        expanded = fit(expanded_areas, expanded_labels, None)

        assert weighted.n_clusters == expanded.n_clusters
        w_pop = weighted.popular(k=10)
        e_pop = expanded.popular(k=10)
        assert [r.popularity for r in w_pop] == \
            [r.popularity for r in e_pop]
        assert [r.describe() for r in w_pop] == \
            [r.describe() for r in e_pop]
        assert [r.medoid for r in w_pop] == [r.medoid for r in e_pop]

        probe = _interval_area(extractor, "T", "x", 12.0, 23.0)
        w_recs = weighted.recommend(probe, k=10, exclude_exact=False)
        e_recs = expanded.recommend(probe, k=10, exclude_exact=False)
        assert [r.distance for r in w_recs] == \
            [r.distance for r in e_recs]  # bitwise, not approx
        assert [r.suggested_sql for r in w_recs] == \
            [r.suggested_sql for r in e_recs]


# -- the kernel path against the per-pair oracle -----------------------------


class _PerPairReference(InterestRecommender):
    """The per-pair reference: one metric call per candidate pair in
    ``_medoid`` and one per cluster in ``recommend``, all through one
    shared metric, with a stable sort by distance, then popularity."""

    def _medoid(self, members, weights, block=None):
        candidates = members[:25]
        counts = list(weights[:25])
        best, best_cost = candidates[0], float("inf")
        for candidate in candidates:
            cost = sum(count * self._distance(candidate, other)
                       for other, count in zip(candidates, counts))
            if cost < best_cost:
                best, best_cost = candidate, cost
        return best, None

    def recommend(self, area, k=5, max_distance=2.0, exclude_exact=True):
        scored = []
        for cluster in self._clusters:
            distance = self._distance(area, cluster.medoid)
            if distance > max_distance:
                continue
            if exclude_exact and distance < 1e-9:
                continue
            scored.append(Recommendation(
                aggregated=cluster.aggregated,
                distance=distance,
                popularity=cluster.aggregated.cardinality,
                suggested_sql=cluster.aggregated.to_sql(),
                medoid=cluster.medoid,
            ))
        scored.sort(key=lambda r: (r.distance, -r.popularity))
        return scored[:k]


def _parity_stats():
    schema = Schema("kernelrec")
    schema.add(Relation("T", (
        Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),
        Column("c", ColumnType.VARCHAR, categories=("a", "b", "c")),
        Column("flag", ColumnType.INT, Interval(0.0, 1.0)),
    )))
    schema.add(Relation("S", (
        Column("y", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "x"): Interval(0.0, 100.0),
        ("S", "y"): Interval(0.0, 100.0),
    })


T_X = ColumnRef("T", "x")
T_C = ColumnRef("T", "c")
T_FLAG = ColumnRef("T", "flag")
S_Y = ColumnRef("S", "y")

_numeric = st.builds(
    ColumnConstantPredicate, st.sampled_from([T_X, S_Y]),
    st.sampled_from(list(Op)),
    st.one_of(st.integers(min_value=-5, max_value=105),
              st.floats(min_value=-5.0, max_value=105.0),
              st.sampled_from([10, 10.0, 2 ** 60 + 1])))
_categorical = st.builds(
    ColumnConstantPredicate, st.just(T_C),
    st.sampled_from([Op.EQ, Op.NE, Op.LT]), st.sampled_from("abcd"))
_join = st.builds(ColumnColumnPredicate, st.just(T_X),
                  st.sampled_from([Op.EQ, Op.LT]), st.just(S_Y))
# Constants the kernel refuses (KernelUnsupported) that the metric and
# the aggregation still evaluate (an infinite point or an empty ray
# raises in both, kernel or not).  Booleans live on their own column:
# ``True == 1`` makes the metric's predicate-pair memo answer by
# evaluation order there, which no reference that skips calls can
# replay (see TestBoolAndIntOnOneColumn).
_unsupported = st.sampled_from([
    ColumnConstantPredicate(T_X, Op.EQ, math.nan),
    ColumnConstantPredicate(S_Y, Op.GE, math.nan),
    ColumnConstantPredicate(T_X, Op.LT, math.inf),
    ColumnConstantPredicate(S_Y, Op.LE, math.inf),
    ColumnConstantPredicate(T_X, Op.GT, -math.inf),
    ColumnConstantPredicate(T_FLAG, Op.EQ, True),
    ColumnConstantPredicate(T_FLAG, Op.NE, False),
])
_predicates = st.one_of(_numeric, _numeric, _numeric, _categorical, _join,
                        _unsupported)
# Up to three clauses, so empty CNFs (TRUE) and empty clauses (FALSE)
# occur; table sets mix within clusters and across them.
_areas = st.builds(
    lambda tables, clauses: AccessArea(tables, CNF.of(clauses)),
    st.sampled_from([("T",), ("S",), ("S", "T")]),
    st.lists(st.lists(_predicates, max_size=2).map(Clause.of),
             max_size=3))


@st.composite
def _fits(draw):
    """A clustered population drawn from a small pool, so equal areas,
    equal distances and equal popularities (ties) are common."""
    pool = draw(st.lists(_areas, min_size=1, max_size=6))
    size = draw(st.integers(min_value=1, max_value=30))
    areas = [draw(st.sampled_from(pool)) for _ in range(size)]
    labels = [draw(st.integers(min_value=-1, max_value=3))
              for _ in range(size)]
    weights = [draw(st.integers(min_value=1, max_value=3))
               for _ in range(size)]
    return areas, labels, weights


def _recommendation_rows(recommendations):
    # repr: a NaN distance equals itself only as text.
    return [(repr(r.distance), r.popularity, r.suggested_sql,
             r.aggregated.describe(), r.aggregated.cluster_id,
             id(r.medoid))
            for r in recommendations]


def _assert_same_recommender(got, want, probes):
    assert [id(c.medoid) for c in got._clusters] == \
        [id(c.medoid) for c in want._clusters]
    assert _recommendation_rows(got.popular(k=100)) == \
        _recommendation_rows(want.popular(k=100))
    for probe in probes:
        for k, exclude_exact in ((3, True), (100, False)):
            assert _recommendation_rows(
                got.recommend(probe, k=k, exclude_exact=exclude_exact)) \
                == _recommendation_rows(
                    want.recommend(probe, k=k, exclude_exact=exclude_exact))


def _held_arrays(pack):
    """Every ndarray ``pack`` holds, by attribute (and list position),
    with its shape and bytes."""
    found = {}
    for name, value in vars(pack).items():
        items = value if isinstance(value, list) else [value]
        for position, item in enumerate(items):
            if hasattr(item, "tobytes"):
                key = f"{name}[{position}]" if item is not value else name
                found[key] = (item, (item.shape, item.tobytes()))
    return found


class TestKernelMatchesPerPairOracle:
    """Medoids, distances, ranking order and SQL of the kernel-backed
    recommender equal the per-pair loops', bitwise — across mixed table
    sets, empty CNFs, ties and constants the kernel refuses."""

    @settings(max_examples=100, deadline=None)
    @given(fit=_fits(), refit=_fits(),
           probes=st.lists(_areas, min_size=1, max_size=4),
           resolution=st.sampled_from([0.0, 0.02, 0.05]),
           chain=st.lists(st.tuples(_fits(), st.permutations(range(-1, 4))),
                          min_size=2, max_size=3))
    def test_fit_and_ranking_equal_oracle(self, fit, refit, probes,
                                          resolution, chain):
        stats = _parity_stats()

        def fitted(cls, population, previous=None):
            areas, labels, weights = population
            recommender = cls(stats, resolution=resolution,
                              min_cluster_size=2)
            return recommender.fit(areas, DBSCANResult(labels),
                                   weights=weights, previous=previous)

        first = fitted(InterestRecommender, fit)
        _assert_same_recommender(
            first, fitted(_PerPairReference, fit), probes)
        # A refit over another clustering of (partly) the same areas,
        # taking over the first fit's blocks, is the same fit.
        areas, labels, weights = refit
        again = fitted(InterestRecommender,
                       (fit[0] + areas, fit[1] + labels, fit[2] + weights),
                       previous=first)
        _assert_same_recommender(
            again, fitted(_PerPairReference,
                          (fit[0] + areas, fit[1] + labels,
                           fit[2] + weights)), probes)
        # A chain of refits, each taking over the last one's
        # aggregates, blocks and medoid pack: every step renames the
        # labels so far (a cluster may keep its members under another
        # id) and adds areas.
        population = (fit[0] + areas, fit[1] + labels, fit[2] + weights)
        for (areas, labels, weights), renaming in chain:
            population = (population[0] + areas,
                          [renaming[label + 1] for label in population[1]]
                          + labels,
                          population[2] + weights)
            again = fitted(InterestRecommender, population, previous=again)
            _assert_same_recommender(
                again, fitted(_PerPairReference, population), probes)

    def test_ranking_probe_leaves_medoid_pack_unchanged(self):
        stats = _parity_stats()
        areas = [AccessArea(("T",), CNF.of([Clause.of([
            ColumnConstantPredicate(T_X, Op.GE, 10.0 * k)])]))
            for k in range(6)]
        recommender = InterestRecommender(
            stats, min_cluster_size=1).fit(
            areas, DBSCANResult([0, 0, 1, 1, 2, 2]))
        recommender.recommend(areas[0])
        pack = recommender._medoid_pack()[0]
        held = _held_arrays(pack)
        counts = (pack.n_predicates, pack.n_clauses, pack.n_areas)
        query = AccessArea(("S", "T"), CNF.of([
            Clause.of([ColumnConstantPredicate(S_Y, Op.LT, 5.0)]),
            Clause.of([ColumnConstantPredicate(T_C, Op.EQ, "b")])]))
        recommender.recommend(query)
        assert recommender._medoid_pack()[0] is pack
        assert (pack.n_predicates, pack.n_clauses, pack.n_areas) == counts
        assert _held_arrays(pack).keys() == held.keys()
        for name, (array, data) in _held_arrays(pack).items():
            assert array is held[name][0], name
            assert data == held[name][1], name



class TestBoolAndIntOnOneColumn:
    """The known divergence from the per-pair loops.

    ``T.flag = True`` equals ``T.flag = 1`` as a predicate, so the
    metric's pair memo keys the two as one, though it prices them apart
    (a bool is a category, an int a point).  The per-pair loops answer
    by evaluation order: whichever spelling meets ``T.flag >= 1`` first
    sets the other's distance.  The kernel refuses bools and its
    clusters do not warm that memo, so each cluster gets the medoid the
    per-pair loops pick for it fitted alone, in either cluster order.
    """

    @staticmethod
    def _cluster(value):
        ray = ColumnConstantPredicate(T_FLAG, Op.GE, 1)
        return [AccessArea(("T",), CNF.of([Clause.of([predicate])]))
                for predicate in (ColumnConstantPredicate(T_FLAG, Op.EQ,
                                                          value),
                                  ray, ray)]

    @pytest.mark.parametrize("values", [(1, True), (True, 1)],
                             ids=["int-first", "bool-first"])
    def test_each_cluster_gets_its_medoid_fitted_alone(self, values):
        stats = _parity_stats()
        population = [self._cluster(value) for value in values]

        def medoids(cls, clusters):
            areas = [area for cluster in clusters for area in cluster]
            labels = [label for label, cluster in enumerate(clusters)
                      for _ in cluster]
            fitted = cls(stats, min_cluster_size=2).fit(
                areas, DBSCANResult(labels))
            return [str(cluster.medoid.cnf)
                    for cluster in fitted._clusters]

        alone = [medoids(_PerPairReference, [cluster])[0]
                 for cluster in population]
        assert medoids(InterestRecommender, population) == alone
        # The per-pair fit of both gives the second cluster the memo
        # entry the first one left.
        assert medoids(_PerPairReference, population) != alone


def _two_clusters(offset=0.0):
    """Eight overlapping ``T.x`` windows (label 0) and five ``S.y``
    points (label 1), shifted by ``offset``: new area objects per
    call."""
    areas = []
    for k in range(8):
        areas.append(AccessArea(("T",), CNF.of([
            Clause.of([ColumnConstantPredicate(
                T_X, Op.GE, offset + 2.0 * k)]),
            Clause.of([ColumnConstantPredicate(
                T_X, Op.LE, offset + 2.0 * k + 9.5)])])))
    for k in range(5):
        areas.append(AccessArea(("S",), CNF.of([Clause.of([
            ColumnConstantPredicate(S_Y, Op.EQ, offset + 50.0 + k)])])))
    return areas, [0] * 8 + [1] * 5


class TestRefitReusesBlocks:
    """A refit takes over the previous fit's block of every cluster
    whose medoid candidates are unchanged."""

    def test_weight_only_refit_computes_no_distance(self, monkeypatch):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        calls = {"oracle": 0, "extend": 0}
        oracle, extend = QueryDistance.distance, PackedPartition.extend

        def counting_oracle(self, *args):
            calls["oracle"] += 1
            return oracle(self, *args)

        def counting_extend(self, *args):
            calls["extend"] += 1
            return extend(self, *args)

        monkeypatch.setattr(QueryDistance, "distance", counting_oracle)
        monkeypatch.setattr(PackedPartition, "extend", counting_extend)
        weights = [1 + k % 4 for k in range(len(areas))]
        second = fit_recommender(areas, weights, labels, stats,
                                 min_cluster_size=2, previous=first)
        assert calls == {"oracle": 0, "extend": 0}
        assert second._clusters and all(
            any(c.block is p.block for p in first._clusters)
            for c in second._clusters)
        monkeypatch.undo()
        fresh = fit_recommender(areas, weights, labels, stats,
                                min_cluster_size=2)
        _assert_same_recommender(second, fresh, areas[::4])

    def test_changed_cluster_alone_is_repacked(self, monkeypatch):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        packed = []
        fill = recommender_module.dense_fill
        monkeypatch.setattr(
            recommender_module, "dense_fill",
            lambda candidates, metric: packed.append(len(candidates))
            or fill(candidates, metric))
        # One more member joins the second cluster.
        grown = areas + [AccessArea(("S",), CNF.of([Clause.of([
            ColumnConstantPredicate(S_Y, Op.EQ, 56.0)])]))]
        second = fit_recommender(grown, [1] * len(grown), labels + [1],
                                 stats, min_cluster_size=2,
                                 previous=first)
        assert packed == [6]
        monkeypatch.undo()
        _assert_same_recommender(
            second, fit_recommender(grown, [1] * len(grown), labels + [1],
                                    stats, min_cluster_size=2),
            grown[::3])

    @pytest.mark.parametrize("other", ["resolution", "catalog"])
    def test_blocks_of_another_metric_are_not_taken_over(self, other):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(
            areas, [1] * len(areas), labels,
            _parity_stats() if other == "catalog" else stats,
            resolution=0.02 if other == "resolution" else 0.05,
            min_cluster_size=2)
        second = fit_recommender(areas, [1] * len(areas), labels, stats,
                                 min_cluster_size=2, previous=first)
        assert not any(c.block is p.block for c in second._clusters
                       for p in first._clusters)
        _assert_same_recommender(
            second, fit_recommender(areas, [1] * len(areas), labels,
                                    stats, min_cluster_size=2),
            areas[::4])

    def test_new_fit_keeps_only_its_own_blocks(self):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        gone = weakref.ref(first)
        second = fit_recommender(areas, [1] * len(areas),
                                 [0] * 8 + [-1] * 5, stats,
                                 min_cluster_size=2, previous=first)
        kept = first._clusters[0].block
        del first
        gc.collect()
        assert gone() is None
        assert [id(c.block) for c in second._clusters] == [id(kept)]


class TestRefitRecomputesOnlyWhatChanged:
    """A refit takes over the aggregate of every unchanged cluster, and
    the medoid pack, which it extends by new medoids only."""

    @staticmethod
    def _counting(monkeypatch):
        """Record every aggregation and every extend that adds areas to
        a pack (a pack starts empty, which extends it by none)."""
        calls = {"aggregate": [], "extend": []}
        aggregate = recommender_module.aggregate_cluster
        extend = PackedPartition.extend

        def counting_aggregate(*args, **kwargs):
            calls["aggregate"].append(args[0])
            return aggregate(*args, **kwargs)

        def counting_extend(self, areas):
            if areas:
                calls["extend"].append(list(areas))
            return extend(self, areas)

        monkeypatch.setattr(recommender_module, "aggregate_cluster",
                            counting_aggregate)
        monkeypatch.setattr(PackedPartition, "extend", counting_extend)
        return calls

    def test_weight_only_arrivals_reaggregate_one_cluster(self,
                                                          monkeypatch):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        first.recommend(areas[0])
        pack = first._medoid_pack()[0]
        # More arrivals of the second cluster's medoid, which stays it.
        weights = [1] * len(areas)
        weights[areas.index(first._clusters[1].medoid)] += 3
        calls = self._counting(monkeypatch)
        second = fit_recommender(areas, weights, labels, stats,
                                 min_cluster_size=2, previous=first)
        assert second._medoid_pack()[0] is pack
        assert calls == {"aggregate": [1], "extend": []}
        assert second._clusters[0].aggregated is \
            first._clusters[0].aggregated
        monkeypatch.undo()
        _assert_same_recommender(
            second, fit_recommender(areas, weights, labels, stats,
                                    min_cluster_size=2), areas[::4])

    def test_new_cluster_extends_pack_by_its_medoid(self, monkeypatch):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        first.recommend(areas[0])
        pack = first._medoid_pack()[0]
        extra, _ = _two_clusters(offset=60.0)
        grown = areas + extra[:3]
        calls = self._counting(monkeypatch)
        second = fit_recommender(grown, [1] * len(grown),
                                 labels + [2] * 3, stats,
                                 min_cluster_size=2, previous=first)
        second.recommend(areas[0])
        new = next(c for c in second._clusters
                   if c.aggregated.cluster_id == 2)
        assert calls["aggregate"] == [2]
        # The new cluster's block, then its medoid into the pack; the
        # ranking's probe extends only a copy.
        assert [[id(a) for a in added] for added in calls["extend"][:2]] \
            == [[id(a) for a in extra[:3]], [id(new.medoid)]]
        assert second._medoid_pack()[0] is pack
        assert pack.n_areas == 3
        monkeypatch.undo()
        _assert_same_recommender(
            second, fit_recommender(grown, [1] * len(grown),
                                    labels + [2] * 3, stats,
                                    min_cluster_size=2), grown[::3])

    def test_medoid_of_two_clusters_is_packed_once(self):
        # In an expanded population one area object can be the medoid
        # of two clusters.
        stats = _parity_stats()
        areas, _ = _two_clusters()
        shared, first, second = areas[0], areas[1], areas[2]
        recommender = fit_recommender(
            [shared, shared, first, shared, shared, second], [1] * 6,
            [0, 0, 0, 1, 1, 1], stats, min_cluster_size=2)
        assert [c.medoid for c in recommender._clusters] == [shared] * 2
        recommender.recommend(areas[5])
        assert recommender._medoid_pack()[0].n_areas == 1

    def test_moved_label_updates_cluster_id(self, monkeypatch):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        swapped = [1 - label for label in labels]
        calls = self._counting(monkeypatch)
        second = fit_recommender(areas, [1] * len(areas), swapped, stats,
                                 min_cluster_size=2, previous=first)
        assert calls["aggregate"] == []
        fresh = fit_recommender(areas, [1] * len(areas), swapped, stats,
                                min_cluster_size=2)
        assert [c.aggregated for c in second._clusters] == \
            [c.aggregated for c in fresh._clusters]
        assert [c.aggregated.cluster_id for c in second._clusters] == [1, 0]

    def test_other_sigma_reaggregates(self):
        stats = _parity_stats()
        areas, labels = _two_clusters()
        first = fit_recommender(areas, [1] * len(areas), labels, stats,
                                min_cluster_size=2)
        second = fit_recommender(areas, [1] * len(areas), labels, stats,
                                 min_cluster_size=2, sigma=math.inf,
                                 previous=first)
        assert not any(c.aggregated is p.aggregated
                       for c in second._clusters
                       for p in first._clusters)
        assert [c.block for c in second._clusters] == \
            [c.block for c in first._clusters]

    def test_pack_rebuilt_once_stale_medoids_exceed_a_quarter(self):
        stats = _parity_stats()
        groups = {offset: _two_clusters(offset)
                  for offset in (0.0, 10.0, 20.0, 30.0, 31.0, 21.0)}

        def population(offsets):
            areas, labels = [], []
            for group, offset in enumerate(offsets):
                more, more_labels = groups[offset]
                areas += more
                labels += [2 * group + label for label in more_labels]
            return areas, labels

        populations = [population(offsets) for offsets in (
            (0.0, 10.0, 20.0, 30.0), (0.0, 10.0, 20.0, 31.0),
            (0.0, 10.0, 21.0, 31.0))]
        fits, packs = [], []
        previous = None
        for areas, labels in populations:
            previous = fit_recommender(areas, [1] * len(areas), labels,
                                       stats, min_cluster_size=2,
                                       previous=previous)
            previous.recommend(areas[0])
            fits.append(previous)
            packs.append(previous._medoid_pack()[0])
        # Eight live medoids each time: the second fit holds two stale
        # ones (a quarter of live), the third four.
        assert packs[1] is packs[0]
        assert packs[2] is not packs[0]
        assert (packs[0].n_areas, packs[2].n_areas) == (10, 8)
        for recommender, (areas, labels) in zip(fits, populations):
            _assert_same_recommender(
                recommender, fit_recommender(areas, [1] * len(areas),
                                             labels, stats,
                                             min_cluster_size=2),
                areas[::4])
