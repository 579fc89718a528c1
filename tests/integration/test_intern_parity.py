"""Interned vs non-interned pipeline parity.

The tentpole guarantee: clustering the interned unique areas with
multiplicity weights and expanding the labels yields *bitwise-identical*
results to clustering the full duplicated population — while the
distance stage only pays u(u−1)/2 pairs.  Checked on the seed synthetic
workload end-to-end and on hypothesis-generated repeat-heavy
populations.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.analysis.experiments import (CaseStudyConfig, _build_rows,
                                       run_case_study)
from repro.clustering import partitioned_dbscan
from repro.clustering.aggregation import aggregate_cluster
from repro.core.area import AccessArea
from repro.core.extractor import AccessAreaExtractor
from repro.core.pipeline import dedupe_areas, expand_labels
from repro.distance import QueryDistance
from repro.distance.block_sparse import compute_matrix
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)
from repro.workload import ContentConfig, WorkloadConfig


@pytest.fixture(scope="module")
def paired_runs():
    """A scaled-down case study, and a plain reference built here: the
    study's sampled statements extracted one by one (no shared objects),
    clustered without dedupe or weights, and aggregated into rows."""
    config = CaseStudyConfig(
        workload=WorkloadConfig(n_queries=900, seed=13),
        content=ContentConfig(photo_rows=600, spec_rows=500,
                              satellite_rows=400, seed=7),
        sample_size=600,
        eps=0.12,
        min_pts=4,
        seed=99,
    )
    interned = run_case_study(config)
    extractor = AccessAreaExtractor(interned.schema,
                                    predicate_cap=config.predicate_cap,
                                    consolidate=config.consolidate)
    drawn = random.Random(config.seed).sample(interned.report.extracted,
                                              config.sample_size)
    sample = [replace(query, area=extractor.extract(item.sql).area)
              for item, query in zip(drawn, interned.sample)]
    areas = [query.area for query in sample]
    distance = QueryDistance(interned.stats, resolution=config.resolution)
    matrix = compute_matrix(areas, distance, eps=config.eps)
    clustering = partitioned_dbscan(areas, distance, config.eps,
                                    config.min_pts, matrix=matrix,
                                    on_inexact="fallback")
    rows = _build_rows(sample, clustering, interned.stats, interned.db,
                       config)
    return interned, SimpleNamespace(sample=sample, clustering=clustering,
                                     rows=rows)


class TestSeedWorkloadParity:
    def test_expanded_labels_identical(self, paired_runs):
        interned, plain = paired_runs
        assert interned.clustering.labels == plain.clustering.labels

    def test_aggregated_areas_identical(self, paired_runs):
        interned, plain = paired_runs
        assert len(interned.rows) == len(plain.rows)
        for got, want in zip(interned.rows, plain.rows):
            assert got.cluster_id == want.cluster_id
            assert got.cardinality == want.cardinality
            assert got.aggregated == want.aggregated
            assert got.description == want.description
            assert got.n_users == want.n_users

    def test_sample_identical(self, paired_runs):
        interned, plain = paired_runs
        assert [s.area for s in interned.sample] \
            == [s.area for s in plain.sample]

    def test_intern_stats_populated(self, paired_runs):
        interned, plain = paired_runs
        assert interned.report.interner is not None
        stats = interned.report.intern_stats
        assert stats.pool_size > 0
        assert stats.dedup_ratio >= 1.0


def _stats():
    schema = Schema("parity")
    for name in ("T", "S"):
        schema.add(Relation(name, (
            Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "x"): Interval(0.0, 100.0),
        ("S", "x"): Interval(0.0, 100.0),
    })


def _window(relation, lo, hi):
    ref = ColumnRef(relation, "x")
    return AccessArea((relation,), CNF.of([
        Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
        Clause.of([ColumnConstantPredicate(ref, Op.LE, hi)]),
    ]))


# A pool of areas SkyServer-style: two dense template families plus
# rarer one-off windows, on two different table sets.
_POOL = (
    [_window("T", float(i), float(i + 10)) for i in range(6)]
    + [_window("S", float(40 + 3 * i), float(55 + 3 * i))
       for i in range(4)]
)


class TestMatrixShrinks:
    def test_distance_stage_pays_unique_pairs_only(self):
        source = [_POOL[i] for i in
                  [0, 0, 1, 0, 2, 1, 0, 6, 6, 7, 0, 1, 6]]
        unique, weights, inverse = dedupe_areas(source)
        u = len(unique)
        distance = QueryDistance(_stats())
        matrix = compute_matrix(unique, distance, mode="dense")
        matrix.stats.n_source_items = len(source)
        assert matrix.stats.pairs_total == u * (u - 1) // 2
        assert matrix.stats.pairs_total \
            < len(source) * (len(source) - 1) // 2
        assert matrix.stats.dedup_ratio \
            == pytest.approx(len(source) / u)
        assert "interned from 13 source areas" in matrix.stats.summary()

    def test_dedup_ratio_defaults_to_one(self):
        distance = QueryDistance(_stats())
        matrix = compute_matrix(_POOL[:3], distance, mode="dense")
        assert matrix.stats.dedup_ratio == 1.0
        assert "interned" not in matrix.stats.summary()


@st.composite
def repeat_heavy_population(draw):
    """Indices into _POOL with SkyServer-shaped repeat skew: a few
    templates dominate, the tail is rare."""
    length = draw(st.integers(min_value=4, max_value=40))
    hot = draw(st.integers(min_value=0, max_value=len(_POOL) - 1))
    indices = draw(st.lists(
        st.one_of(st.just(hot),
                  st.integers(min_value=0, max_value=len(_POOL) - 1)),
        min_size=length, max_size=length))
    return indices


class TestHypothesisParity:
    @settings(max_examples=30, deadline=None)
    @given(indices=repeat_heavy_population(),
           min_pts=st.integers(min_value=2, max_value=6))
    def test_weighted_labels_expand_identically(self, indices, min_pts):
        source = [_POOL[i] for i in indices]
        distance = QueryDistance(_stats())
        want = partitioned_dbscan(source, distance, eps=0.12,
                                  min_pts=min_pts).labels
        unique, weights, inverse = dedupe_areas(source)
        deduped = partitioned_dbscan(unique, distance, eps=0.12,
                                     min_pts=min_pts, weights=weights)
        assert expand_labels(deduped.labels, inverse) == want

    @settings(max_examples=15, deadline=None)
    @given(indices=repeat_heavy_population())
    def test_weighted_aggregates_match_expanded(self, indices):
        source = [_POOL[i] for i in indices]
        unique, weights, inverse = dedupe_areas(source)
        # Expand in unique order: integer bounds make repeated addition
        # exact, so aggregates must match bitwise.
        expanded = []
        for member, weight in zip(unique, weights):
            expanded.extend([member] * weight)
        want = aggregate_cluster(0, expanded)
        got = aggregate_cluster(0, unique, weights=weights)
        assert got == want
