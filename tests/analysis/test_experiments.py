"""The case-study driver: headline Section 6 observations at small scale."""

import os

import pytest

from repro.analysis import CaseStudyConfig, run_case_study
from repro.core.extractor import AccessAreaExtractor
from repro.workload import ContentConfig, WorkloadConfig


class TestExtractionHeadlines:
    def test_extraction_rate_above_99_percent(self, small_case_study):
        # Section 6.1: >99.4% of statements yield an access area.
        assert small_case_study.report.extraction_rate > 0.98

    def test_failure_taxonomy_present(self, small_case_study):
        report = small_case_study.report
        assert report.parse_errors > 0
        assert report.unsupported_statements > 0


class TestClusteringHeadlines:
    def test_clusters_found(self, small_case_study):
        assert small_case_study.n_clusters >= 15

    def test_most_families_recovered(self, small_case_study):
        recovered = small_case_study.recovered_families()
        assert len(recovered) >= 18  # of 24 planted

    def test_empty_area_clusters_exist(self, small_case_study):
        empty = [row for row in small_case_study.rows
                 if row.is_empty_area and row.dominant_family >= 18]
        assert empty, "no empty-area cluster recovered"

    def test_empty_area_clusters_have_zero_object_coverage(
            self, small_case_study):
        for row in small_case_study.rows:
            if row.dominant_family in range(19, 25) and row.purity > 0.9:
                assert row.object_coverage <= 0.01

    def test_hot_clusters_cover_fraction_of_content(self,
                                                    small_case_study):
        # Table 1's headline: interest areas are small parts of content.
        fractions = [
            row.area_coverage for row in small_case_study.rows
            if 1 <= row.dominant_family <= 9 and row.purity > 0.9
        ]
        assert fractions
        assert min(fractions) < 0.5

    def test_cardinality_tracks_users(self, small_case_study):
        # "most queries in each cluster are issued by different users"
        for row in small_case_study.rows[:10]:
            assert row.n_users >= 0.7 * row.cardinality

    def test_rows_sorted_by_cardinality(self, small_case_study):
        cards = [row.cardinality for row in small_case_study.rows]
        assert cards == sorted(cards, reverse=True)


class TestResultAccessors:
    def test_rows_for_family(self, small_case_study):
        rows = small_case_study.rows_for_family(1)
        assert all(row.dominant_family == 1 for row in rows)

    def test_cluster_members_consistent(self, small_case_study):
        clusters = small_case_study.clustering.clusters()
        total = sum(len(v) for v in clusters.values())
        total += small_case_study.clustering.noise_count
        assert total == len(small_case_study.sample)

    def test_config_defaults(self):
        config = CaseStudyConfig()
        assert config.eps < 0.5  # partitioned DBSCAN validity
        assert config.predicate_cap == 35

    def test_config_runs_in_one_process(self):
        assert CaseStudyConfig(n_jobs=1).n_jobs == 1
        with pytest.raises(ValueError, match="n_jobs must be 1"):
            CaseStudyConfig(n_jobs=2)


def _table(result):
    return [(row.cluster_id, row.cardinality, row.n_users,
             row.area_coverage, row.object_coverage, row.description)
            for row in result.rows]


class TestWarmStore:
    def test_warm_case_study_equals_cold(self, tmp_path, monkeypatch):
        """A second run on one store replays the log manifest, so no
        statement is extracted again, and gives the cold run's labels
        and Table 1; the store holds no distances."""
        store_dir = tmp_path / "store"
        config = CaseStudyConfig(
            workload=WorkloadConfig(n_queries=400, seed=13),
            content=ContentConfig(photo_rows=600, spec_rows=500,
                                  satellite_rows=300, seed=7),
            sample_size=200, min_pts=4, store_dir=str(store_dir))
        cold = run_case_study(config)

        extracted = []
        extract = AccessAreaExtractor.extract

        def counting(self, *args, **kwargs):
            extracted.append(args)
            return extract(self, *args, **kwargs)

        monkeypatch.setattr(AccessAreaExtractor, "extract", counting)
        warm = run_case_study(config)
        assert not cold.report.warm
        assert warm.report.warm
        assert extracted == []
        assert cold.n_clusters > 0
        assert warm.clustering.labels == cold.clustering.labels
        assert _table(warm) == _table(cold)
        assert not os.path.exists(store_dir / "blocks")
