"""End-to-end cross-backend label parity.

Both matrix layouts claim *bitwise* agreement with the per-pair metric,
so every clustering algorithm must produce **identical labels** — not
merely similar clusterings — to its run over the metric callable,
whichever layout computed its distances.  Checked for all four
algorithms (DBSCAN, partitioned DBSCAN, OPTICS, single linkage) across
the dense / kernel / auto matrix modes, with interning on and off, on
two very different populations: the
SkyServer workload generator (the paper's case-study shape) and a
QA-harness random profile (adversarially unstructured schemas and
predicates, the ``repro qa`` generator).
"""

import random

import pytest

from repro.clustering import (DBSCAN, OPTICS, SingleLinkage,
                              partitioned_dbscan)
from repro.core.extractor import AccessAreaExtractor
from repro.core.pipeline import dedupe_areas, expand_labels, process_log
from repro.distance import QueryDistance
from repro.distance.block_sparse import compute_matrix
from repro.qa import qa_families, random_schema
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.workload import WorkloadConfig, generate_workload

EPS = 0.12
MIN_PTS = 3

#: Matrix modes under test; the metric callable, evaluated per pair by
#: each algorithm, is the reference.
MODES = ["dense", "kernel", "auto"]


def _skyserver_population():
    workload = generate_workload(WorkloadConfig(n_queries=400, seed=5))
    schema = skyserver_schema()
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    report = process_log(workload.log.statements_with_users(),
                         AccessAreaExtractor(schema))
    for extracted in report.extracted:
        stats.observe_cnf(extracted.area.cnf)
    areas = [item.area for item in report.extracted]
    rng = random.Random(99)
    if len(areas) > 250:
        areas = rng.sample(areas, 250)
    return areas, stats


def _qa_population():
    rng = random.Random(17)
    schema = random_schema(rng)
    stats = StatisticsCatalog.from_exact_content(schema, {})
    config = WorkloadConfig(
        n_queries=180, seed=23, noise_fraction=0.0, error_fraction=0.0,
        malformed_fraction=0.0, min_family_size=1,
        repeat_user_fraction=0.0)
    workload = generate_workload(config, qa_families(schema))
    report = process_log(workload.log.statements_with_users(),
                         AccessAreaExtractor(schema))
    for extracted in report.extracted:
        stats.observe_cnf(extracted.area.cnf)
    areas = [item.area for item in report.extracted]
    assert areas, "QA profile produced no extractable areas"
    return areas, stats


@pytest.fixture(scope="module", params=["skyserver", "qa"])
def population(request):
    if request.param == "skyserver":
        return _skyserver_population()
    return _qa_population()


def _labels_all_algorithms(areas, stats, mode=None):
    """Labels (and the full OPTICS result) from every algorithm, with
    distances served in the requested matrix mode, or evaluated per
    pair through the metric callable when ``mode`` is None."""
    metric = QueryDistance(stats)
    if mode is None:
        source = {"distance": metric}
    else:
        source = {"matrix": compute_matrix(areas, metric, mode=mode,
                                           eps=EPS)}
    optics = OPTICS(max_eps=EPS, min_pts=MIN_PTS).fit(areas, **source)
    return {
        "dbscan": DBSCAN(eps=EPS, min_pts=MIN_PTS).fit(
            areas, **source).labels,
        "partitioned": partitioned_dbscan(
            areas, metric, EPS, MIN_PTS,
            matrix=source.get("matrix")).labels,
        "optics": (optics.ordering, optics.reachability,
                   optics.core_distance),
        "single_linkage": SingleLinkage(
            threshold=EPS, min_size=MIN_PTS).fit(areas, **source).labels,
    }


class TestCrossBackendParity:
    def test_all_algorithms_all_backends(self, population):
        areas, stats = population
        reference = _labels_all_algorithms(areas, stats)
        for mode in MODES:
            got = _labels_all_algorithms(areas, stats, mode)
            for algorithm, labels in got.items():
                assert labels == reference[algorithm], (
                    f"{algorithm} labels diverge on mode={mode}")

    def test_interned_runs_expand_identically(self, population):
        areas, stats = population
        unique, weights, inverse = dedupe_areas(areas)
        metric = QueryDistance(stats)
        want = partitioned_dbscan(areas, metric, EPS, MIN_PTS).labels
        for mode in MODES:
            matrix = compute_matrix(unique, metric, mode=mode, eps=EPS)
            deduped = partitioned_dbscan(unique, metric, EPS, MIN_PTS,
                                         matrix=matrix, weights=weights)
            assert expand_labels(deduped.labels, inverse) == want, (
                f"interned labels diverge on mode={mode}")
