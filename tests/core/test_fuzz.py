"""Robustness fuzzing: the front-end must never crash uncontrolled.

Feeding arbitrary text into the extractor may fail, but only ever with
the documented error types — the batch pipeline over 12M statements
depends on that contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNFConversionError
from repro.clustering import DBSCAN, NOISE
from repro.core import AccessAreaExtractor, process_log
from repro.distance import DistanceMatrix, QueryDistance
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.sqlparser import SqlError, tokenize
from repro.sqlparser.errors import LexError
from repro.workload import WorkloadConfig, generate_workload

EXTRACTOR = AccessAreaExtractor(skyserver_schema())
STATS = StatisticsCatalog.from_exact_content(skyserver_schema(),
                                             CONTENT_BOUNDS)

_sql_alphabet = st.sampled_from(
    list("SELECTFROMWHEREANDORNT ()*,.<>='\"0123456789abcxyz_-%"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_sql_alphabet, max_size=120))
def test_extractor_fails_only_with_documented_errors(text):
    try:
        EXTRACTOR.extract(text)
    except (SqlError, CNFConversionError):
        pass  # the documented failure modes


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_extractor_handles_arbitrary_unicode(text):
    try:
        EXTRACTOR.extract(text)
    except (SqlError, CNFConversionError):
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=100))
def test_tokenizer_total(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert tokens  # at least EOF
    assert tokens[-1].value == ""


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000),
       st.integers(min_value=8, max_value=30))
def test_end_to_end_matrix_clustering_fuzz(seed, n_queries):
    """Generator SQL → extractor → distance matrix → DBSCAN, ~100
    random workloads: no exception, well-formed labels throughout."""
    workload = generate_workload(
        WorkloadConfig(n_queries=n_queries, seed=seed))
    report = process_log(workload.log.statements(), EXTRACTOR,
                         keep_failures=False)
    for item in report.extracted:
        STATS.observe_cnf(item.area.cnf)
    areas = report.areas()
    matrix = DistanceMatrix.compute(
        areas, QueryDistance(STATS, resolution=0.05))
    assert matrix.stats.pairs_computed + matrix.stats.pairs_skipped \
        == len(areas) * (len(areas) - 1) // 2
    result = DBSCAN(0.12, min_pts=3).fit(areas, matrix=matrix)
    assert len(result.labels) == len(areas)
    labels = {label for label in result.labels if label != NOISE}
    # Cluster ids are dense non-negative integers.
    assert labels == set(range(result.n_clusters))


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=_sql_alphabet, max_size=100))
def test_prefixed_select_fuzz(garbage):
    """A valid prefix plus garbage: still only documented errors."""
    sql = "SELECT * FROM PhotoObjAll WHERE " + garbage
    try:
        result = EXTRACTOR.extract(sql)
    except (SqlError, CNFConversionError):
        return
    # If it parsed, the area must be well-formed.
    assert result.area.relations
    str(result.area.cnf)
