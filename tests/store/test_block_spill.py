"""Condensed-block spill and reload through the distance stage."""

import pytest

from repro.distance.block_sparse import compute_matrix
from repro.distance.query_distance import QueryDistance
from repro.store import AreaStore


@pytest.fixture()
def population(extractor):
    sqls = [
        "SELECT a FROM T WHERE a > 0 AND a < 1",
        "SELECT a FROM T WHERE a > 0.2 AND a < 1.2",
        "SELECT a FROM T WHERE a > 4 AND a < 5",
        "SELECT b FROM S WHERE b < 2",
        "SELECT b FROM S WHERE b > 1 AND b < 3",
        "SELECT b FROM S WHERE b > 8",
    ]
    return [extractor.extract(sql).area for sql in sqls]


def _compute(population, stats, store, token="res=0.05"):
    distance = QueryDistance(stats, resolution=0.05)
    return compute_matrix(population, distance, mode="kernel",
                          eps=0.2, store=store, store_token=token)


def test_blocks_spill_then_reload_bitwise(tmp_path, population, stats):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        cold = _compute(population, stats, store)
        saved = store.blocks.saves
        assert saved >= 2  # one condensed block per partition
        assert store.blocks.loads == 0

    with AreaStore(path) as store:
        warm = _compute(population, stats, store)
        assert store.blocks.saves == 0
        assert store.blocks.loads >= saved

    n = len(population)
    for i in range(n):
        for j in range(n):
            assert cold[i, j] == warm[i, j]  # bitwise, not approx


def test_metric_drift_misses_block_cache(tmp_path, population, stats):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        _compute(population, stats, store, token="res=0.05")
        saved = store.blocks.saves
    with AreaStore(path) as store:
        _compute(population, stats, store, token="res=0.10")
        # different metric token → recompute + save, never reload
        assert store.blocks.loads == 0
        assert store.blocks.saves == saved

