"""Shared fixtures for the experiment benchmarks.

One moderately sized case-study run is shared across the Table-1,
Figure-1, and comparison benchmarks; each benchmark additionally times a
representative piece of work through the ``benchmark`` fixture and writes
its reproduced artifact to ``benchmarks/out/`` so EXPERIMENTS.md can
reference actual runs.
"""

from pathlib import Path

import pytest

from repro import CaseStudyConfig, run_case_study
from repro.workload import ContentConfig, WorkloadConfig

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def bench_config() -> CaseStudyConfig:
    return CaseStudyConfig(
        workload=WorkloadConfig(n_queries=6000, seed=13),
        content=ContentConfig(photo_rows=2500, spec_rows=2000,
                              satellite_rows=1200, seed=7),
        sample_size=2200,
        eps=0.12,
        min_pts=5,
        resolution=0.05,
        seed=99,
    )


@pytest.fixture(scope="session")
def bench_result(bench_config):
    """The full Section-6 pipeline at benchmark scale."""
    return run_case_study(bench_config)


def write_artifact(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8")

