"""Each workload's set-up: the program, from a fresh interpreter, up to
ready for its first input.

``run.py`` starts this file a few times and times each from spawn to
its ``ready`` line, so ``setup_s`` covers interpreter start, the imports
the program's own path to that state makes, and building the state.  It
imports no benchmark module (no input generation, no check), only the
service for the two ingest workloads and the study's module for the
batch.  ``import repro.<anything>`` runs ``repro/__init__.py``, which
loads the whole package today; a change that makes that lazier shows
here.  The workloads build their state with the same functions.

    python3 perfbench/ready.py WORKLOAD WORKDIR
"""

import asyncio
import os
import sys
import tempfile

EPS = 0.12
MIN_PTS = 5

#: ``batch_table1``: the paper's section-6 study, sized so that one
#: pass takes a few seconds and the batch distance fill dominates it.
BATCH_QUERIES = 1_000
BATCH_SAMPLE = 500
BATCH_ROWS = {"photo_rows": 800, "spec_rows": 600, "satellite_rows": 400}


async def memory_service(workdir: str, seed: int):
    """``ingest_unique``: a memory-only service and an in-process
    client for it."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service import AppState, ServiceConfig, TestClient, create_app
    state = AppState(ServiceConfig(eps=EPS, min_pts=MIN_PTS),
                     registry=MetricsRegistry())
    return state, TestClient(create_app(state=state))


def store_config(store_dir: str):
    from repro.service import ServiceConfig
    return ServiceConfig(eps=EPS, min_pts=MIN_PTS, store_dir=store_dir)


async def store_service(workdir: str, seed: int):
    """``serve_repeat``: a store-backed service behind the socket host,
    bound to a free loopback port."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service import AppState, HTTPServer, create_app
    store_dir = tempfile.mkdtemp(dir=workdir)
    state = AppState(store_config(store_dir), registry=MetricsRegistry())
    server = HTTPServer(create_app(state=state), "127.0.0.1", 0)
    await server.start()
    return state, server, store_dir


async def study_config(workdir: str, seed: int):
    """``batch_table1``: the study's configuration, all the batch API
    needs before its input (``n_jobs=1``, default matrix mode)."""
    from repro.analysis.experiments import CaseStudyConfig
    from repro.workload import ContentConfig, WorkloadConfig
    return CaseStudyConfig(
        workload=WorkloadConfig(n_queries=BATCH_QUERIES, seed=seed),
        content=ContentConfig(seed=seed, **BATCH_ROWS),
        sample_size=BATCH_SAMPLE, eps=EPS, min_pts=MIN_PTS,
        resolution=0.05, seed=seed, n_jobs=1)


SETUPS = {"ingest_unique": memory_service, "serve_repeat": store_service,
          "batch_table1": study_config}


async def main(name: str, workdir: str) -> None:
    built = await SETUPS[name](workdir, 0)
    print("ready", flush=True)
    if name == "serve_repeat":
        state, server, _store_dir = built
        await server.stop()
        state.close()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    asyncio.run(main(sys.argv[1], sys.argv[2]))
