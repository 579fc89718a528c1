"""End-to-end flight recorder: run records, runs CLI, profiling, and
the perf guard — exercised through ``repro.cli.main`` and real
subprocesses where process death matters."""

import json
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("fr") / "log.jsonl"
    assert main(["generate", "--queries", "150",
                 "--out", str(path)]) == 0
    return path


def _run_record(runs_dir, index=-1) -> dict:
    paths = sorted(runs_dir.glob("*.json"))
    assert paths, f"no run records under {runs_dir}"
    return json.loads(paths[index].read_text())


class TestRunRecords:
    def test_process_writes_record_with_waterfall(self, small_log,
                                                  tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["process", str(small_log), "--sample", "120",
                     "--runs-dir", str(runs)]) == 0
        capsys.readouterr()
        record = _run_record(runs)
        assert record["command"] == "process"
        assert record["status"] == "ok"
        assert record["config"]["sample"] == 120
        assert record["exit_code"] == 0
        stages = {node["name"] for node in record["waterfall"]}
        assert "process_log" in stages
        counters = {c["name"] for c in record["metrics"]["counters"]}
        assert "repro_pipeline_statements_total" in counters

    @pytest.mark.filterwarnings("ignore:partitioned DBSCAN")
    def test_parallel_run_stitches_worker_spans(self, small_log,
                                                tmp_path, capsys):
        runs = tmp_path / "runs"
        trace_path = tmp_path / "trace.jsonl"
        # --n-jobs fans out only the dense fill, which eps >= 1/2 picks.
        assert main(["process", str(small_log), "--sample", "120",
                     "--eps", "0.6", "--n-jobs", "2",
                     "--runs-dir", str(runs),
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        roots = [json.loads(line) for line
                 in trace_path.read_text().splitlines()]
        matrix_roots = [r for r in roots
                        if "matrix" in r["name"]]
        assert len(matrix_roots) == 1, "one stitched tree expected"
        root = matrix_roots[0]

        def collect(node, out):
            out.append(node)
            for child in node.get("children", ()):
                collect(child, out)

        nodes = []
        collect(root, nodes)
        worker_spans = [n for n in nodes
                        if (n.get("attrs") or {}).get("pid")]
        assert worker_spans, "worker-side spans must be stitched in"
        assert {n.get("trace_id") for n in worker_spans} \
            == {root["trace_id"]}

    def test_no_run_record_opts_out(self, small_log, tmp_path,
                                    capsys):
        runs = tmp_path / "runs"
        assert main(["process", str(small_log), "--no-cluster",
                     "--runs-dir", str(runs),
                     "--no-run-record"]) == 0
        capsys.readouterr()
        assert not runs.exists()

    def test_crashed_run_leaves_error_record(self, tmp_path):
        runs = tmp_path / "runs"
        with pytest.raises(FileNotFoundError):
            main(["process", str(tmp_path / "missing.jsonl"),
                  "--runs-dir", str(runs)])
        record = _run_record(runs)
        assert record["status"] == "error"
        assert "FileNotFoundError" in record["error"]


class TestRunsCli:
    @pytest.fixture()
    def two_runs(self, small_log, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["process", str(small_log), "--sample", "100",
                     "--runs-dir", str(runs)]) == 0
        assert main(["process", str(small_log), "--sample", "120",
                     "--runs-dir", str(runs)]) == 0
        capsys.readouterr()
        return runs

    def test_list_show_diff(self, two_runs, capsys):
        assert main(["runs", "list",
                     "--runs-dir", str(two_runs)]) == 0
        listing = capsys.readouterr().out
        assert listing.count("process") == 2

        assert main(["runs", "show", "latest",
                     "--runs-dir", str(two_runs)]) == 0
        shown = capsys.readouterr().out
        assert "sample=120" in shown
        assert "stage waterfall:" in shown

        assert main(["runs", "diff", "prev", "latest",
                     "--runs-dir", str(two_runs)]) == 0
        diffed = capsys.readouterr().out
        assert "sample: 100 -> 120" in diffed

    def test_show_json_round_trips(self, two_runs, capsys):
        assert main(["runs", "show", "latest", "--json",
                     "--runs-dir", str(two_runs)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["config"]["sample"] == 120

    def test_unknown_run_exits_2(self, two_runs, capsys):
        assert main(["runs", "show", "zzz",
                     "--runs-dir", str(two_runs)]) == 2
        assert "no run record" in capsys.readouterr().err


class TestProfiling:
    def test_profile_embeds_hotspots_and_folded(self, small_log,
                                                tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["process", str(small_log), "--sample", "100",
                     "--profile", "--runs-dir", str(runs)]) == 0
        capsys.readouterr()
        record = _run_record(runs)
        sections = {s["name"] for s in record["profile"]}
        assert "extract" in sections
        assert "cluster" in sections
        extract = next(s for s in record["profile"]
                       if s["name"] == "extract")
        assert extract["hotspots"]
        folded = sorted(runs.glob("*.folded"))
        assert len(folded) == 1
        assert folded[0].stem == record["run_id"]
        assert "extract;" in folded[0].read_text()

    def test_unprofiled_record_has_no_profile_key(self, small_log,
                                                  tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["process", str(small_log), "--no-cluster",
                     "--runs-dir", str(runs)]) == 0
        capsys.readouterr()
        assert "profile" not in _run_record(runs)


class TestPerfGuard:
    def _bench_dir(self, tmp_path, kernel_seconds=0.1):
        bench = tmp_path / "bench"
        bench.mkdir(exist_ok=True)
        (bench / "BENCH_mini.json").write_text(json.dumps({
            "sizes": [{"n": 100, "kernel_seconds": kernel_seconds,
                       "queries_per_second": 5000.0}],
            "total_seconds": kernel_seconds * 12}))
        return bench

    def test_record_then_clean_check_passes(self, tmp_path, capsys):
        bench = self._bench_dir(tmp_path)
        trajectory = tmp_path / "BENCH_trajectory.json"
        for _ in range(3):
            assert main(["perf", "record", "--bench-dir", str(bench),
                         "--trajectory", str(trajectory),
                         "--label", "baseline"]) == 0
        assert main(["perf", "record", "--bench-dir", str(bench),
                     "--trajectory", str(trajectory),
                     "--label", "candidate"]) == 0
        capsys.readouterr()
        assert main(["perf", "check",
                     "--trajectory", str(trajectory)]) == 0
        assert "RESULT: ok" in capsys.readouterr().out

    def test_injected_2x_regression_exits_nonzero(self, tmp_path,
                                                  capsys):
        bench = self._bench_dir(tmp_path)
        trajectory = tmp_path / "BENCH_trajectory.json"
        for _ in range(3):
            assert main(["perf", "record", "--bench-dir", str(bench),
                         "--trajectory", str(trajectory),
                         "--label", "baseline"]) == 0
        self._bench_dir(tmp_path, kernel_seconds=0.2)  # 2x slower
        assert main(["perf", "record", "--bench-dir", str(bench),
                     "--trajectory", str(trajectory),
                     "--label", "candidate"]) == 0
        capsys.readouterr()
        assert main(["perf", "check",
                     "--trajectory", str(trajectory)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "kernel_seconds" in out

    def test_missing_trajectory_exits_2(self, tmp_path, capsys):
        assert main(["perf", "check", "--trajectory",
                     str(tmp_path / "nope.json")]) == 2
        assert "perf check:" in capsys.readouterr().err

    def test_empty_bench_dir_exits_2(self, tmp_path, capsys):
        assert main(["perf", "record",
                     "--bench-dir", str(tmp_path / "void"),
                     "--trajectory",
                     str(tmp_path / "t.json")]) == 2
        assert "no BENCH_" in capsys.readouterr().err


class TestSubprocessDeath:
    def test_sigint_mid_run_leaves_partial_trace(self, small_log,
                                                 tmp_path):
        # A run killed by an in-band exception (simulated operator
        # abort) still flushes partial span trees and an error record.
        runs = tmp_path / "runs"
        trace_path = tmp_path / "t.jsonl"
        code = (
            "import repro.core.pipeline as pipeline\n"
            "from repro.cli import main\n"
            "original = pipeline.process_log\n"
            "def bomb(*a, **k):\n"
            "    raise KeyboardInterrupt\n"
            "pipeline.process_log = bomb\n"
            "import repro.cli as cli\n"
            "cli.process_log = bomb\n"
            f"main(['process', {str(small_log)!r},"
            f" '--runs-dir', {str(runs)!r},"
            f" '--trace-out', {str(trace_path)!r}])\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode != 0
        record = _run_record(runs)
        assert record["status"] == "error"
        assert "KeyboardInterrupt" in record["error"]
