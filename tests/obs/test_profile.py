"""Profiling hooks: section capture, hotspot digests, folded stacks,
process-wide installation, and the no-op overhead pin."""

import time

from repro.obs.profile import (NULL_PROFILER, NullProfiler, Profiler,
                               get_profiler, profile_section,
                               set_profiler, use_profiler)


def _busy(n: int = 40_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _helper_burn() -> int:
    return _busy(15_000)


class TestSectionCapture:
    def test_section_records_hotspots(self):
        profiler = Profiler(top_n=10)
        with profiler.section("work"):
            _busy()
            _helper_burn()
        assert len(profiler.sections) == 1
        section = profiler.sections[0]
        assert section.name == "work"
        assert section.seconds > 0.0
        assert section.calls >= 2
        functions = [row["function"] for row in section.hotspots]
        assert any("_busy" in f for f in functions)
        for row in section.hotspots:
            assert row["cumtime_s"] >= row["tottime_s"] >= 0.0

    def test_hotspots_sorted_by_cumtime(self):
        profiler = Profiler()
        with profiler.section("work"):
            _busy()
        cumtimes = [row["cumtime_s"]
                    for row in profiler.sections[0].hotspots]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_exception_still_closes_section(self):
        profiler = Profiler()
        try:
            with profiler.section("doomed"):
                _busy(1000)
                raise ValueError("mid-profile")
        except ValueError:
            pass
        assert [s.name for s in profiler.sections] == ["doomed"]

    def test_report_is_json_ready(self):
        import json
        profiler = Profiler()
        with profiler.section("a"):
            _busy(1000)
        report = profiler.report()
        parsed = json.loads(json.dumps(report))
        assert parsed[0]["name"] == "a"
        assert "hotspots" in parsed[0]


class TestFoldedStacks:
    def test_folded_lines_have_weights_and_prefix(self):
        profiler = Profiler()
        with profiler.section("sec"):
            _helper_burn()
        lines = profiler.folded_lines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith("sec;")
            assert int(weight) > 0
        assert any("_helper_burn" in line and "_busy" in line
                   for line in lines)

    def test_write_folded(self, tmp_path):
        profiler = Profiler()
        with profiler.section("sec"):
            _busy(5000)
        path = tmp_path / "run.folded"
        profiler.write_folded(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert "sec;" in text


class TestProcessWideHooks:
    def test_default_is_null(self):
        assert get_profiler() is NULL_PROFILER
        with profile_section("anything"):
            pass
        assert NULL_PROFILER.report() == []

    def test_use_profiler_restores(self):
        profiler = Profiler()
        with use_profiler(profiler):
            assert get_profiler() is profiler
            with profile_section("captured"):
                _busy(1000)
        assert get_profiler() is NULL_PROFILER
        assert [s.name for s in profiler.sections] == ["captured"]

    def test_set_profiler_none_resets(self):
        previous = set_profiler(Profiler())
        try:
            assert get_profiler() is not NULL_PROFILER
        finally:
            set_profiler(None)
        assert previous is NULL_PROFILER
        assert get_profiler() is NULL_PROFILER

    def test_null_profiler_shares_one_section(self):
        null = NullProfiler()
        assert null.section("a") is null.section("b")
        assert not null.enabled
        assert null.folded_lines() == []


class TestNoOpOverhead:
    """The disabled path must stay within noise of bare code — same
    loose 20x bound as the null tracer/registry (we are catching
    accidental cProfile activation, not benchmarking)."""

    ROUNDS = 20_000

    @staticmethod
    def _time(fn) -> float:
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_disabled_sections_are_cheap(self):
        def bare():
            total = 0
            for i in range(self.ROUNDS):
                total += i
            return total

        def instrumented():
            total = 0
            for i in range(self.ROUNDS):
                with NULL_PROFILER.section("step"):
                    total += i
            return total

        baseline = self._time(bare)
        wrapped = self._time(instrumented)
        assert wrapped < baseline * 20 + 0.05
