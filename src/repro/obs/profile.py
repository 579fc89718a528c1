"""Opt-in deterministic profiling hooks for pipeline stages.

``--profile`` wraps each coarse pipeline section (extraction loop,
distance matrix, clustering, each QA profile) in a
:class:`cProfile.Profile`, turning one run into per-section hotspot
tables — the top-N functions by cumulative time — plus folded-stacks
output (``caller;callee weight`` lines) that flamegraph tools such as
``flamegraph.pl`` or speedscope consume directly.

The section boundary is deliberately coarse: cProfile's per-call
bookkeeping would distort the paper-scale per-statement timings if it
wrapped individual extractor stages, but a whole section profiles at a
few percent overhead and the hotspot table still names the offending
function/line exactly.

When disabled (the default), the process-wide profiler is
:data:`NULL_PROFILER` whose :meth:`~NullProfiler.section` returns one
shared no-op context manager — the hot path pays one method call and
no allocations, the same contract as the null tracer and registry
(pinned by the overhead test in ``tests/obs/test_profile.py``).
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

#: Hot functions reported per section.
DEFAULT_TOP_N = 15


def _func_label(func: tuple) -> str:
    """``file:line:name`` for a pstats function key (built-ins have a
    pseudo-file)."""
    filename, line, name = func
    if filename == "~":
        return name.strip("<>")
    short = "/".join(Path(filename).parts[-2:])
    return f"{short}:{line}:{name}"


class SectionProfile:
    """The digested outcome of profiling one section."""

    def __init__(self, name: str, stats: pstats.Stats,
                 top_n: int = DEFAULT_TOP_N) -> None:
        self.name = name
        self.seconds = stats.total_tt
        self.calls = stats.total_calls
        self.hotspots = self._hotspots(stats, top_n)
        self.folded = self._folded(stats)

    @staticmethod
    def _hotspots(stats: pstats.Stats, top_n: int) -> list[dict]:
        rows = []
        for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
            rows.append({
                "function": _func_label(func),
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            })
        rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
        return rows[:top_n]

    @staticmethod
    def _folded(stats: pstats.Stats) -> list[str]:
        """Folded-stack lines weighted by integer microseconds.

        cProfile records a call *graph*, not full stacks, so the fold
        is two frames deep (``caller;callee``) — flamegraph tools
        accept any depth, and two levels already localize a hotspot to
        its dominant call edge.  Functions nobody calls (section
        roots) fold as a single frame weighted by their own time.
        """
        lines = []
        for func, (cc, nc, tt, ct, callers) in stats.stats.items():
            label = _func_label(func)
            if callers:
                for caller, (_cc, _nc, _tt, edge_ct) in callers.items():
                    weight = int(edge_ct * 1e6)
                    if weight > 0:
                        lines.append(
                            f"{_func_label(caller)};{label} {weight}")
            else:
                weight = int(tt * 1e6)
                if weight > 0:
                    lines.append(f"{label} {weight}")
        return sorted(lines)

    def to_dict(self) -> dict:
        return {"name": self.name, "seconds": round(self.seconds, 6),
                "calls": self.calls, "hotspots": self.hotspots}


class Profiler:
    """Collects one :class:`SectionProfile` per profiled section."""

    def __init__(self, top_n: int = DEFAULT_TOP_N) -> None:
        self.top_n = top_n
        self.sections: list[SectionProfile] = []

    @property
    def enabled(self) -> bool:
        return True

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Profile the enclosed block as one named section."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            stats = pstats.Stats(profile)
            stats.stream = None  # never prints; we digest it ourselves
            self.sections.append(
                SectionProfile(name, stats, self.top_n))

    def report(self) -> list[dict]:
        """JSON-ready hotspot tables, one entry per section — the form
        embedded into run records."""
        return [section.to_dict() for section in self.sections]

    def folded_lines(self) -> list[str]:
        """All sections' folded stacks, each frame prefixed with its
        section name so one flamegraph shows the whole run."""
        lines = []
        for section in self.sections:
            for line in section.folded:
                lines.append(f"{section.name};{line}")
        return lines

    def write_folded(self, path: Union[str, Path]) -> None:
        """Write ``flamegraph.pl``-consumable folded stacks."""
        text = "\n".join(self.folded_lines())
        Path(path).write_text(text + ("\n" if text else ""),
                              encoding="utf-8")


class _NullSection:
    """Shared do-nothing section handle."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullProfiler:
    """Disabled profiling: ``section()`` returns one shared no-op."""

    _SECTION = _NullSection()

    @property
    def enabled(self) -> bool:
        return False

    def section(self, name: str) -> _NullSection:
        return self._SECTION

    @property
    def sections(self) -> list:
        return []

    def report(self) -> list:
        return []

    def folded_lines(self) -> list:
        return []


NULL_PROFILER = NullProfiler()
_profiler: Union[Profiler, NullProfiler] = NULL_PROFILER


def get_profiler() -> Union[Profiler, NullProfiler]:
    return _profiler


def set_profiler(profiler: Union[Profiler, NullProfiler, None]
                 ) -> Union[Profiler, NullProfiler]:
    """Install ``profiler`` process-wide (``None`` → no-op); returns
    the previous one."""
    global _profiler
    previous = _profiler
    _profiler = profiler if profiler is not None else NULL_PROFILER
    return previous


@contextmanager
def use_profiler(profiler: Union[Profiler, NullProfiler]
                 ) -> Iterator[Union[Profiler, NullProfiler]]:
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


def profile_section(name: str):
    """Open a profiled section on the process-wide profiler (a no-op
    unless ``--profile`` installed a real :class:`Profiler`)."""
    return _profiler.section(name)
