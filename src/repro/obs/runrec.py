"""Run manifests: one durable JSON record per pipeline run.

The SkyServer Traffic Report could mine five years of workload only
because every request left a durable, analyzable record; this module
gives the reproduction the same property about *itself*.  Every
``process``/``qa``/``casestudy``/``stream``/``serve``/``recommend`` run
appends one JSON document to a ``runs/`` directory — configuration, git
SHA, platform, the stage waterfall distilled from the span trace, a
compact metrics snapshot, and optional matrix/intern/profile payloads
— under a versioned schema, so ``repro runs list/show/diff`` can answer
"what changed between yesterday's run and this one" long after the
processes are gone.

The recorder is exception-safe: used as a context manager it writes
the record even when the run dies, with ``status: "error"`` and the
exception inline — a crashed run still leaves its flight-recorder
entry next to the partial trace the tracer flushed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from . import metrics as obs_metrics

#: Bump when the record layout changes incompatibly; readers check it.
RUN_RECORD_SCHEMA_VERSION = 1

DEFAULT_RUNS_DIR = "runs"


def git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repo / without git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def environment_info() -> dict:
    """Platform facts worth keeping next to every measurement."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "pid": os.getpid(),
    }


def _waterfall_node(node: dict, depth: int) -> dict:
    out = {"name": node["name"],
           "seconds": round(float(node.get("duration_s", 0.0)), 9),
           "status": node.get("status", "ok")}
    if depth > 0 and node.get("children"):
        out["children"] = [_waterfall_node(child, depth - 1)
                           for child in node["children"]]
    return out


def waterfall_from_roots(roots, depth: int = 2) -> list[dict]:
    """Distill completed span trees into the stage waterfall stored in
    the record: names, seconds, and status, ``depth`` levels deep.

    Accepts :class:`~repro.obs.trace.Span` objects or their dicts."""
    nodes = []
    for root in roots:
        node = root if isinstance(root, dict) else root.to_dict()
        nodes.append(_waterfall_node(node, depth))
    return nodes


class RunRecorder:
    """Builds and writes one run record; use as a context manager.

    ::

        with RunRecorder("process", runs_dir="runs",
                         config=vars(args)) as recorder:
            ...  # the run
            recorder.set_metrics(get_registry())
            recorder.set_waterfall(tracer.roots)

    The record lands in ``runs/<run_id>.json`` on exit — also on
    exception, with the error inline.
    """

    def __init__(self, command: str,
                 runs_dir: Union[str, Path] = DEFAULT_RUNS_DIR,
                 config: Optional[dict] = None,
                 argv: Optional[list[str]] = None) -> None:
        self.command = command
        self.runs_dir = Path(runs_dir)
        stamp = datetime.now(timezone.utc)
        # Microsecond-precision stamp: ``runs list`` sorts filenames,
        # so back-to-back runs must still order chronologically; the
        # random suffix guards against the residual collision.
        self.run_id = (stamp.strftime("%Y%m%dT%H%M%S")
                       + f"{stamp.microsecond:06d}"
                       + "-" + uuid.uuid4().hex[:6])
        self.record: dict = {
            "schema_version": RUN_RECORD_SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": command,
            "argv": list(argv if argv is not None else sys.argv[1:]),
            "config": _jsonable(config or {}),
            "git_sha": git_sha(),
            "environment": environment_info(),
            "started": stamp.isoformat(timespec="seconds"),
            "status": "ok",
            "error": None,
            "waterfall": [],
            "metrics": None,
        }
        self._t0 = time.perf_counter()
        self.path: Optional[Path] = None

    # -- payload setters ----------------------------------------------------

    def set(self, **fields) -> None:
        """Attach free-form top-level fields (JSON-coerced)."""
        for key, value in fields.items():
            self.record[key] = _jsonable(value)

    def set_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Store the compact registry snapshot (no raw reservoirs)."""
        self.record["metrics"] = registry.snapshot(
            include_reservoir=False)

    def set_waterfall(self, roots, depth: int = 2) -> None:
        self.record["waterfall"] = waterfall_from_roots(roots, depth)

    def set_profile(self, profiler) -> None:
        """Embed the profiler's hotspot tables (if any sections ran)."""
        report = profiler.report()
        if report:
            self.record["profile"] = report

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.record["status"] = "error"
            self.record["error"] = f"{exc_type.__name__}: {exc}"
        self.finalize()
        return False

    def finalize(self) -> Path:
        """Stamp the duration and write ``runs/<run_id>.json``."""
        self.record["finished"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
        self.record["duration_s"] = round(
            time.perf_counter() - self._t0, 6)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.runs_dir / f"{self.run_id}.json"
        self.path.write_text(
            json.dumps(self.record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        return self.path


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "__dict__") and not callable(value):
        return _jsonable(vars(value))
    return repr(value)


# -- reading back -----------------------------------------------------------

def list_runs(runs_dir: Union[str, Path] = DEFAULT_RUNS_DIR
              ) -> list[dict]:
    """All run records under ``runs_dir``, oldest first.

    Unreadable files are skipped (a crashed writer must not take the
    whole flight recorder down)."""
    directory = Path(runs_dir)
    if not directory.is_dir():
        return []
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and "run_id" in record:
            records.append(record)
    return records


def resolve_run(token: str,
                runs_dir: Union[str, Path] = DEFAULT_RUNS_DIR) -> dict:
    """Find one run record by id prefix, ``latest``, or ``prev``.

    Raises :class:`KeyError` with a readable message on no/ambiguous
    match."""
    records = list_runs(runs_dir)
    if not records:
        raise KeyError(f"no run records under {runs_dir}")
    if token == "latest":
        return records[-1]
    if token == "prev":
        if len(records) < 2:
            raise KeyError("only one run recorded; no 'prev'")
        return records[-2]
    matches = [record for record in records
               if record["run_id"].startswith(token)]
    if not matches:
        raise KeyError(f"no run record matching {token!r}")
    if len(matches) > 1:
        ids = ", ".join(record["run_id"] for record in matches[:5])
        raise KeyError(f"ambiguous run id {token!r}: {ids}")
    return matches[0]


# -- diffing ----------------------------------------------------------------

def _scalar_metrics(record: dict) -> dict[str, float]:
    """Counters/gauges (by labelled name) and histogram p50/p95/count,
    flattened to one comparable scalar map."""
    snapshot = record.get("metrics") or {}
    out: dict[str, float] = {}

    def label_suffix(entry):
        labels = entry.get("labels") or {}
        if not labels:
            return ""
        body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + body + "}"

    for entry in snapshot.get("counters", ()):
        out[entry["name"] + label_suffix(entry)] = entry["value"]
    for entry in snapshot.get("gauges", ()):
        out[entry["name"] + label_suffix(entry)] = entry["value"]
    for entry in snapshot.get("histograms", ()):
        base = entry["name"] + label_suffix(entry)
        out[base + ".count"] = entry["count"]
        out[base + ".p50"] = entry["p50"]
        out[base + ".p95"] = entry["p95"]
    return out


def _waterfall_seconds(record: dict) -> dict[str, float]:
    out: dict[str, float] = {}

    def walk(nodes, prefix):
        for node in nodes:
            path = f"{prefix}{node['name']}"
            # First occurrence wins; repeated stage names accumulate.
            out[path] = out.get(path, 0.0) + node["seconds"]
            walk(node.get("children", ()), path + "/")

    walk(record.get("waterfall", ()), "")
    return out


def diff_runs(a: dict, b: dict) -> dict:
    """A structured comparison of two run records (``a`` → ``b``)."""
    config_a, config_b = a.get("config", {}), b.get("config", {})
    config_changes = {
        key: {"a": config_a.get(key), "b": config_b.get(key)}
        for key in sorted(set(config_a) | set(config_b))
        if config_a.get(key) != config_b.get(key)
    }

    def deltas(map_a, map_b):
        rows = []
        for key in sorted(set(map_a) | set(map_b)):
            va, vb = map_a.get(key), map_b.get(key)
            row = {"key": key, "a": va, "b": vb}
            if isinstance(va, (int, float)) \
                    and isinstance(vb, (int, float)):
                row["delta"] = vb - va
                if va:
                    row["ratio"] = vb / va
            rows.append(row)
        return rows

    return {
        "a": a["run_id"], "b": b["run_id"],
        "commands": [a.get("command"), b.get("command")],
        "git_shas": [a.get("git_sha"), b.get("git_sha")],
        "duration_s": {"a": a.get("duration_s"),
                       "b": b.get("duration_s")},
        "config_changes": config_changes,
        "waterfall": deltas(_waterfall_seconds(a),
                            _waterfall_seconds(b)),
        "metrics": deltas(_scalar_metrics(a), _scalar_metrics(b)),
    }


# -- rendering --------------------------------------------------------------

def format_runs_table(records: list[dict]) -> str:
    if not records:
        return "(no run records)"
    id_width = max(len("run id"),
                   *(len(r.get("run_id", "")) for r in records))
    header = (f"{'run id':<{id_width}} {'command':<10} {'status':<8} "
              f"{'duration':>10}  {'sha':<9} started")
    lines = [header, "-" * len(header)]
    for record in records:
        sha = (record.get("git_sha") or "")[:8] or "-"
        duration = record.get("duration_s")
        duration_text = f"{duration:.2f} s" if duration is not None \
            else "-"
        lines.append(
            f"{record['run_id']:<{id_width}} "
            f"{record.get('command', '?'):<10} "
            f"{record.get('status', '?'):<8} {duration_text:>10}  "
            f"{sha:<9} {record.get('started', '')}")
    return "\n".join(lines)


def format_run(record: dict) -> str:
    lines = [f"run      : {record['run_id']}",
             f"command  : {record.get('command')}",
             f"status   : {record.get('status')}"]
    if record.get("error"):
        lines.append(f"error    : {record['error']}")
    lines.append(f"duration : {record.get('duration_s', 0.0):.3f} s")
    lines.append(f"git sha  : {record.get('git_sha') or '(none)'}")
    env = record.get("environment", {})
    lines.append(f"platform : python {env.get('python')} on "
                 f"{env.get('system')}/{env.get('machine')}, "
                 f"{env.get('cpus')} cpus")
    config = record.get("config") or {}
    if config:
        lines.append("config   : " + ", ".join(
            f"{key}={value}" for key, value in sorted(config.items())))
    waterfall = _waterfall_seconds(record)
    if waterfall:
        lines.append("")
        lines.append("stage waterfall:")
        width = max(len(name) for name in waterfall)
        for name, seconds in waterfall.items():
            lines.append(f"  {name:<{width}}  {seconds:>10.4f} s")
    profile = record.get("profile")
    if profile:
        lines.append("")
        lines.append("profiled sections: " + ", ".join(
            f"{section['name']} ({section['seconds']:.3f} s)"
            for section in profile))
    return "\n".join(lines)


def format_diff(diff: dict, top: int = 12) -> str:
    lines = [f"diff {diff['a']} -> {diff['b']}"]
    duration = diff["duration_s"]
    if duration["a"] is not None and duration["b"] is not None:
        delta = duration["b"] - duration["a"]
        lines.append(f"duration : {duration['a']:.3f} s -> "
                     f"{duration['b']:.3f} s ({delta:+.3f} s)")
    if diff["config_changes"]:
        lines.append("config changes:")
        for key, change in diff["config_changes"].items():
            lines.append(f"  {key}: {change['a']!r} -> {change['b']!r}")
    else:
        lines.append("config   : identical")

    def section(title, rows):
        interesting = [row for row in rows if row.get("delta")]
        if not interesting:
            return
        interesting.sort(key=lambda row: -abs(row["delta"]))
        lines.append(f"{title}:")
        for row in interesting[:top]:
            ratio = row.get("ratio")
            ratio_text = f"  ({ratio:.2f}x)" if ratio else ""
            lines.append(f"  {row['key']}: {row['a']:.6g} -> "
                         f"{row['b']:.6g} [{row['delta']:+.6g}]"
                         f"{ratio_text}")

    section("stage waterfall deltas", diff["waterfall"])
    section("metric deltas", diff["metrics"])
    return "\n".join(lines)
