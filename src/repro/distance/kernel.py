"""Vectorized intra-partition distance kernel (struct-of-arrays).

Per-pair Python object math is the last scalability wall after
interning (PR 4) and the block-sparse layout (PR 5): within one
table-set partition every entry is ``d_conj`` over the same small family
of predicates, evaluated ``m·(m−1)/2`` times through dataclass
dispatch, interval objects and dict-backed memos.  This module packs a
partition **once** into flat numpy arrays and produces whole condensed
blocks as array operations:

* **predicate layer** — distinct predicates are deduplicated by value
  (the same equivalence the oracle's pair LRU uses) and their pairwise
  ``d_pred`` matrix is built per category: numeric interval footprints
  as float64 endpoint slots, categorical footprints as uint64 bitset
  rows over the ordered vocabulary, coverage products for cross-column
  pairs, structural keys for column-column predicates;
* **clause layer** — distinct clauses map to rows of a ``d_disj``
  matrix: unit×unit pairs are a gather of the predicate matrix, the
  rare non-unit pairs run the symmetric best-match average over
  predicate-matrix slices;
* **area layer** — the per-clause best match against every area is one
  ``min``-gather table, and the condensed block accumulates forward and
  backward direction sums with two strided writes per row.

The pure-Python :class:`~.predicate_distance.PredicateDistance` remains
the semantic oracle.  **Every fast-path value is bitwise-equal to the
oracle**, not merely close: per-predicate quantities (widened
footprints, total widths, coverage fractions, categorical footprints)
are computed *by the oracle's own helpers* at pack time, and the
vectorized combination replays the oracle's floating-point operation
order — sequential axis-0 reductions for the direction sums (numpy
reduces the outer axis of a C-contiguous array strictly left-to-right,
matching Python's ``+=`` loop), Python-loop sums for clause-level
best-match totals (1-D ``ndarray.sum`` is *not* sequential beyond 8
elements), and identical guard expressions (``max(0.0, 1 − i/u)``,
``union <= 0`` structural fallbacks, empty-CNF fixups).  The
conformance battery in ``tests/distance/test_kernel_conformance.py``
asserts this equality within 1e-12 (and exactly, in practice) across
hypothesis-generated predicate populations.

Anything the pack cannot replay exactly — non-finite or non-float-exact
numeric constants, boolean constants (whose ``True == 1`` predicate
equality makes even the oracle's memo order-dependent), subclassed
metrics — raises :class:`KernelUnsupported` and the caller falls back
to the per-pair pure-Python path for that partition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..algebra.cnf import Clause
from ..algebra.predicates import (ColumnColumnPredicate,
                                  ColumnConstantPredicate,
                                  normalize_constant)
from ..obs import get_logger, trace
from .predicate_distance import PredicateDistance, _categorical_footprint
from .query_distance import QueryDistance

logger = get_logger(__name__)

#: Interval slots per packed numeric footprint.  With a positive
#: resolution every widened footprint is a single interval (the two
#: ``<>`` rays merge); two slots only occur at resolution 0.
_MAX_SLOTS = 2


class KernelUnsupported(Exception):
    """A partition (or metric) the vectorized kernel cannot replay
    bitwise; callers fall back to the pure-Python oracle path."""


@dataclass
class KernelStats:
    """Instrumentation of one :func:`compute_kernel_blocks` run."""

    partitions_packed: int = 0
    partitions_fallback: int = 0
    #: distinct predicates/clauses across all packed partitions
    n_predicates: int = 0
    n_clauses: int = 0
    pairs_vectorized: int = 0
    pairs_fallback: int = 0
    pack_seconds: float = 0.0
    block_seconds: float = 0.0
    #: per-metric totals already pushed to a registry (see :meth:`record`)
    _recorded: dict = field(default_factory=dict, repr=False,
                            compare=False)

    @property
    def vectorized_fraction(self) -> float:
        total = self.pairs_vectorized + self.pairs_fallback
        if not total:
            return 0.0
        return self.pairs_vectorized / total

    def summary(self) -> str:
        return (
            f"{self.partitions_packed} partitions packed "
            f"({self.partitions_fallback} fell back), "
            f"{self.n_predicates} predicates / {self.n_clauses} clauses "
            f"packed; {self.pairs_vectorized:,} pairs vectorized "
            f"({self.vectorized_fraction:.1%}); "
            f"pack {self.pack_seconds:.3f} s, "
            f"blocks {self.block_seconds:.3f} s")

    def record(self, registry) -> None:
        """Fold this run into a metrics registry (``repro_kernel_*``).

        Delta-based and idempotent under re-recording (see
        :func:`repro.obs.metrics.record_counter_deltas`)."""
        from ..obs.metrics import (observe_when_changed,
                                   record_counter_deltas)
        record_counter_deltas(registry, self._recorded, (
            ("repro_kernel_partitions_packed_total",
             self.partitions_packed),
            ("repro_kernel_partitions_fallback_total",
             self.partitions_fallback),
            ("repro_kernel_pairs_vectorized_total",
             self.pairs_vectorized),
            ("repro_kernel_pairs_fallback_total",
             self.pairs_fallback),
            ("repro_kernel_predicates_total", self.n_predicates),
            ("repro_kernel_clauses_total", self.n_clauses)))
        observe_when_changed(registry, self._recorded,
                             "repro_kernel_pack_seconds",
                             self.pack_seconds)
        observe_when_changed(registry, self._recorded,
                             "repro_kernel_block_seconds",
                             self.block_seconds)


def oracle_of(metric) -> PredicateDistance:
    """The :class:`PredicateDistance` behind a plain query metric.

    Only an unmodified :class:`QueryDistance` is replayable: a subclass
    overriding any distance component would change the semantics the
    pack reproduces, so anything else raises :class:`KernelUnsupported`.
    """
    if not isinstance(metric, QueryDistance):
        raise KernelUnsupported(
            f"kernel requires a QueryDistance metric, "
            f"got {type(metric).__name__}")
    for name in ("__call__", "distance", "d_tables", "d_conj", "d_disj",
                 "d_pred"):
        if getattr(type(metric), name) is not getattr(QueryDistance, name):
            raise KernelUnsupported(
                f"metric overrides QueryDistance.{name}; the kernel "
                f"cannot guarantee oracle parity")
    pred = metric._pred
    if type(pred) is not PredicateDistance:
        raise KernelUnsupported(
            f"unexpected predicate oracle {type(pred).__name__}")
    return pred


def _exact(value) -> float:
    """``value`` as float64, refusing any rounding.

    Interval endpoints may be exact Python ints (SkyServer ``objid``
    constants exceed the float53 mantissa at resolution 0); a lossy
    conversion would silently change the width arithmetic the oracle
    performs exactly.
    """
    result = float(value)
    if result != value:
        raise KernelUnsupported(
            f"constant {value!r} is not exactly representable in float64")
    return result


class PackedPartition:
    """Struct-of-arrays pack of one partition's access areas.

    Within a partition ``d_tables == 0`` and the full metric collapses
    to ``d_conj``; the pack therefore produces ``d_conj`` values, which
    equal the metric's bitwise.  Raises :class:`KernelUnsupported` when
    any predicate kind cannot be replayed exactly.
    """

    def __init__(self, areas: Sequence, metric) -> None:
        self._oracle = oracle_of(metric)
        self._stats_catalog = metric.stats

        # Dedup state is retained so :meth:`extend` can append areas
        # with stable predicate/clause/area ids: clauses and predicates
        # are deduplicated by *value* — the same dataclass equality the
        # oracle's memo keys use, so spelling variants (``x = 5`` vs
        # ``x = 5.0``) share one packed row exactly like they share one
        # memo entry.  Per-position id lists keep duplicates: direction
        # sums count positions, not values.
        self._clause_ids: dict[Clause, int] = {}
        self._clauses: list[Clause] = []
        self._pred_ids: dict = {}
        self._preds: list = []
        self._clause_pred_ids: list[list[int]] = []
        self._area_clause_ids: list[list[int]] = []

        self.n_areas = 0
        self.n_predicates = 0
        self.n_clauses = 0
        self._dp = np.zeros((0, 0), dtype=float)
        self._finish_area_layer([], np.zeros((0, 0), dtype=float))
        self.extend(areas)

    def extend(self, areas: Sequence) -> None:
        """Append ``areas`` to the pack, keeping every existing
        predicate/clause/area id stable.

        The grown pack is **bitwise-identical** to a from-scratch pack
        over the concatenated area list: appending preserves the
        first-seen enumeration order of the dedup pass, predicate and
        clause entries are independent per pair, and the best-match
        table's exact ``min`` is order-insensitive.  Raises
        :class:`KernelUnsupported` — *before* mutating any state — when
        a new area's predicates cannot be replayed exactly; callers can
        keep using the unmodified pack after catching it.

        Requires the statistics catalog used at construction to be
        unchanged since: widened access intervals would silently
        invalidate the old predicate rows (the incremental clustering
        layer freezes a private snapshot for exactly this reason).
        """
        areas = list(areas)
        if not areas:
            return
        # -- tentative dedup (no mutation until every check passes) ----
        clause_ids = dict(self._clause_ids)
        clauses = list(self._clauses)
        area_clause_ids = []
        for area in areas:
            ids = []
            for clause in area.cnf.clauses:
                cid = clause_ids.get(clause)
                if cid is None:
                    cid = len(clauses)
                    clause_ids[clause] = cid
                    clauses.append(clause)
                ids.append(cid)
            area_clause_ids.append(ids)
        c_old = self.n_clauses
        new_clauses = clauses[c_old:]

        pred_ids = dict(self._pred_ids)
        preds = list(self._preds)
        clause_pred_ids = list(self._clause_pred_ids)
        for clause in new_clauses:
            ids = []
            for pred in clause.predicates:
                pid = pred_ids.get(pred)
                if pid is None:
                    pid = len(preds)
                    pred_ids[pred] = pid
                    preds.append(pred)
                ids.append(pid)
            clause_pred_ids.append(ids)
        p_old = self.n_predicates
        _check_supported(preds[p_old:])

        # -- rebuild/extend the vectorized tables ----------------------
        # The predicate block raises KernelUnsupported for constants it
        # cannot replay bitwise, so it runs before any commit; nothing
        # below this point can fail.
        dp = self._dp
        if len(preds) > p_old:
            # Full vectorized rebuild: entries between old predicates
            # are elementwise formulas over unchanged inputs, so they
            # stay bitwise-identical and every old clause entry built
            # from them remains valid.
            dp = _predicate_block(preds, self._oracle,
                                  self._stats_catalog)

        # -- commit ----------------------------------------------------
        self._clause_ids = clause_ids
        self._clauses = clauses
        self._pred_ids = pred_ids
        self._preds = preds
        self._clause_pred_ids = clause_pred_ids
        self.n_predicates = len(preds)
        self._dp = dp
        self._area_clause_ids.extend(area_clause_ids)
        if self.n_areas == 0:
            # First fill: build every layer from scratch.
            self.n_clauses = len(clauses)
            self.n_areas = len(self._area_clause_ids)
            self._finish_area_layer(
                self._area_clause_ids,
                _clause_block(clauses, clause_pred_ids, dp))
        else:
            if new_clauses:
                self._append_clause_rows(
                    _clause_rows(clauses, clause_pred_ids, dp, c_old))
            self._append_area_columns(area_clause_ids)

    # -- growable views -----------------------------------------------------
    #
    # The clause and area layers live in capacity-doubled buffers so a
    # streaming insert appends rows/columns instead of reallocating
    # O(c·m) state; the public ``_dc``/``_best``/``_counts``/``_id_pad``
    # names are views of the live region.  Downstream consumers only
    # ever *gather* from these (fancy indexing copies into fresh
    # C-contiguous arrays), so the strided views preserve the bitwise
    # summation-order guarantees documented on each method.

    @property
    def _dc(self) -> "np.ndarray":
        return self._dc_ext_buf[:self.n_clauses, :self.n_clauses]

    @property
    def _dc_ext(self) -> "np.ndarray":
        return self._dc_ext_buf[:self.n_clauses, :self.n_clauses + 1]

    @property
    def _counts(self) -> "np.ndarray":
        return self._counts_buf[:self.n_areas]

    @property
    def _id_pad(self) -> "np.ndarray":
        return self._id_pad_buf[:self.n_areas]

    @property
    def _best(self) -> "np.ndarray":
        return self._best_buf[:self.n_clauses, :self.n_areas]

    # -- area layer ---------------------------------------------------------

    def _finish_area_layer(self, area_clause_ids: list[list[int]],
                           dc: "np.ndarray") -> None:
        m = self.n_areas
        c = self.n_clauses
        counts = np.array([len(ids) for ids in area_clause_ids],
                          dtype=np.intp)
        self._ids = [np.asarray(ids, dtype=np.intp)
                     for ids in area_clause_ids]
        lmax = int(counts.max()) if m else 0
        self._l_cap = max(lmax, 1)
        self._m_cap = max(m, 4)
        self._c_cap = max(c, 4)
        self._counts_buf = np.zeros(self._m_cap, dtype=np.intp)
        self._counts_buf[:m] = counts
        # Padded clause-id matrix: pad index ``c`` addresses a sentinel
        # column/value in the extended tables below; the sentinel index
        # is remapped whenever the clause layer grows.
        self._id_pad_buf = np.full((self._m_cap, self._l_cap), c,
                                   dtype=np.intp)
        for row, ids in enumerate(area_clause_ids):
            self._id_pad_buf[row, :len(ids)] = ids
        self._dc_ext_buf = np.full(
            (self._c_cap, self._c_cap + 1), np.inf)
        self._dc_ext_buf[:c, :c] = dc
        # best_match[k, j] = min over area j's clauses of d_disj(k, ·):
        # the shared inner term of both direction sums.
        best = self._best_buf = np.full((self._c_cap, self._m_cap),
                                        np.inf)
        dc_ext = self._dc_ext
        for level in range(lmax):
            np.minimum(best[:c, :m], dc_ext[:, self._id_pad[:, level]],
                       out=best[:c, :m])
        self._row_cache: Optional[tuple[int, np.ndarray]] = None

    def _append_clause_rows(self, rows: "np.ndarray") -> None:
        """Commit ``_clause_rows`` output: grow the clause dimension of
        the ``d_disj`` and best-match tables and remap the pad
        sentinel."""
        c_old = self.n_clauses
        c = c_old + rows.shape[0]
        if c > self._c_cap:
            cap = max(self._c_cap * 2, c)
            dc_buf = np.full((cap, cap + 1), np.inf)
            dc_buf[:c_old, :c_old] = self._dc_ext_buf[:c_old, :c_old]
            self._dc_ext_buf = dc_buf
            best_buf = np.full((cap, self._m_cap), np.inf)
            best_buf[:c_old] = self._best_buf[:c_old]
            self._best_buf = best_buf
            self._c_cap = cap
        buf = self._dc_ext_buf
        buf[c_old:c, :c] = rows
        buf[:c_old, c_old:c] = rows[:, :c_old].T
        buf[:c, c] = np.inf
        # Old pad rows address the former sentinel column: remap.
        self._id_pad_buf[self._id_pad_buf == c_old] = c
        self.n_clauses = c
        # Best-match rows of the new clauses against every existing
        # area, by the same exact min-gather the full build performs.
        m = self.n_areas
        if m:
            new = self._best_buf[c_old:c, :m]
            new[:] = np.inf
            for level in range(self._l_cap):
                np.minimum(
                    new,
                    buf[c_old:c, :][:, self._id_pad_buf[:m, level]],
                    out=new)
        self._row_cache = None

    def _append_area_columns(
            self, area_clause_ids: list[list[int]]) -> None:
        """Append per-area columns for new members (clause layer must
        already cover their clause ids)."""
        c = self.n_clauses
        m_old = self.n_areas
        m = m_old + len(area_clause_ids)
        need_l = max((len(ids) for ids in area_clause_ids), default=0)
        if need_l > self._l_cap:
            pad = np.full((self._m_cap, max(need_l, 2 * self._l_cap)),
                          c, dtype=np.intp)
            pad[:, :self._l_cap] = self._id_pad_buf
            self._id_pad_buf = pad
            self._l_cap = pad.shape[1]
        if m > self._m_cap:
            cap = max(self._m_cap * 2, m)
            counts = np.zeros(cap, dtype=np.intp)
            counts[:m_old] = self._counts_buf[:m_old]
            self._counts_buf = counts
            pad = np.full((cap, self._l_cap), c, dtype=np.intp)
            pad[:m_old] = self._id_pad_buf[:m_old]
            self._id_pad_buf = pad
            best = np.full((self._c_cap, cap), np.inf)
            best[:, :m_old] = self._best_buf[:, :m_old]
            self._best_buf = best
            self._m_cap = cap
        for offset, ids in enumerate(area_clause_ids):
            row = m_old + offset
            arr = np.asarray(ids, dtype=np.intp)
            self._ids.append(arr)
            self._counts_buf[row] = len(arr)
            self._id_pad_buf[row, :] = c
            self._id_pad_buf[row, :len(arr)] = arr
            if len(arr):
                self._best_buf[:c, row] = \
                    self._dc_ext_buf[:c, arr].min(axis=1)
            else:
                self._best_buf[:c, row] = np.inf
        self.n_areas = m
        self._row_cache = None

    @property
    def storage_floats(self) -> int:
        """Floats held by the pack's tables (predicate + clause +
        best-match layers) — the sub-quadratic footprint that replaces
        the partition's ``m·(m−1)/2`` condensed block."""
        return int(self._dp.size + self._dc_ext.size + self._best.size)

    def _forward_row(self, i: int) -> Optional[np.ndarray]:
        """``Σ_{o ∈ cnf_i} min_{o' ∈ cnf_j} d_disj(o, o')`` for every j.

        The axis-0 reduction of the C-contiguous row gather adds the
        clause rows strictly left-to-right — the oracle's ``forward +=``
        order — so the sums are bitwise-identical.
        """
        if not self._counts[i]:
            return None
        return self._best[self._ids[i]].sum(axis=0)

    def condensed_block(self) -> "np.ndarray":
        """The partition's full condensed ``d_conj`` upper triangle,
        bitwise-equal to the pure-Python per-pair evaluation."""
        m = self.n_areas
        counts = self._counts
        out = np.zeros(m * (m - 1) // 2, dtype=float)
        denom = np.ones_like(out)
        for i in range(m):
            row = self._forward_row(i)
            start = i * (2 * m - i - 1) // 2
            if i + 1 < m:
                stop = start + m - 1 - i
                if row is not None:
                    out[start:stop] += row[i + 1:]
                denom[start:stop] = counts[i] + counts[i + 1:]
            if i > 0 and row is not None:
                js = np.arange(i)
                back = js * (2 * m - js - 1) // 2 + (i - js - 1)
                out[back] += row[:i]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = out / denom
        self._fix_empty_pairs(values)
        return values

    def _fix_empty_pairs(self, values: "np.ndarray") -> None:
        """Replay the oracle's empty-CNF rules (both empty → 0, one
        empty → 1) over the condensed layout."""
        zero = self._counts == 0
        if not zero.any():
            return
        m = self.n_areas
        for i in range(m - 1):
            start = i * (2 * m - i - 1) // 2
            segment = values[start:start + m - 1 - i]
            later_zero = zero[i + 1:]
            if zero[i]:
                segment[later_zero] = 0.0
                segment[~later_zero] = 1.0
            elif later_zero.any():
                segment[later_zero] = 1.0

    def clause_best(self, i: int) -> "np.ndarray":
        """``v[c] = min over area i's clauses of d_disj(c, ·)`` for every
        distinct clause ``c``, padded with a trailing 0.0 sentinel —
        the shared backward-direction ingredient of :meth:`pair_rows`
        and of the metric index's certified pruning bounds."""
        cached = self._row_cache
        if cached is not None and cached[0] == i:
            return cached[1]
        v = self._dc[:, self._ids[i]].min(axis=1) \
            if self.n_clauses and self._counts[i] else \
            np.full(self.n_clauses, np.inf)
        v_ext = np.append(v, 0.0)
        self._row_cache = (i, v_ext)
        return v_ext

    def pair_rows(self, i: int, js: Sequence[int]) -> "np.ndarray":
        """``d_conj`` from area ``i`` to each area in ``js``, bitwise-
        equal to the condensed block entries (one-vs-many form for the
        metric-tree index)."""
        js = np.asarray(js, dtype=np.intp)
        counts = self._counts
        n_i = int(counts[i])
        if n_i == 0:
            return np.where(counts[js] == 0, 0.0, 1.0)
        forward = self._best[self._ids[i]][:, js].sum(axis=0)
        v_ext = self.clause_best(i)
        # C-contiguous transposed gather: each backward sum runs down a
        # column left-to-right, trailing pad zeros are order-neutral.
        back_ids = np.ascontiguousarray(self._id_pad[js].T)
        backward = v_ext[back_ids].sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (forward + backward) / (n_i + counts[js])
        other_zero = counts[js] == 0
        if other_zero.any():
            values[other_zero] = 1.0
        return values


def _check_supported(preds: Sequence) -> None:
    for pred in preds:
        if isinstance(pred, ColumnColumnPredicate):
            continue
        if not isinstance(pred, ColumnConstantPredicate):
            raise KernelUnsupported(
                f"unsupported predicate kind {type(pred).__name__}")
        value = pred.value
        if isinstance(value, bool):
            # ``True == 1`` makes bool/int predicate identity — and
            # therefore the oracle's own memo — evaluation-order
            # dependent; only the true per-pair path reproduces it.
            raise KernelUnsupported(
                "boolean constants are not replayable bitwise")
        if isinstance(value, str):
            continue
        if isinstance(value, (int, float)):
            try:
                numeric = float(value)
            except OverflowError as exc:
                raise KernelUnsupported(
                    f"constant {value!r} overflows float64") from exc
            if not math.isfinite(numeric):
                raise KernelUnsupported(
                    f"non-finite constant {value!r}")
            continue
        raise KernelUnsupported(
            f"unsupported constant type {type(value).__name__}")


# -- predicate layer ---------------------------------------------------------


def _predicate_block(preds: Sequence, oracle: PredicateDistance,
                     stats) -> "np.ndarray":
    """Pairwise ``d_pred`` over the deduplicated predicates.

    The default 1.0 covers every structurally-unrelated pair (mixed
    type on one column, categorical across columns, column-column vs
    column-constant); the category fills below overwrite exactly the
    pairs the oracle treats specially.
    """
    p = len(preds)
    dp = np.ones((p, p), dtype=float)

    numeric = [(pid, pred) for pid, pred in enumerate(preds)
               if isinstance(pred, ColumnConstantPredicate)
               and pred.is_numeric]
    if numeric:
        # Cross-column numeric pairs: 1 − cov·cov everywhere; the
        # same-column groups are overwritten right after.
        idx = np.array([pid for pid, _ in numeric], dtype=np.intp)
        cov = np.array([oracle._coverage_fraction(pred)
                        for _, pred in numeric])
        dp[np.ix_(idx, idx)] = 1.0 - cov[:, None] * cov[None, :]
        by_ref: dict = {}
        for pid, pred in numeric:
            by_ref.setdefault(pred.ref, []).append((pid, pred))
        for ref, members in by_ref.items():
            gidx = np.array([pid for pid, _ in members], dtype=np.intp)
            group = [pred for _, pred in members]
            access = stats.access_interval(ref)
            width = access.width
            if not math.isfinite(width):
                block = _equality_block(
                    [(pred.op, normalize_constant(pred.value))
                     for pred in group])
            elif width <= 0:
                block = _equality_block(
                    [normalize_constant(pred.value) for pred in group])
            else:
                block = _numeric_block(group, oracle, access)
            dp[np.ix_(gidx, gidx)] = block

    by_ref = {}
    for pid, pred in enumerate(preds):
        if isinstance(pred, ColumnConstantPredicate) \
                and isinstance(pred.value, str):
            by_ref.setdefault(pred.ref, []).append((pid, pred))
    for ref, members in by_ref.items():
        gidx = np.array([pid for pid, _ in members], dtype=np.intp)
        vocabulary = stats.access_values(ref)
        footprints = [_categorical_footprint(pred, vocabulary)
                      for _, pred in members]
        dp[np.ix_(gidx, gidx)] = _categorical_block(footprints)

    joins = [(pid, pred) for pid, pred in enumerate(preds)
             if isinstance(pred, ColumnColumnPredicate)]
    if joins:
        idx = np.array([pid for pid, _ in joins], dtype=np.intp)
        # Operand order is canonical, so the ordered qualified-name pair
        # is exactly the unordered column-pair key the oracle compares.
        keys = [(pred.left.qualified, pred.right.qualified)
                for _, pred in joins]
        key_ids = _intern(keys)
        same = key_ids[:, None] == key_ids[None, :]
        dp[np.ix_(idx, idx)] = np.where(same, 0.5, 1.0)

    np.fill_diagonal(dp, 0.0)
    return dp


def _intern(keys: Sequence) -> "np.ndarray":
    table: dict = {}
    out = np.empty(len(keys), dtype=np.intp)
    for position, key in enumerate(keys):
        out[position] = table.setdefault(key, len(table))
    return out


def _equality_block(keys: Sequence) -> "np.ndarray":
    """0.0 on equal keys, 1.0 elsewhere (degenerate-access semantics)."""
    ids = _intern(keys)
    return np.where(ids[:, None] == ids[None, :], 0.0, 1.0)


def _numeric_block(group: Sequence, oracle: PredicateDistance,
                   access) -> "np.ndarray":
    """Same-column numeric ``d_pred``: Jaccard of widened footprints.

    Footprints, their total widths and their structural identities come
    from the oracle itself; only the pairwise intersection widths are
    vectorized — slot by slot in the oracle's sorted accumulation order,
    with empty slots as reversed-infinity sentinels whose clipped
    contribution is exactly 0.0.
    """
    g = len(group)
    footprints = [oracle._widened(pred, access) for pred in group]
    slots = max((len(fp) for fp in footprints), default=0)
    if slots > _MAX_SLOTS:
        raise KernelUnsupported(
            f"footprint with {slots} intervals exceeds the packed "
            f"slot budget")
    slots = max(slots, 1)
    lo = np.full((g, slots), np.inf)
    hi = np.full((g, slots), -np.inf)
    widths = np.empty(g)
    empty = np.zeros(g, dtype=bool)
    structure = _intern(footprints)
    for row, fp in enumerate(footprints):
        for slot, interval in enumerate(fp):
            lo[row, slot] = _exact(interval.lo)
            hi[row, slot] = _exact(interval.hi)
        widths[row] = _exact(fp.total_width)
        empty[row] = fp.is_empty
    if g and not math.isfinite(2.0 * float(widths.max())):
        # w1 + w2 could overflow to inf and drag the union through
        # inf − inf = NaN, where numpy's maximum() and Python's max()
        # disagree; leave such pathologies to the oracle.
        raise KernelUnsupported("footprint widths overflow float64")

    inter = np.zeros((g, g))
    for s in range(slots):
        for t in range(slots):
            segment = (np.minimum(hi[:, s, None], hi[None, :, t])
                       - np.maximum(lo[:, s, None], lo[None, :, t]))
            inter = inter + np.maximum(segment, 0.0)
    union = (widths[:, None] + widths[None, :]) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.maximum(0.0, 1.0 - inter / union)
    degenerate = union <= 0.0
    if degenerate.any():
        same = (structure[:, None] == structure[None, :]) \
            & ~empty[:, None]
        block = np.where(degenerate, np.where(same, 0.0, 1.0), block)
    return block


def _categorical_block(footprints: Sequence) -> "np.ndarray":
    """Same-column categorical ``d_pred`` over bitset footprint rows."""
    g = len(footprints)
    universe: list[str] = sorted(set().union(*footprints)) \
        if footprints else []
    position = {value: k for k, value in enumerate(universe)}
    n_words = max((len(universe) + 63) // 64, 1)
    bits = np.zeros((g, n_words), dtype=np.uint64)
    for row, fp in enumerate(footprints):
        for value in fp:
            k = position[value]
            bits[row, k >> 6] |= np.uint64(1 << (k & 63))
    inter = np.bitwise_count(bits[:, None, :] & bits[None, :, :]) \
        .sum(axis=2, dtype=np.int64)
    union = np.bitwise_count(bits[:, None, :] | bits[None, :, :]) \
        .sum(axis=2, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = 1.0 - inter / union
    return np.where(union == 0, 0.0, block)


# -- clause layer ------------------------------------------------------------


def _clause_block(clauses: Sequence, clause_pred_ids: Sequence,
                  dp: "np.ndarray") -> "np.ndarray":
    """Pairwise ``d_disj`` over the deduplicated clauses."""
    c = len(clauses)
    dc = np.ones((c, c), dtype=float)
    lengths = np.array([len(ids) for ids in clause_pred_ids],
                       dtype=np.intp)

    unit = np.flatnonzero(lengths == 1)
    if len(unit):
        unit_pids = np.array([clause_pred_ids[k][0] for k in unit],
                             dtype=np.intp)
        dc[np.ix_(unit, unit)] = dp[np.ix_(unit_pids, unit_pids)]
    empty = np.flatnonzero(lengths == 0)
    if len(empty):
        dc[np.ix_(empty, empty)] = 0.0

    multi = [int(k) for k in np.flatnonzero(lengths >= 2)]
    multi_set = set(multi)
    for ci in multi:
        ids1 = np.asarray(clause_pred_ids[ci], dtype=np.intp)
        n1 = len(ids1)
        for cj in range(c):
            n2 = int(lengths[cj])
            if n2 == 0 or cj == ci:
                continue
            if cj in multi_set and cj < ci:
                continue  # symmetric, already filled
            sub = dp[np.ix_(ids1, np.asarray(clause_pred_ids[cj],
                                             dtype=np.intp))]
            # Python-loop totals: 1-D ndarray.sum is not left-to-right
            # beyond 8 elements, the oracle's ``+=`` loop is.
            forward = 0.0
            for value in sub.min(axis=1).tolist():
                forward += value
            backward = 0.0
            for value in sub.min(axis=0).tolist():
                backward += value
            dc[ci, cj] = dc[cj, ci] = (forward + backward) / (n1 + n2)
    np.fill_diagonal(dc, 0.0)
    return dc


def _clause_rows(clauses: Sequence, clause_pred_ids: Sequence,
                 dp: "np.ndarray", c_old: int) -> "np.ndarray":
    """``d_disj`` rows of the clauses at ids ``c_old..len(clauses)``
    against *every* clause (old and new).

    Each pair runs the exact :func:`_clause_block` formula for its
    category, so stacking these rows under (and their transpose beside)
    an existing block reproduces the from-scratch matrix bitwise.
    """
    c = len(clauses)
    rows = np.ones((c - c_old, c), dtype=float)
    lengths = np.array([len(ids) for ids in clause_pred_ids],
                       dtype=np.intp)

    unit = np.flatnonzero(lengths == 1)
    new_unit = unit[unit >= c_old]
    if len(new_unit):
        pids_all = np.array([clause_pred_ids[int(k)][0] for k in unit],
                            dtype=np.intp)
        pids_new = np.array(
            [clause_pred_ids[int(k)][0] for k in new_unit],
            dtype=np.intp)
        rows[np.ix_(new_unit - c_old, unit)] = \
            dp[np.ix_(pids_new, pids_all)]
    empty = np.flatnonzero(lengths == 0)
    new_empty = empty[empty >= c_old]
    if len(new_empty):
        rows[np.ix_(new_empty - c_old, empty)] = 0.0

    multi_set = {int(k) for k in np.flatnonzero(lengths >= 2)}
    for ci in sorted(multi_set):
        ids1 = np.asarray(clause_pred_ids[ci], dtype=np.intp)
        n1 = len(ids1)
        # Old-old pairs are retained from the existing block; an old
        # multi clause only pairs against the new id range.
        for cj in range(c_old if ci < c_old else 0, c):
            n2 = int(lengths[cj])
            if n2 == 0 or cj == ci:
                continue
            if cj in multi_set and cj < ci:
                continue  # symmetric, already filled
            sub = dp[np.ix_(ids1, np.asarray(clause_pred_ids[cj],
                                             dtype=np.intp))]
            forward = 0.0
            for value in sub.min(axis=1).tolist():
                forward += value
            backward = 0.0
            for value in sub.min(axis=0).tolist():
                backward += value
            value = (forward + backward) / (n1 + n2)
            if ci >= c_old:
                rows[ci - c_old, cj] = value
            if cj >= c_old:
                rows[cj - c_old, ci] = value
    for k in range(c_old, c):
        rows[k - c_old, k] = 0.0
    return rows


# -- partition fan-out -------------------------------------------------------


def compute_kernel_blocks(items: Sequence, metric,
                          members: Sequence[Sequence[int]],
                          ) -> tuple[list, KernelStats]:
    """Condensed blocks for each partition, vectorized where possible.

    One row-major condensed upper triangle per member list.  Partitions
    the pack cannot replay bitwise fall back to per-pair evaluation of
    ``metric``, so every block equals the per-pair oracle's exactly.
    """
    stats = KernelStats()
    blocks: list = []
    with trace.span("kernel_blocks", partitions=len(members)):
        for member_list in members:
            subset = [items[k] for k in member_list]
            started = time.perf_counter()
            try:
                pack = PackedPartition(subset, metric)
                stats.pack_seconds += time.perf_counter() - started
                block_started = time.perf_counter()
                block = pack.condensed_block()
                stats.block_seconds += \
                    time.perf_counter() - block_started
                stats.partitions_packed += 1
                stats.n_predicates += pack.n_predicates
                stats.n_clauses += pack.n_clauses
                stats.pairs_vectorized += len(block)
                blocks.append(block)
            except KernelUnsupported as exc:
                logger.debug("kernel fallback for %d-area partition: %s",
                             len(member_list), exc)
                m = len(subset)
                values = [metric(subset[a], subset[b])
                          for a in range(m) for b in range(a + 1, m)]
                stats.partitions_fallback += 1
                stats.pairs_fallback += len(values)
                blocks.append(values)
    logger.debug("kernel blocks: %s", stats.summary())
    return blocks, stats
