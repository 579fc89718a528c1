"""Vectorized intra-partition distance kernel (struct-of-arrays).

Per-pair Python object math is the last scalability wall after
interning (PR 4) and the block-sparse layout (PR 5): within one
table-set partition every entry is ``d_conj`` over the same small family
of predicates, evaluated ``m·(m−1)/2`` times through dataclass
dispatch, interval objects and dict-backed memos.  This module packs a
partition into flat numpy arrays, grows them as areas arrive, and
produces whole condensed blocks as array operations:

* **predicate layer** — distinct predicates are deduplicated by value
  (the same equivalence the oracle's pair LRU uses); each one's
  features are computed once, when it enters the pack (coverage
  fraction, widened footprint as float64 endpoint slots with its total
  width and identity, categorical footprint as a uint64 bitset row,
  join key), and its row and column of the pairwise ``d_pred`` matrix
  are filled per category against everything already packed;
* **clause layer** — distinct clauses map to rows of a ``d_disj``
  matrix: unit×unit pairs are a gather of the predicate matrix, the
  rare multi-predicate clauses run the best-match average over
  predicate-matrix slices;
* **area layer** — the per-clause best match against every area is one
  ``min``-gather table, and the condensed block accumulates forward and
  backward direction sums with two strided writes per row.

The pure-Python :class:`~.predicate_distance.PredicateDistance` remains
the semantic oracle.  **Every fast-path value is bitwise-equal to the
oracle**, not merely close: per-predicate quantities (widened
footprints, total widths, coverage fractions, categorical footprints)
are computed *by the oracle's own helpers* as predicates enter, and the
vectorized combination replays the oracle's floating-point operation
order — sequential axis-0 reductions for the direction sums (numpy
reduces the outer axis of a C-contiguous array with two or more columns
strictly left-to-right, matching Python's ``+=`` loop; a single column
is added row by row, see :func:`_sum_rows`), Python-loop sums for
clause-level best-match totals (1-D ``ndarray.sum`` is *not* sequential
beyond 8 elements), and identical guard expressions
(``max(0.0, 1 − i/u)``, ``union <= 0`` structural fallbacks, empty-CNF
fixups).  The conformance battery in
``tests/distance/test_kernel_conformance.py`` asserts this equality
with ``==`` across hypothesis-generated predicate populations, for
packs built at once and packs grown area by area.

Anything the pack cannot replay exactly — non-finite or non-float-exact
numeric constants, boolean constants (whose ``True == 1`` predicate
equality makes even the oracle's memo order-dependent), subclassed
metrics — raises :class:`KernelUnsupported` and the caller falls back
to the per-pair pure-Python path for that partition.
"""

from __future__ import annotations

import copy
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


#: Same-group pair formulas of the predicate layer.  A group holds one
#: column's numeric or categorical predicates, or every column-column
#: predicate; a pair across groups keeps the structural default 1.0,
#: except numeric pairs across columns, which take the coverage product.
_JACCARD = "jaccard"          # numeric: Jaccard of widened footprints
_EQUAL = "equal"              # numeric over a degenerate access range
_JOIN = "join"                # column-column: 0.5 on one column pair
_CATEGORICAL = "categorical"  # categorical: Jaccard of footprints

#: One row of the predicate table: what the pair formulas read about a
#: predicate, computed once, when the predicate enters the pack.
_PREDICATE_ROW = np.dtype([
    ("numeric", np.bool_),
    ("cov", np.float64),        # coverage fraction of access(a)
    ("group", np.intp),
    ("key", np.intp),           # interned footprint, equality key or
                                # column pair
    ("lo", np.float64, (_MAX_SLOTS,)),  # widened footprint slots; empty
    ("hi", np.float64, (_MAX_SLOTS,)),  # ones are reversed infinities
    ("width", np.float64),      # widened footprint total width
    ("empty", np.bool_),
])


#: The footprint slots of a predicate without one.
_NO_LO = (math.inf,) * _MAX_SLOTS
_NO_HI = (-math.inf,) * _MAX_SLOTS


class PackedPartition:
    """Struct-of-arrays pack of one partition's access areas.

    Within a partition ``d_tables == 0`` and the full metric collapses
    to ``d_conj``; the pack therefore produces ``d_conj`` values, which
    equal the metric's bitwise.  Raises :class:`KernelUnsupported` when
    any predicate kind cannot be replayed exactly.

    The constructor is :meth:`extend` on an empty pack, so a pack built
    from scratch and one grown area by area run the same code.
    """

    def __init__(self, areas: Sequence, metric) -> None:
        self._oracle = oracle_of(metric)
        self._stats_catalog = metric.stats

        # Clauses and predicates are deduplicated by *value* — the same
        # dataclass equality the oracle's memo keys use, so spelling
        # variants (``x = 5`` vs ``x = 5.0``) share one packed row
        # exactly like they share one memo entry.  Per-area id arrays
        # keep duplicates: direction sums count positions, not values.
        self._clause_ids: dict[Clause, int] = {}
        self._pred_ids: dict = {}
        self._clause_pids: list[list[int]] = []
        self._ids: list[np.ndarray] = []
        # Per-group formulas (group 0 holds every join) and interned
        # footprint/equality/column-pair keys.
        self._formulas: list[str] = [_JOIN]
        self._key_ids: dict = {}
        # Per-column lookups of the frozen catalog, memoized when a
        # column is first seen (even by an extend that is then refused:
        # a group without members is never read): numeric columns map to
        # (group, access interval, its width), categorical ones to
        # (group, vocabulary); categorical groups also number their
        # footprint values.
        self._numeric: dict = {}
        self._categorical: dict = {}
        self._positions: dict[int, dict] = {}
        self._slots = 1
        self._l_max = 0

        self.n_areas = 0
        self.n_predicates = 0
        self.n_clauses = 0
        self._table = np.zeros(0, dtype=_PREDICATE_ROW)
        self._bits = np.zeros((0, 1), dtype=np.uint64)
        self._dp_buf = np.ones((0, 0))
        self._clause_len = np.zeros(0, dtype=np.intp)
        self._unit_pid = np.zeros(0, dtype=np.intp)
        self._dc_buf = np.full((0, 1), np.inf)
        self._best_buf = np.full((0, 0), np.inf)
        self._counts_buf = np.zeros(0, dtype=np.intp)
        self._id_pad_buf = np.full((0, 0), -1, dtype=np.intp)
        self._row_cache: Optional[tuple[int, np.ndarray]] = None
        self.extend(areas)

    def extend(self, areas: Sequence) -> None:
        """Append ``areas`` to the pack, keeping every existing
        predicate/clause/area id stable.

        Only what is new is computed: each layer appends the rows and
        columns of its new predicates, clauses and areas, vectorized
        over everything already packed, and leaves every old entry in
        place.  An insert therefore costs one vectorized pass over the
        partition's predicates, clauses and areas plus the oracle's
        per-predicate helpers for its new predicates only.

        The grown pack is **bitwise-identical** to a from-scratch pack
        over the concatenated area list: appending preserves the
        first-seen enumeration order of the dedup pass, every entry is
        a function of its own pair, computed in the row/column
        orientation a from-scratch pack uses, and the best-match
        table's exact ``min`` is order-insensitive.  Raises
        :class:`KernelUnsupported` — *before* any id or table changes —
        when a new predicate cannot be replayed exactly; callers can
        keep using the unmodified pack after catching it.

        Requires the statistics catalog used at construction to be
        unchanged since: widened access intervals would silently
        invalidate the old predicate rows (the incremental clustering
        layer freezes a private snapshot for exactly this reason).
        """
        area_ids, new_clauses = _number(
            [area.cnf.clauses for area in areas], self._clause_ids,
            self.n_clauses)
        if not area_ids:
            return
        clause_pids, new_preds = _number(
            [clause.predicates for clause in new_clauses], self._pred_ids,
            self.n_predicates)
        # Every refusal happens here, before any id or table changes.
        features = [self._features(pred) for pred in new_preds]

        self._reserve(self.n_predicates + len(new_preds),
                      self.n_clauses + len(new_clauses),
                      self.n_areas + len(area_ids),
                      max(len(ids) for ids in area_ids))
        self._clause_ids.update(new_clauses)
        self._pred_ids.update(new_preds)
        self._append_predicates(features)
        self._append_clauses(clause_pids)
        self._append_areas(area_ids)
        self._row_cache = None

    def probe(self, area) -> "np.ndarray":
        """``d_conj`` from ``area`` to every packed area, in order,
        leaving this pack bitwise unchanged.

        ``area`` is appended by :meth:`extend` to a copy whose tables
        hold the live region plus exactly the room ``area`` can need:
        one row and column per clause and per predicate it spells.  The
        copy's last row is read back with one :meth:`pair_rows`.  Every
        container an extend writes is copied; the oracle, the catalog
        and the per-area id arrays, which no extend writes, are shared.
        Raises :class:`KernelUnsupported` when ``area`` cannot be
        replayed exactly.
        """
        clauses = area.cnf.clauses
        clone = copy.copy(self)
        for name in ("_clause_ids", "_pred_ids", "_key_ids", "_numeric",
                     "_categorical"):
            setattr(clone, name, dict(getattr(self, name)))
        clone._positions = {gid: dict(positions)
                            for gid, positions in self._positions.items()}
        clone._clause_pids = list(self._clause_pids)
        clone._ids = list(self._ids)
        clone._formulas = list(self._formulas)
        p = self.n_predicates + sum(len(clause.predicates)
                                    for clause in clauses)
        c = self.n_clauses + len(clauses)
        m = self.n_areas
        width = max(self._id_pad_buf.shape[1], len(clauses))
        clone._table = _resized(self._table[:self.n_predicates], (p,), 0)
        clone._bits = _resized(self._bits[:self.n_predicates],
                               (p, self._bits.shape[1]), 0)
        clone._dp_buf = _resized(self._dp, (p, p), 1.0)
        clone._clause_len = _resized(self._clause_len[:self.n_clauses],
                                     (c,), 0)
        clone._unit_pid = _resized(self._unit_pid[:self.n_clauses], (c,),
                                   -1)
        # The last column stays the +inf sentinel of padded area slots.
        clone._dc_buf = _resized(self._dc, (c, c + 1), np.inf)
        clone._best_buf = _resized(self._best, (c, m + 1), np.inf)
        clone._counts_buf = _resized(self._counts, (m + 1,), 0)
        clone._id_pad_buf = _resized(self._id_pad, (m + 1, width), -1)
        clone.extend([area])
        return clone.pair_rows(m, range(m))

    # -- growable views -----------------------------------------------------
    #
    # Every table lives in a capacity-doubled buffer, so an insert
    # appends rows and columns instead of reallocating; the private
    # ``_dp``/``_dc``/``_best``/``_counts``/``_id_pad`` names are views of
    # the live region.  Outside it a buffer still holds its fill value
    # (1.0, +inf, 0 or the -1 pad), which each append relies on.
    # Downstream consumers only ever *gather* from these (fancy indexing
    # copies into fresh C-contiguous arrays), so the strided views
    # preserve the bitwise summation-order guarantees documented on
    # each method.

    @property
    def _dp(self) -> "np.ndarray":
        return self._dp_buf[:self.n_predicates, :self.n_predicates]

    @property
    def _dc(self) -> "np.ndarray":
        return self._dc_buf[:self.n_clauses, :self.n_clauses]

    @property
    def _counts(self) -> "np.ndarray":
        return self._counts_buf[:self.n_areas]

    @property
    def _id_pad(self) -> "np.ndarray":
        return self._id_pad_buf[:self.n_areas]

    @property
    def _best(self) -> "np.ndarray":
        return self._best_buf[:self.n_clauses, :self.n_areas]

    def _reserve(self, p: int, c: int, m: int, width: int) -> None:
        """Grow the buffers, by capacity doubling, to hold ``p``
        predicates, ``c`` clauses and ``m`` areas of up to ``width``
        clauses."""
        p_cap = _capacity(len(self._table), p)
        if p_cap != len(self._table):
            self._table = _resized(self._table, (p_cap,), 0)
            self._bits = _resized(self._bits,
                                  (p_cap, self._bits.shape[1]), 0)
            self._dp_buf = _resized(self._dp_buf, (p_cap, p_cap), 1.0)
        c_cap = _capacity(len(self._clause_len), c)
        if c_cap != len(self._clause_len):
            self._clause_len = _resized(self._clause_len, (c_cap,), 0)
            self._unit_pid = _resized(self._unit_pid, (c_cap,), -1)
            # One column more than clauses: the last one stays +inf, the
            # sentinel that padded (-1) area slots address.
            self._dc_buf = _resized(self._dc_buf, (c_cap, c_cap + 1),
                                    np.inf)
        m_cap, l_cap = self._id_pad_buf.shape
        if m > m_cap or width > l_cap:
            m_cap = _capacity(m_cap, m)
            self._id_pad_buf = _resized(
                self._id_pad_buf, (m_cap, _capacity(l_cap, width)), -1)
            self._counts_buf = _resized(self._counts_buf, (m_cap,), 0)
        if self._best_buf.shape != (c_cap, m_cap):
            self._best_buf = _resized(self._best_buf, (c_cap, m_cap),
                                      np.inf)

    # -- predicate layer ----------------------------------------------------

    def _features(self, pred) -> tuple:
        """What the pair formulas read about ``pred``, from the oracle's
        own helpers: ``(group, key, cov, lo, hi, width, empty,
        footprint)``, the fields of its table row plus its categorical
        footprint.  Raises :class:`KernelUnsupported` for anything the
        pack cannot replay bitwise."""
        _check_supported(pred)
        if isinstance(pred, ColumnColumnPredicate):
            # Operand order is canonical, so the ordered qualified-name
            # pair is exactly the unordered column-pair key the oracle
            # compares.
            return (0, (pred.left.qualified, pred.right.qualified), 0.0,
                    _NO_LO, _NO_HI, 0.0, False, None)
        ref = pred.ref
        if isinstance(pred.value, str):
            column = self._categorical.get(ref)
            if column is None:
                column = self._categorical[ref] = (
                    self._new_group(_CATEGORICAL),
                    self._stats_catalog.access_values(ref))
            return (column[0], None, 0.0, _NO_LO, _NO_HI, 0.0, False,
                    _categorical_footprint(pred, column[1]))
        cov = self._oracle._coverage_fraction(pred)
        column = self._numeric.get(ref)
        if column is None:
            interval = self._stats_catalog.access_interval(ref)
            width = interval.width
            column = self._numeric[ref] = (self._new_group(
                _JACCARD if math.isfinite(width) and width > 0
                else _EQUAL), interval, width)
        group, interval, width = column
        if not math.isfinite(width):
            key = (pred.op, normalize_constant(pred.value))
            return (group, key, cov, _NO_LO, _NO_HI, 0.0, False, None)
        if width <= 0:
            key = normalize_constant(pred.value)
            return (group, key, cov, _NO_LO, _NO_HI, 0.0, False, None)
        footprint = self._oracle._widened(pred, interval)
        if len(footprint) > _MAX_SLOTS:
            raise KernelUnsupported(
                f"footprint with {len(footprint)} intervals exceeds the "
                f"packed slot budget")
        lo, hi = list(_NO_LO), list(_NO_HI)
        for slot, part in enumerate(footprint):
            lo[slot], hi[slot] = _exact(part.lo), _exact(part.hi)
        total = _exact(footprint.total_width)
        if not math.isfinite(2.0 * total):
            # w1 + w2 could overflow to inf and drag the union through
            # inf − inf = NaN, where numpy's maximum() and Python's max()
            # disagree; leave such pathologies to the oracle.
            raise KernelUnsupported("footprint widths overflow float64")
        return (group, footprint, cov, lo, hi, total, footprint.is_empty,
                None)

    def _new_group(self, formula: str) -> int:
        self._formulas.append(formula)
        return len(self._formulas) - 1

    def _append_predicates(self, features: list[tuple]) -> None:
        """Commit new predicates: their table rows, then their rows and
        columns of the pairwise ``d_pred`` table.

        The default 1.0 covers every structurally-unrelated pair (mixed
        type on one column, categorical across columns, column-column vs
        column-constant); the fills below overwrite exactly the pairs
        the oracle treats specially.
        """
        p_old = self.n_predicates
        p = p_old + len(features)
        if p == p_old:
            return
        groups, keys, cov, lo, hi, width, empty, footprints = zip(*features)
        table = self._table
        rows = slice(p_old, p)
        formulas = self._formulas
        table["numeric"][rows] = [formulas[gid] in (_JACCARD, _EQUAL)
                                  for gid in groups]
        table["cov"][rows] = cov
        table["group"][rows] = groups
        table["key"][rows] = [
            -1 if key is None else
            self._key_ids.setdefault(key, len(self._key_ids))
            for key in keys]
        table["lo"][rows] = lo
        table["hi"][rows] = hi
        table["width"][rows] = width
        table["empty"][rows] = empty
        # Slots fill from the first, so the slot columns holding any
        # endpoint count the widest footprint's slots.
        self._slots = max(self._slots, int(
            np.isfinite(table["lo"][rows]).any(axis=0).sum()))
        for pid, gid, footprint in zip(range(p_old, p), groups,
                                       footprints):
            if footprint is not None:
                self._set_bits(pid, gid, footprint)
        self.n_predicates = p

        # New rows and columns still hold the buffer's fill, 1.0.
        dp = self._dp_buf
        numeric = np.flatnonzero(table["numeric"][:p])
        split = int(np.searchsorted(numeric, p_old))
        old, fresh = numeric[:split], numeric[split:]
        if len(fresh):
            # Cross-column numeric pairs: 1 − cov·cov, a commutative
            # product, so the old rows' new columns are the transposed
            # new rows; the same-column groups are overwritten below.
            coverage = table["cov"]
            block = 1.0 - coverage[fresh, None] * coverage[None, numeric]
            dp[fresh[:, None], numeric] = block
            dp[old[:, None], fresh] = block[:, :len(old)].T
        packed = table["group"][:p]
        for gid in sorted(set(groups)):
            members = np.flatnonzero(packed == gid)
            split = int(np.searchsorted(members, p_old))
            old, fresh = members[:split], members[split:]
            block = self._group_block(gid, fresh, members)
            dp[fresh[:, None], members] = block
            if not len(old):
                continue
            if self._formulas[gid] != _JACCARD or self._slots <= 1:
                # A symmetric formula: the columns are the rows.
                dp[old[:, None], fresh] = block[:, :len(old)].T
            else:
                # In the orientation a from-scratch fill uses: the
                # other one adds the slot pairs of two-slot footprints
                # in another order.
                dp[old[:, None], fresh] = self._group_block(gid, old, fresh)
        fresh = np.arange(p_old, p)
        dp[fresh, fresh] = 0.0

    def _group_block(self, gid: int, rows: "np.ndarray",
                     cols: "np.ndarray") -> "np.ndarray":
        """``d_pred`` of predicates ``rows`` (first argument) against
        ``cols``, both of group ``gid``."""
        formula = self._formulas[gid]
        if formula == _CATEGORICAL:
            return _categorical_block(self._bits[rows], self._bits[cols])
        first, second = self._table[rows], self._table[cols]
        if formula == _JACCARD:
            return _numeric_block(first, second, self._slots)
        same = first["key"][:, None] == second["key"][None, :]
        return np.where(same, 0.0 if formula == _EQUAL else 0.5, 1.0)

    def _set_bits(self, pid: int, gid: int, footprint: frozenset) -> None:
        """Write ``footprint`` as categorical predicate ``pid``'s bitset
        row.

        Bit positions are per group (one column) and assigned on first
        sight, so they stay put while later footprints widen the
        column's universe; the pair formula only counts shared and
        total bits.
        """
        position = self._positions.setdefault(gid, {})
        bits = 0
        for value in footprint:
            bits |= 1 << position.setdefault(value, len(position))
        n_words = max((len(position) + 63) // 64, 1)
        if n_words > self._bits.shape[1]:
            self._bits = _resized(
                self._bits, (len(self._bits),
                             _capacity(self._bits.shape[1], n_words)), 0)
        row = self._bits[pid]
        for word in range(n_words):
            row[word] = (bits >> (64 * word)) & 0xFFFF_FFFF_FFFF_FFFF

    # -- clause layer -------------------------------------------------------

    def _append_clauses(self, clause_pids: list[list[int]]) -> None:
        """Commit new clauses: their rows and columns of the pairwise
        ``d_disj`` table, then their best-match rows against every
        packed area."""
        c_old = self.n_clauses
        c = c_old + len(clause_pids)
        if c == c_old:
            return
        self._clause_pids.extend(clause_pids)
        self._clause_len[c_old:c] = [len(pids) for pids in clause_pids]
        self._unit_pid[c_old:c] = [pids[0] if len(pids) == 1 else -1
                                   for pids in clause_pids]
        self.n_clauses = c

        dp = self._dp
        dc = self._dc_buf
        dc[c_old:c, :c] = 1.0
        dc[:c_old, c_old:c] = 1.0
        lengths = self._clause_len[:c]
        pid = self._unit_pid
        unit = np.flatnonzero(lengths == 1)
        split = int(np.searchsorted(unit, c_old))
        old_unit, fresh_unit = unit[:split], unit[split:]
        dc[fresh_unit[:, None], unit] = dp[pid[fresh_unit, None], pid[unit]]
        dc[old_unit[:, None], fresh_unit] = \
            dp[pid[old_unit, None], pid[fresh_unit]]
        empty = np.flatnonzero(lengths == 0)
        fresh_empty = empty[empty >= c_old]
        dc[fresh_empty[:, None], empty] = 0.0
        dc[empty[:, None], fresh_empty] = 0.0

        # Best-match averages: a multi-predicate clause is the first
        # argument against a unit clause, the older of two
        # multi-predicate clauses against the newer.
        multi = np.flatnonzero(lengths >= 2)
        for ci in multi.tolist():
            ids1 = np.asarray(self._clause_pids[ci], dtype=np.intp)
            fresh = ci >= c_old
            units = unit if fresh else fresh_unit
            if len(units):
                sub = dp[ids1[:, None], pid[units]]
                values = (_sum_rows(sub) + sub.min(axis=0)) \
                    / (len(ids1) + 1)
                dc[ci, units] = values
                dc[units, ci] = values
            later = multi[(multi > ci) if fresh else (multi >= c_old)]
            for cj in later.tolist():
                dc[ci, cj] = dc[cj, ci] = _disjunction(
                    dp, ids1, np.asarray(self._clause_pids[cj],
                                         dtype=np.intp))
        fresh = np.arange(c_old, c)
        dc[fresh, fresh] = 0.0

        # Best-match rows of the new clauses against every packed area,
        # by the same exact min-gather new areas get.
        m = self.n_areas
        best = self._best_buf[c_old:c, :m]
        rows = dc[c_old:c]
        for level in range(self._l_max):
            np.minimum(best, rows[:, self._id_pad_buf[:m, level]], out=best)

    # -- area layer ---------------------------------------------------------

    def _append_areas(self, area_ids: list[list[int]]) -> None:
        """Commit new areas: their clause-id rows and their best-match
        columns, ``best[k, j] = min`` over area j's clauses of
        ``d_disj(k, ·)`` — the shared inner term of both direction
        sums."""
        m_old = self.n_areas
        m = m_old + len(area_ids)
        width = max(len(ids) for ids in area_ids)
        pad = self._id_pad_buf
        self._counts_buf[m_old:m] = [len(ids) for ids in area_ids]
        for row, ids in enumerate(area_ids, m_old):
            arr = np.asarray(ids, dtype=np.intp)
            self._ids.append(arr)
            pad[row, :len(arr)] = arr
        self.n_areas = m
        self._l_max = max(self._l_max, width)
        best = self._best_buf[:self.n_clauses, m_old:m]
        dc = self._dc_buf[:self.n_clauses]
        for level in range(width):
            np.minimum(best, dc[:, pad[m_old:m, level]], out=best)

    # -- blocks and rows ----------------------------------------------------

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
        distinct clause ``c``, padded with a trailing 0.0 sentinel that
        padded (-1) area slots address — the backward-direction
        ingredient of :meth:`pair_rows`."""
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
        equal to the condensed block entries (the one-vs-many form an
        insert needs)."""
        js = np.asarray(js, dtype=np.intp)
        counts = self._counts
        n_i = int(counts[i])
        if n_i == 0:
            return np.where(counts[js] == 0, 0.0, 1.0)
        forward = _sum_rows(self._best[self._ids[i]][:, js])
        v_ext = self.clause_best(i)
        # Each backward sum runs down one area's clause slots in order;
        # the trailing pad zeros are order-neutral.
        backward = _sum_rows(v_ext[self._id_pad[js].T])
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (forward + backward) / (n_i + counts[js])
        other_zero = counts[js] == 0
        if other_zero.any():
            values[other_zero] = 1.0
        return values


def _number(groups: list, known: dict, start: int) -> tuple[list, dict]:
    """Ids for the items of each group: an item's id in ``known`` if it
    has one, else a new id from ``start`` on, in first-seen order.
    Returns the id lists and the new items with their ids, leaving
    ``known`` as it was."""
    new: dict = {}
    rows = []
    # An empty ``known`` (a pack being built) is not probed: hashing a
    # clause costs as much as a probe.
    lookup = known.get if known else (lambda item: None)
    for group in groups:
        row = []
        for item in group:
            number = lookup(item)
            if number is None:
                number = new.setdefault(item, start + len(new))
            row.append(number)
        rows.append(row)
    return rows, new


def _capacity(have: int, need: int) -> int:
    """Buffer length for ``need`` items: ``have`` while it suffices,
    else doubled (at least to ``need``)."""
    return have if need <= have else max(2 * have, need)


def _resized(buf: "np.ndarray", shape: tuple, fill) -> "np.ndarray":
    """A ``shape`` array holding ``buf`` in its leading corner and
    ``fill`` everywhere else."""
    out = np.full(shape, fill, dtype=buf.dtype) if fill else \
        np.zeros(shape, dtype=buf.dtype)
    if buf.size:
        out[tuple(map(slice, buf.shape))] = buf
    return out


def _sum_rows(rows: "np.ndarray") -> "np.ndarray":
    """Column sums of ``rows``, added strictly top to bottom from 0.0:
    the oracle's ``+=`` order.  numpy keeps that order in an axis-0
    reduction only while there are two or more columns; a single column
    is summed pairwise, which rounds differently past eight terms."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def _check_supported(pred) -> None:
    if isinstance(pred, ColumnColumnPredicate):
        return
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
        return
    if isinstance(value, (int, float)):
        try:
            numeric = float(value)
        except OverflowError as exc:
            raise KernelUnsupported(
                f"constant {value!r} overflows float64") from exc
        if not math.isfinite(numeric):
            raise KernelUnsupported(
                f"non-finite constant {value!r}")
        return
    raise KernelUnsupported(
        f"unsupported constant type {type(value).__name__}")


def _numeric_block(first: "np.ndarray", second: "np.ndarray",
                   slots: int) -> "np.ndarray":
    """Same-column numeric ``d_pred``: Jaccard of widened footprints.

    Footprints, their total widths and their structural identities come
    from the oracle itself; only the pairwise intersection widths are
    vectorized — slot by slot in the oracle's sorted accumulation order,
    with empty slots as reversed-infinity sentinels whose clipped
    contribution is exactly 0.0, so any ``slots`` at or above the
    widest footprint's gives the same sums.
    """
    lo1, hi1 = first["lo"], first["hi"]
    lo2, hi2 = second["lo"], second["hi"]
    inter = np.zeros((len(first), len(second)))
    for s in range(slots):
        for t in range(slots):
            segment = (np.minimum(hi1[:, s, None], hi2[None, :, t])
                       - np.maximum(lo1[:, s, None], lo2[None, :, t]))
            inter = inter + np.maximum(segment, 0.0)
    union = (first["width"][:, None] + second["width"][None, :]) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.maximum(0.0, 1.0 - inter / union)
    degenerate = union <= 0.0
    if degenerate.any():
        same = (first["key"][:, None] == second["key"][None, :]) \
            & ~first["empty"][:, None]
        block = np.where(degenerate, np.where(same, 0.0, 1.0), block)
    return block


def _categorical_block(first: "np.ndarray",
                       second: "np.ndarray") -> "np.ndarray":
    """Same-column categorical ``d_pred`` over bitset footprint rows."""
    inter = np.bitwise_count(first[:, None, :] & second[None, :, :]) \
        .sum(axis=2, dtype=np.int64)
    union = np.bitwise_count(first[:, None, :] | second[None, :, :]) \
        .sum(axis=2, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = 1.0 - inter / union
    return np.where(union == 0, 0.0, block)


def _disjunction(dp: "np.ndarray", ids1: "np.ndarray",
                 ids2: "np.ndarray") -> float:
    """``d_disj`` of two multi-predicate clauses, ``ids1`` first."""
    sub = dp[ids1[:, None], ids2]
    # Python-loop totals: 1-D ndarray.sum is not left-to-right beyond 8
    # elements, the oracle's ``+=`` loop is.
    forward = 0.0
    for value in sub.min(axis=1).tolist():
        forward += value
    backward = 0.0
    for value in sub.min(axis=0).tolist():
        backward += value
    return (forward + backward) / (len(ids1) + len(ids2))


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
