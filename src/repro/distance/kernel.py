"""Vectorized intra-partition distance kernel (struct-of-arrays).

Per-pair Python object math is the last scalability wall after
interning (PR 4) and the block-sparse layout (PR 5): within one
table-set partition every entry is ``d_conj`` over the same small family
of predicates, evaluated ``m·(m−1)/2`` times through dataclass
dispatch, interval objects and dict-backed memos.  This module packs a
partition into flat numpy arrays that hold only what its areas spell,
grows them as areas arrive, and computes distances from them on demand:

* **predicate layer** — distinct predicates are deduplicated by value
  (the same equivalence the oracle's pair LRU uses); each one's
  features are computed once, when it enters the pack (coverage
  fraction, widened footprint as float64 endpoint slots with its total
  width and identity, categorical footprint as a uint64 bitset row,
  join key), and each group (one column's numeric or categorical
  predicates, or every join) keeps its member ids;
* **clause layer** — each distinct clause keeps its predicate ids;
* **area layer** — each area keeps its clause ids, padded to the
  widest area.

No pairwise table is kept.  One routine (:meth:`PackedPartition._band`)
computes every distance: the ``d_conj`` rows of a band of areas against
packed areas, from the ``d_disj`` rows of the band's clauses
(:meth:`~PackedPartition._disj_rows`), which it computes group by group
from the predicate features — unit×unit pairs are a gather of
``d_pred`` rows, the rare multi-predicate clauses run the best-match
average over them.  An insert (:meth:`~PackedPartition.pair_rows`) and
a ranking probe (:meth:`~PackedPartition.probe`) are a band of one, so
they cost one pass over the partition's predicates, clauses and areas;
:meth:`~PackedPartition.condensed_block` is a loop over bands sized to
a fixed budget of temporaries (:data:`BAND_FLOATS`).

The pure-Python :class:`~.predicate_distance.PredicateDistance` remains
the semantic oracle.  **Every fast-path value is bitwise-equal to the
oracle**, not merely close: per-predicate quantities (widened
footprints, total widths, coverage fractions, categorical footprints)
are computed *by the oracle's own helpers* as predicates enter, and the
vectorized combination replays the oracle's floating-point operation
order — sequential axis-0 reductions for the direction sums (numpy
reduces the outer axis of a C-contiguous array with two or more columns
strictly left-to-right, matching Python's ``+=`` loop; a single column
is added row by row, see :func:`_sum_rows`), segment by segment sums
for clause-level best-match totals (1-D ``ndarray.sum`` is *not*
sequential beyond 8 elements), and identical guard expressions
(``max(0.0, 1 − i/u)``, ``union <= 0`` structural fallbacks, empty-CNF
fixups).  Every entry is a function of its own pair, computed in one
fixed orientation, so a pack grown area by area answers exactly like
one packed at once.  The conformance battery in
``tests/distance/test_kernel_conformance.py`` asserts this equality
with ``==`` across hypothesis-generated predicate populations, for
packs built at once, packs grown area by area and probes.

Anything the pack cannot replay exactly — non-finite or non-float-exact
numeric constants, boolean constants (whose ``True == 1`` predicate
equality makes even the oracle's memo order-dependent), subclassed
metrics — raises :class:`KernelUnsupported`, and the caller evaluates
per pair what the pack cannot hold: a partition of the block-sparse
matrix, its block and its rows alike, or the pairs of a one-pack fill
that touch a refused area (:func:`accept`).
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
from ..obs import get_logger
from .predicate_distance import PredicateDistance, _categorical_footprint
from .query_distance import QueryDistance

logger = get_logger(__name__)

#: Float64 elements the temporaries of one band of rows may hold at once
#: (32 MiB): :meth:`PackedPartition.condensed_block` computes its rows in
#: bands of areas that stay within it.  Every partition of a section-6
#: study fits in one band.
BAND_FLOATS = 2 ** 22

#: Interval slots per packed numeric footprint.  With a positive
#: resolution every widened footprint is a single interval (the two
#: ``<>`` rays merge); two slots only occur at resolution 0.
_MAX_SLOTS = 2


class KernelUnsupported(Exception):
    """A partition (or metric) the vectorized kernel cannot replay
    bitwise; callers fall back to the pure-Python oracle path."""


@dataclass
class KernelStats:
    """Instrumentation of one fill: the partitions of a block-sparse
    matrix (:meth:`~.block_sparse.BlockSparseDistanceMatrix.compute`)
    or the one pack of :func:`dense_fill`."""

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

#: What the pair formulas read about a predicate, computed once, when
#: the predicate enters the pack: one row of float64 ``reals``
#: (coverage fraction of access(a), widened footprint total width and
#: endpoint slots, empty slots being reversed infinities) and one of
#: intp ``tags`` (group, interned footprint/equality key/column pair,
#: whether the footprint is empty, whether it is wide — see
#: :data:`_EXACT_INT`).  Every predicate without a
#: positive-width numeric access range has coverage 0.0, so
#: ``1 − cov·cov`` is the structural default 1.0 for it.
_COV, _WIDTH, _LO, _HI = 0, 1, 2, 2 + _MAX_SLOTS
_REALS = _HI + _MAX_SLOTS
_GROUP, _KEY, _EMPTY, _WIDE = 0, 1, 2, 3
_TAGS = 4

#: Integer footprint endpoints (resolution 0 keeps the constants and
#: access bounds as they are) up to this magnitude leave every width,
#: sum and difference the oracle forms in exact integer arithmetic at
#: or below 2**53, where float64 holds it exactly.  A footprint with a
#: larger integer endpoint is *wide*: the oracle's integer widths and
#: unions can round differently in float64, so a Jaccard pair with a
#: wide side is evaluated by the oracle's own formula.
_EXACT_INT = 2 ** 51


#: The footprint slots of a predicate without one, and its reals.
_NO_LO = (math.inf,) * _MAX_SLOTS
_NO_HI = (-math.inf,) * _MAX_SLOTS
_NO_REALS = (0.0, 0.0) + _NO_LO + _NO_HI

#: ``_unit_pid`` entries: a clause that is not a unit clause reads the
#: 1.0 column of a ``d_pred`` row table; the entry past the live clauses
#: (addressed by the -1 pad of an area's clause ids) its +inf column.
_NOT_UNIT = -2
_PAD = -1

#: Column kinds of :meth:`_Stage.column`.
_NUMERIC = "numeric"


class _Stage:
    """Areas numbered against a pack, their new predicates' features,
    and what those add to the pack's lookups — groups, columns, interned
    keys and categorical bit positions — before anything is committed.
    :meth:`PackedPartition.extend` commits a stage and a probe only
    reads one, so a refused extend and a probe leave the pack as it
    was."""

    def __init__(self, pack: "PackedPartition", areas: Sequence) -> None:
        self.pack = pack
        self.formulas: list[str] = []
        self.columns: dict = {}
        self.keys: dict = {}
        self.positions: dict[int, dict] = {}
        self.area_ids, self.new_clauses = _number(
            [area.cnf.clauses for area in areas], pack._clause_ids,
            pack.n_clauses)
        self.clause_pids, self.new_preds = _number(
            [clause.predicates for clause in self.new_clauses],
            pack._pred_ids, pack.n_predicates)
        # Every refusal happens here, before anything is committed.
        features = [pack._features(pred, self) for pred in self.new_preds]
        self.reals = np.array([reals for reals, _, _ in features],
                              dtype=np.float64).reshape(-1, _REALS)
        self.tags = np.array([tags for _, tags, _ in features],
                             dtype=np.intp).reshape(-1, _TAGS)
        width = max([pack._bits.shape[1]] + [
            (len(pack._positions.get(gid, ())) + len(new) + 63) // 64
            for gid, new in self.positions.items()])
        self.words = np.zeros((len(features), width), dtype=np.uint64)
        for word_row, (_, _, bits) in zip(self.words, features):
            for word in range(width if bits else 0):
                word_row[word] = (bits >> (64 * word)) \
                    & 0xFFFF_FFFF_FFFF_FFFF
        # Slots fill from the first: the widest footprint's count.
        self.slots = max([sum(map(math.isfinite, reals[_LO:_HI]))
                          for reals, _, _ in features], default=0)

    def column(self, kind: str, ref):
        """``(group, catalog entry)`` of ``ref``'s ``kind`` predicates
        (:data:`_NUMERIC` or :data:`_CATEGORICAL`): the access interval
        with its width, or the vocabulary."""
        key = (kind, ref)
        found = self.pack._columns.get(key) or self.columns.get(key)
        if found is not None:
            return found
        catalog = self.pack._stats_catalog
        if kind == _CATEGORICAL:
            formula, entry = _CATEGORICAL, catalog.access_values(ref)
        else:
            interval = catalog.access_interval(ref)
            width = interval.width
            formula = _JACCARD if math.isfinite(width) and width > 0 \
                else _EQUAL
            entry = (interval, width)
        self.formulas.append(formula)
        gid = len(self.pack._formulas) + len(self.formulas) - 1
        found = self.columns[key] = (gid, entry)
        return found

    def key(self, key) -> int:
        """The interned id of a footprint, equality key or column
        pair."""
        known = self.pack._key_ids.get(key)
        if known is not None:
            return known
        return self.keys.setdefault(
            key, len(self.pack._key_ids) + len(self.keys))

    def bits(self, gid: int, footprint: frozenset) -> int:
        """``footprint`` as a bitset over group ``gid``'s values.

        Bit positions are per group (one column) and assigned on first
        sight, so they stay put while later footprints widen the
        column's universe; the pair formula only counts shared and
        total bits."""
        held = self.pack._positions.get(gid, {})
        new = self.positions.setdefault(gid, {})
        bits = 0
        for value in footprint:
            position = held.get(value)
            if position is None:
                position = new.setdefault(value, len(held) + len(new))
            bits |= 1 << position
        return bits

    def spelled(self, clause_id: int) -> list[int]:
        """The predicate ids of new clause ``clause_id``."""
        return self.clause_pids[clause_id - self.pack.n_clauses]


@dataclass
class _Rows:
    """Clauses whose ``d_disj`` rows :meth:`PackedPartition._disj_rows`
    computes, with the features of the predicates they spell.

    ``reals``/``tags``/``bits``/``pids`` describe the row predicates
    (their feature and bitset rows and ids, which number predicates not
    packed yet past the packed ones, in ``staged``); each unit clause
    ``unit[r]`` spells row predicate ``unit_k[r]``, each multi-predicate
    clause in ``multi`` the row predicates listed with it, and the
    clauses in ``empty`` none.  ``plain`` marks a row set whose every
    clause ``r`` is a unit clause spelling row predicate ``r``."""

    ids: np.ndarray
    unit: np.ndarray
    unit_k: np.ndarray
    multi: list
    empty: list
    reals: np.ndarray
    tags: np.ndarray
    bits: np.ndarray
    pids: np.ndarray
    staged: Sequence = ()
    slots: int = 0
    plain: bool = False

    def pred(self, k: int, pack: "PackedPartition"):
        """The predicate behind row predicate ``k``."""
        pid = int(self.pids[k])
        if pid < pack.n_predicates:
            return pack._preds[pid]
        return self.staged[pid - pack.n_predicates]


class PackedPartition:
    """Struct-of-arrays pack of one partition's access areas.

    Within a partition ``d_tables == 0`` and the full metric collapses
    to ``d_conj``; the pack therefore produces ``d_conj`` values, which
    equal the metric's bitwise.  Raises :class:`KernelUnsupported` when
    any predicate kind cannot be replayed exactly.

    The constructor is :meth:`extend` on an empty pack, so a pack built
    from scratch and one grown area by area run the same code.  The
    pack holds per-predicate features, per-clause predicate ids and
    per-area clause ids only — ``O(P + C + m·L)`` for ``P`` predicates,
    ``C`` clauses and ``m`` areas of up to ``L`` clauses — and computes
    every distance when it is asked for.
    """

    def __init__(self, areas: Sequence, metric) -> None:
        self._oracle = oracle_of(metric)
        self._stats_catalog = metric.stats

        # Clauses and predicates are deduplicated by *value* — the same
        # dataclass equality the oracle's memo keys use, so spelling
        # variants (``x = 5`` vs ``x = 5.0``) share one packed row
        # exactly like they share one memo entry.  Per-area id rows
        # keep duplicates: direction sums count positions, not values.
        self._clause_ids: dict[Clause, int] = {}
        self._pred_ids: dict = {}
        self._preds: list = []      # by id, for wide Jaccard pairs
        self._wide = False          # whether any packed footprint is wide
        # Per-group formulas and member ids (group 0 holds every join),
        # interned footprint/equality/column-pair keys, and per-column
        # lookups of the frozen catalog: ``(kind, column)`` maps to the
        # group and the access interval with its width (numeric) or the
        # vocabulary (categorical); categorical groups also number
        # their footprint values.
        self._formulas: list[str] = [_JOIN]
        self._members: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
        self._sizes: list[int] = [0]
        self._key_ids: dict = {}
        self._columns: dict = {}
        self._positions: dict[int, dict] = {}
        self._slots = 1
        self._l_max = 0

        self.n_areas = 0
        self.n_predicates = 0
        self.n_clauses = 0
        self._reals = np.zeros((0, _REALS))
        self._tags = np.zeros((0, _TAGS), dtype=np.intp)
        self._bits = np.zeros((0, 1), dtype=np.uint64)
        self._clause_len = np.zeros(0, dtype=np.intp)
        self._unit_pid = np.full(1, _PAD, dtype=np.intp)
        # Multi-predicate clauses, ascending, with their predicate ids
        # laid end to end.
        self._multi = np.zeros(0, dtype=np.intp)
        self._multi_pids = np.zeros(0, dtype=np.intp)
        self._multi_start = np.zeros(0, dtype=np.intp)
        self._multi_len = np.zeros(0, dtype=np.intp)
        self._counts_buf = np.zeros(0, dtype=np.intp)
        self._id_pad_buf = np.full((0, 0), _PAD, dtype=np.intp)
        self.extend(areas)

    def extend(self, areas: Sequence) -> None:
        """Append ``areas`` to the pack, keeping every existing
        predicate/clause/area id stable.

        Only what is new is computed: the features of new predicates
        (by the oracle's per-predicate helpers), the predicate ids of
        new clauses and the clause ids of the new areas.  Appending
        preserves the first-seen enumeration order of the dedup pass,
        so the grown pack holds exactly what a from-scratch pack over
        the concatenated area list holds.  Raises
        :class:`KernelUnsupported` — *before* anything changes — when a
        new predicate cannot be replayed exactly; callers can keep
        using the unmodified pack after catching it.

        Requires the statistics catalog used at construction to be
        unchanged since: widened access intervals would silently
        invalidate the old predicate features (the incremental
        clustering layer freezes a private snapshot for exactly this
        reason).
        """
        stage = _Stage(self, areas)
        if not stage.area_ids:
            return
        self._reserve(self.n_predicates + len(stage.new_preds),
                      self.n_clauses + len(stage.new_clauses),
                      self.n_areas + len(stage.area_ids),
                      max(len(ids) for ids in stage.area_ids),
                      stage.words.shape[1])
        self._clause_ids.update(stage.new_clauses)
        self._pred_ids.update(stage.new_preds)
        self._commit_lookups(stage)
        self._append_predicates(stage)
        self._append_clauses(stage.clause_pids)
        self._append_areas(stage.area_ids)

    def probe(self, area) -> "np.ndarray":
        """``d_conj`` from ``area`` to every packed area, in order,
        leaving this pack unchanged.

        ``area`` is staged as :meth:`extend` would stage it — its new
        predicates' features computed, new ids numbered past the packed
        ones — and its row computed from the staged features, without
        committing anything: the value equals :meth:`pair_rows` of a
        pack holding ``area`` last.  Raises :class:`KernelUnsupported`
        when ``area`` cannot be replayed exactly.
        """
        stage = _Stage(self, [area])
        (ids,) = stage.area_ids
        return self._band(np.asarray(ids, dtype=np.intp),
                          np.array([len(ids)]),
                          np.arange(self.n_areas, dtype=np.intp), stage)[0]

    # -- growable arrays ----------------------------------------------------
    #
    # Every array is a capacity buffer that doubles when an extend
    # outgrows it (a pack built in one go is sized exactly), so an
    # insert appends instead of reallocating.  Past the live region
    # ``_unit_pid`` and ``_id_pad_buf`` hold the -1 pad, which the row
    # computation relies on.

    def _reserve(self, p: int, c: int, m: int, width: int,
                 words: int) -> None:
        """Grow the buffers to hold ``p`` predicates with bitsets of
        ``words`` words, ``c`` clauses and ``m`` areas of up to
        ``width`` clauses."""
        p_cap = _capacity(len(self._reals), p)
        if p_cap != len(self._reals):
            self._reals = _resized(self._reals, (p_cap, _REALS), 0)
            self._tags = _resized(self._tags, (p_cap, _TAGS), 0)
        if (p_cap, words) != self._bits.shape:
            self._bits = _resized(self._bits, (p_cap, words), 0)
        # One entry more than clauses: the pad entry past the end.
        c_cap = _capacity(len(self._unit_pid), c + 1)
        if c_cap != len(self._unit_pid):
            self._unit_pid = _resized(self._unit_pid, (c_cap,), _PAD)
            self._clause_len = _resized(self._clause_len, (c_cap,), 0)
        m_cap, l_cap = self._id_pad_buf.shape
        if m > m_cap or width > l_cap:
            m_cap = _capacity(m_cap, m)
            self._id_pad_buf = _resized(
                self._id_pad_buf, (m_cap, _capacity(l_cap, width)), _PAD)
            self._counts_buf = _resized(self._counts_buf, (m_cap,), 0)

    # -- predicate layer ----------------------------------------------------

    def _features(self, pred, stage: _Stage) -> tuple:
        """What the pair formulas read about ``pred``, from the oracle's
        own helpers: its ``reals`` and ``tags`` rows and its categorical
        bitset.  Raises :class:`KernelUnsupported` for anything the pack
        cannot replay bitwise."""
        _check_supported(pred)
        if isinstance(pred, ColumnColumnPredicate):
            # Operand order is canonical, so the ordered qualified-name
            # pair is exactly the unordered column-pair key the oracle
            # compares.
            key = stage.key((pred.left.qualified, pred.right.qualified))
            return _NO_REALS, (0, key, 0, 0), 0
        ref = pred.ref
        if isinstance(pred.value, str):
            group, vocabulary = stage.column(_CATEGORICAL, ref)
            footprint = _categorical_footprint(pred, vocabulary)
            return (_NO_REALS, (group, -1, 0, 0),
                    stage.bits(group, footprint))
        group, (interval, width) = stage.column(_NUMERIC, ref)
        if not math.isfinite(width):
            key = stage.key((pred.op, normalize_constant(pred.value)))
            return _NO_REALS, (group, key, 0, 0), 0
        if width <= 0:
            key = stage.key(normalize_constant(pred.value))
            return _NO_REALS, (group, key, 0, 0), 0
        # The coverage fraction and the widened footprint, from one clamp.
        cov, clamped = self._oracle._clamp(pred, interval)
        footprint = self._oracle._widen(pred, clamped, interval)
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
        wide = any(isinstance(end, int) and abs(end) > _EXACT_INT
                   for part in footprint for end in (part.lo, part.hi))
        return ((cov, total, *lo, *hi),
                (group, stage.key(footprint), int(footprint.is_empty),
                 int(wide)), 0)

    def _commit_lookups(self, stage: _Stage) -> None:
        self._formulas.extend(stage.formulas)
        self._members.extend(np.zeros(0, dtype=np.intp)
                             for _ in stage.formulas)
        self._sizes.extend(0 for _ in stage.formulas)
        self._columns.update(stage.columns)
        self._key_ids.update(stage.keys)
        for gid, new in stage.positions.items():
            self._positions.setdefault(gid, {}).update(new)

    def _append_predicates(self, stage: _Stage) -> None:
        """Commit new predicates: their feature and bitset rows, and
        their ids in their groups' member lists."""
        p_old = self.n_predicates
        p = p_old + len(stage.reals)
        if p == p_old:
            return
        self._preds.extend(stage.new_preds)
        self._wide = self._wide or bool(stage.tags[:, _WIDE].any())
        self._reals[p_old:p] = stage.reals
        self._tags[p_old:p] = stage.tags
        self._bits[p_old:p] = stage.words
        groups = stage.tags[:, _GROUP]
        for gid in sorted(set(groups.tolist())):
            pids = np.flatnonzero(groups == gid) + p_old
            size = self._sizes[gid]
            members = self._members[gid]
            need = size + len(pids)
            if need > len(members):
                members = self._members[gid] = _resized(
                    members, (_capacity(len(members), need),), 0)
            members[size:need] = pids
            self._sizes[gid] = need
        self._slots = max(self._slots, stage.slots)
        self.n_predicates = p

    def _group_members(self, gid: int) -> "np.ndarray":
        return self._members[gid][:self._sizes[gid]]

    def _group_block(self, gid: int, rows: _Rows, ks: "np.ndarray",
                     cols: "np.ndarray", slots: int,
                     transposed: bool = False) -> "np.ndarray":
        """``d_pred`` of row predicates ``ks`` against packed predicates
        ``cols``, all of group ``gid``, with the row predicate as the
        first argument, or — ``transposed`` — the second; a Jaccard
        pair with a wide footprint (see :data:`_EXACT_INT`) takes the
        oracle's formula."""
        formula = self._formulas[gid]
        ks, cols = ks[:, None], cols[None, :]
        if formula == _CATEGORICAL:
            bits, second = rows.bits[ks], self._bits[cols]
            if bits.shape[-1] > second.shape[-1]:
                second = _resized(second, second.shape[:-1]
                                  + bits.shape[-1:], 0)
            return _categorical_block(bits, second)
        first = (rows.reals[ks], rows.tags[ks])
        second = (self._reals[cols], self._tags[cols])
        if formula != _JACCARD:
            same = first[1][..., _KEY] == second[1][..., _KEY]
            return np.where(same, 0.0 if formula == _EQUAL else 0.5, 1.0)
        values = _numeric_block(*second, *first, slots) if transposed \
            else _numeric_block(*first, *second, slots)
        wide = first[1][..., _WIDE] | second[1][..., _WIDE] \
            if self._wide or rows.staged else None
        if wide is not None and wide.any():
            numeric = self._oracle._same_column_numeric
            ks, cols = np.broadcast_arrays(ks, cols)
            for at in zip(*np.nonzero(wide)):
                pred = rows.pred(int(ks[at]), self)
                other = self._preds[int(cols[at])]
                values[at] = numeric(other, pred) if transposed \
                    else numeric(pred, other)
        return values

    def _pred_rows(self, rows: _Rows) -> tuple:
        """``d_pred`` of each row predicate (first argument) against
        every packed predicate, and the same in the other orientation.

        Each table is ``(k, P + 2)``: the last two columns hold 1.0 and
        +inf, which ``_unit_pid``'s ``_NOT_UNIT`` and ``_PAD`` entries
        address.  The other orientation is the same array unless a
        two-slot Jaccard group is involved (resolution 0), whose
        footprints add their slot pairs in another order."""
        p = self.n_predicates
        reals, tags = rows.reals, rows.tags
        out = np.empty((len(reals), p + 2))
        out[:, :p] = 1.0 - reals[:, _COV, None] \
            * self._reals[None, :p, _COV]
        out[:, p] = 1.0
        out[:, p + 1] = np.inf
        slots = max(self._slots, rows.slots)
        by_group = {}
        for k, gid in enumerate(tags[:, _GROUP].tolist()):
            by_group.setdefault(gid, []).append(k)
        by_group = [(gid, np.asarray(ks, dtype=np.intp))
                    for gid, ks in by_group.items()
                    if gid < len(self._formulas)]
        two_slot = []
        for gid, ks in by_group:
            members = self._group_members(gid)
            if not len(members):
                continue
            out[ks[:, None], members] = self._group_block(
                gid, rows, ks, members, slots)
            if slots > 1 and self._formulas[gid] == _JACCARD:
                two_slot.append((gid, ks, members))
        held = np.flatnonzero(rows.pids < p)
        out[held, rows.pids[held]] = 0.0
        if not two_slot:
            return out, out
        back = out.copy()
        for gid, ks, members in two_slot:
            back[ks[:, None], members] = self._group_block(
                gid, rows, ks, members, slots, transposed=True)
        back[held, rows.pids[held]] = 0.0
        return out, back

    # -- clause layer -------------------------------------------------------

    def _append_clauses(self, clause_pids: list[list[int]]) -> None:
        """Commit new clauses: their lengths and predicate ids."""
        c_old = self.n_clauses
        c = c_old + len(clause_pids)
        if c == c_old:
            return
        lengths = [len(pids) for pids in clause_pids]
        self._clause_len[c_old:c] = lengths
        self._unit_pid[c_old:c] = [pids[0] if len(pids) == 1 else _NOT_UNIT
                                   for pids in clause_pids]
        multi = [k for k, n in enumerate(lengths) if n >= 2]
        if multi:
            lens = np.array([lengths[k] for k in multi], dtype=np.intp)
            self._multi = np.append(self._multi, np.asarray(multi) + c_old)
            self._multi_start = np.append(
                self._multi_start,
                len(self._multi_pids) + np.cumsum(lens) - lens)
            self._multi_len = np.append(self._multi_len, lens)
            self._multi_pids = np.append(self._multi_pids, [
                pid for k in multi for pid in clause_pids[k]])
        self.n_clauses = c

    def _spelled(self, clause_id: int) -> list[int]:
        """The predicate ids of packed clause ``clause_id``."""
        n = int(self._clause_len[clause_id])
        if n == 1:
            return [int(self._unit_pid[clause_id])]
        if n == 0:
            return []
        at = int(np.searchsorted(self._multi, clause_id))
        start = int(self._multi_start[at])
        return self._multi_pids[start:start + n].tolist()

    def _rows(self, ids: "np.ndarray", stage: Optional[_Stage] = None
              ) -> _Rows:
        """The row set of clauses ``ids``: packed ones, or new ones of
        ``stage``, whose new predicates' features it holds."""
        if stage is None and (self._clause_len[ids] == 1).all():
            pids = self._unit_pid[ids]
            return _Rows(ids, np.arange(len(ids)), np.arange(len(ids)),
                         [], [], self._reals[pids], self._tags[pids],
                         self._bits[pids], pids, plain=True)
        c = self.n_clauses
        flat: list[int] = []
        unit, unit_k, multi, empty = [], [], [], []
        for r, clause_id in enumerate(ids.tolist()):
            pids = stage.spelled(clause_id) if clause_id >= c \
                else self._spelled(clause_id)
            start = len(flat)
            flat.extend(pids)
            if len(pids) == 1:
                unit.append(r)
                unit_k.append(start)
            elif pids:
                multi.append((r, np.arange(start, len(flat))))
            else:
                empty.append(r)
        flat = np.asarray(flat, dtype=np.intp)
        p = self.n_predicates
        new = flat >= p
        old = ~new
        reals = np.empty((len(flat), _REALS))
        tags = np.empty((len(flat), _TAGS), dtype=np.intp)
        reals[old] = self._reals[flat[old]]
        tags[old] = self._tags[flat[old]]
        words = self._bits.shape[1]
        slots = 0
        if stage is not None:
            reals[new] = stage.reals[flat[new] - p]
            tags[new] = stage.tags[flat[new] - p]
            words = max(words, stage.words.shape[1])
            slots = stage.slots
        bits = np.zeros((len(flat), words), dtype=np.uint64)
        bits[old, :self._bits.shape[1]] = self._bits[flat[old]]
        if new.any():
            bits[new, :stage.words.shape[1]] = stage.words[flat[new] - p]
        return _Rows(ids, np.asarray(unit, dtype=np.intp),
                     np.asarray(unit_k, dtype=np.intp), multi, empty,
                     reals, tags, bits, flat,
                     list(stage.new_preds) if stage is not None else (),
                     slots)

    def _disj_rows(self, rows: _Rows) -> tuple:
        """``d_disj`` of each clause of ``rows`` against every packed
        clause, ``(n, C + 1)`` with a trailing +inf column that padded
        (-1) area slots address, and the table of ``d_disj(packed
        clause, row clause)``.

        Each entry is the one a from-scratch fill computes: a unit pair
        takes ``d_pred`` with the row's predicate first; a multi-
        predicate clause is the first argument against a unit clause,
        the older of two multi-predicate clauses against the newer.  So
        the orientations differ only for unit pairs of a two-slot
        Jaccard group."""
        c = self.n_clauses
        out, back = self._pred_rows(rows)
        cols = self._unit_pid[:c + 1]
        unit, unit_k = rows.unit, rows.unit_k
        if rows.plain:
            table = out.take(cols, axis=1)
        else:
            table = np.empty((len(rows.ids), c + 1))
            if len(unit):
                table[unit] = out[np.ix_(unit_k, cols)]
        multi = self._multi
        starts, lengths = self._multi_start, self._multi_len
        if len(multi) and len(unit):
            # Unit rows against multi-predicate clauses: the clause's
            # predicates first, each match over the unit predicate.
            sub = back[np.ix_(unit_k, self._multi_pids)]
            table[np.ix_(unit, multi)] = \
                (_segment_sums(sub, starts, lengths)
                 + np.minimum.reduceat(sub, starts, axis=1)) \
                / (lengths + 1)
        for r, ks in rows.multi:
            sub = out[np.ix_(ks, cols)]
            table[r] = (_sum_rows(sub) + sub.min(axis=0)) / (len(ks) + 1)
            clause_id = int(rows.ids[r])
            if len(multi):
                sub = out[np.ix_(ks, self._multi_pids)]
                older = multi < clause_id
                if back is not out and older.any():
                    sub = np.where(np.repeat(older, lengths),
                                   back[np.ix_(ks, self._multi_pids)], sub)
                # Both direction sums of each best-match average: over
                # the row clause's predicates, then the column's.
                table[r, multi] = (
                    _sum_rows(np.minimum.reduceat(sub, starts, axis=1))
                    + _segment_sums(sub.min(axis=0)[None, :], starts,
                                    lengths)[0]) / (len(ks) + lengths)
            if clause_id < c:
                table[r, clause_id] = 0.0
        if rows.empty:
            empty = np.flatnonzero(self._clause_len[:c] == 0)
            for r in rows.empty:
                table[r] = 1.0
                table[r, empty] = 0.0
                table[r, c] = np.inf
        if back is out or not len(unit):
            return table, table
        other = table.copy()
        other[unit] = back[np.ix_(unit_k, cols)]
        if len(multi):
            other[np.ix_(unit, multi)] = table[np.ix_(unit, multi)]
        return table, other

    # -- area layer ---------------------------------------------------------

    def _append_areas(self, area_ids: list[list[int]]) -> None:
        """Commit new areas: their clause counts and clause ids."""
        m_old = self.n_areas
        m = m_old + len(area_ids)
        pad = self._id_pad_buf
        self._counts_buf[m_old:m] = [len(ids) for ids in area_ids]
        for row, ids in enumerate(area_ids, m_old):
            pad[row, :len(ids)] = ids
        self.n_areas = m
        self._l_max = max([self._l_max] + [len(ids) for ids in area_ids])

    def _clause_ids_of(self, i: int) -> "np.ndarray":
        return self._id_pad_buf[i, :self._counts_buf[i]]

    # -- rows and blocks ----------------------------------------------------

    def pair_rows(self, i: int, js: Sequence[int]) -> "np.ndarray":
        """``d_conj`` from area ``i`` to each area in ``js`` (the one-vs-
        many form an insert needs): a band of one."""
        return self._band(self._clause_ids_of(i), self._counts_buf[i:i + 1],
                          np.asarray(js, dtype=np.intp))[0]

    def condensed_block(self) -> "np.ndarray":
        """The pack's condensed ``d_conj`` upper triangle, bitwise-equal
        to the pure-Python per-pair evaluation.

        Computed in bands of consecutive areas, each against every later
        area (:meth:`_band`); a band holds as many areas as keep its
        temporaries within :data:`BAND_FLOATS`, so the block costs its
        output plus one band."""
        m = self.n_areas
        out = np.empty(m * (m - 1) // 2)
        pad = self._id_pad_buf[:m, :self._l_max]
        start = 0
        for stop in self._band_stops():
            ids = pad[start:stop]
            band = self._band(ids[ids >= 0], self._counts_buf[start:stop],
                              np.arange(start + 1, m, dtype=np.intp))
            for i in range(start, stop):
                at = i * (2 * m - i - 1) // 2
                out[at:at + m - 1 - i] = band[i - start, i - start:]
            start = stop
        return out

    def _band_stops(self) -> list[int]:
        """Where each band of :meth:`condensed_block` ends: every area
        but the last, in runs whose estimated temporaries stay within
        :data:`BAND_FLOATS` (at least one area a band).

        Against ``J`` later areas, a band area of ``n`` clauses
        spelling ``k`` predicates costs about ``(n + 1)·(6·J + 4·(C +
        M))`` floats for its ``d_disj`` rows, best matches and sums
        (:func:`_band_sums`), and ``k·(2·P + 5·G)`` for its ``d_pred``
        rows and the pair formulas over groups of up to ``G``
        predicates, in a pack of ``P`` predicates and ``C`` clauses
        whose multi-predicate clauses spell ``M``."""
        m, width = self.n_areas, self._l_max
        counts = self._counts_buf[:m - 1] + 1
        spelled = self._clause_len[self._id_pad_buf[:m - 1, :width]] \
            .sum(axis=1)
        fixed = (4 * counts * (self.n_clauses + 1 + len(self._multi_pids))
                 + spelled * (2 * self.n_predicates + 4
                              + 5 * max(self._sizes)))
        stops = [0]
        while stops[-1] < m - 1:
            start = stops[-1]
            cost = np.cumsum(counts[start:] * 6 * (m - 1 - start)
                             + fixed[start:])
            stops.append(start + max(1, int(np.searchsorted(
                cost, BAND_FLOATS, side="right"))))
        return stops[1:]

    def _band(self, ids: "np.ndarray", counts: "np.ndarray",
              js: "np.ndarray", stage: Optional[_Stage] = None
              ) -> "np.ndarray":
        """``d_conj`` from each area of a band to each packed area in
        ``js``, one row per band area.

        Band area ``a`` spells the next ``counts[a]`` of the clause ids
        ``ids``: packed clauses, or new ones of ``stage``.  Every
        distance the kernel computes is a row of this routine: the
        ``d_disj`` rows of the band's distinct clauses
        (:meth:`_disj_rows`) give each clause's best match in each area
        j, which the forward sum adds down the band area's clauses, and
        each of area j's clauses its best match in the band area, which
        the backward sum adds down area j's clause slots."""
        targets = self._counts_buf[js]
        if not counts.all():
            # The empty-CNF rules: 0 against an empty area, else 1.
            values = np.tile(np.where(targets == 0, 0.0, 1.0),
                             (len(counts), 1))
            if counts.any():
                values[counts > 0] = self._band(ids, counts[counts > 0],
                                                js, stage)
            return values
        if len(counts) == 1:
            rows, where = self._rows(ids, stage), None
        else:
            unique, where = np.unique(ids, return_inverse=True)
            rows = self._rows(unique, stage)
        table, other = self._disj_rows(rows)
        slots = self._id_pad_buf[js, :self._l_max].T
        if where is None:
            # A band of one gathers all its slots at once (see
            # :func:`_band_sums` for the sums).
            best = table.take(slots, axis=1).min(axis=1, initial=np.inf)
            nearest = other.min(axis=0)
            nearest[-1] = 0.0
            forward, backward = _sum_rows(best), _sum_rows(nearest[slots])
        else:
            forward, backward = _band_sums(table, other, where, counts,
                                           slots)
        # No entry is NaN: the division cannot warn.
        values = (forward + backward) / (counts[:, None] + targets)
        zero = targets == 0
        if zero.any():
            values[:, zero] = 1.0
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
    """Sums of ``rows`` over its first axis, added strictly top to
    bottom from 0.0: the oracle's ``+=`` order.  numpy keeps that order
    in an axis-0 reduction only while there are two or more columns; a
    single column is summed pairwise, which rounds differently past
    eight terms."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def _band_sums(table: "np.ndarray", other: "np.ndarray",
               where: "np.ndarray", counts: "np.ndarray",
               slots: "np.ndarray") -> tuple:
    """The forward and backward sums of each band area (its clauses
    the next ``counts[a]`` rows ``where`` lists) against the targets
    whose clause slots are the rows of ``slots``, one slot at a time:
    ``best[k, j] = min`` over target j's clauses of d_disj(k, ·), added
    in clause order from 0.0 (:func:`_sum_rows`), and ``nearest[a, c]
    = min`` over area a's clauses of d_disj(c, ·), added down each
    target's slots, whose pads read a trailing, order-neutral 0.0."""
    best = np.full((len(table), slots.shape[1]), np.inf)
    for level in slots:
        np.minimum(best, table[:, level], out=best)
    starts = np.cumsum(counts) - counts
    forward = np.zeros((len(counts), slots.shape[1]))
    nearest = np.full((len(counts), other.shape[1]), np.inf)
    for offset in range(int(counts.max())):
        longer = counts > offset
        at = where[starts[longer] + offset]
        forward[longer] += best[at]
        nearest[longer] = np.minimum(nearest[longer], other[at])
    nearest[:, -1] = 0.0
    backward = np.zeros_like(forward)
    for level in slots:
        backward += nearest[:, level]
    return forward, backward


def _segment_sums(values: "np.ndarray", starts: "np.ndarray",
                  lengths: "np.ndarray") -> "np.ndarray":
    """Sums of each row of ``values`` over the column segments
    ``[start, start + length)``, each added left to right from 0.0."""
    total = np.zeros((len(values), len(starts)))
    for offset in range(int(lengths.max())):
        longer = lengths > offset
        total[:, longer] += values[:, starts[longer] + offset]
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


def _numeric_block(reals1: "np.ndarray", tags1: "np.ndarray",
                   reals2: "np.ndarray", tags2: "np.ndarray",
                   slots: int) -> "np.ndarray":
    """Same-column numeric ``d_pred``: Jaccard of widened footprints,
    over predicate rows that broadcast against each other.

    Footprints, their total widths and their structural identities come
    from the oracle itself; only the pairwise intersection widths are
    vectorized — slot by slot in the oracle's sorted accumulation order,
    with empty slots as reversed-infinity sentinels whose clipped
    contribution is exactly 0.0, so any ``slots`` at or above the
    widest footprint's gives the same sums.
    """
    inter = 0.0
    for s in range(slots):
        for t in range(slots):
            segment = (np.minimum(reals1[..., _HI + s], reals2[..., _HI + t])
                       - np.maximum(reals1[..., _LO + s],
                                    reals2[..., _LO + t]))
            inter = inter + np.maximum(segment, 0.0)
    union = (reals1[..., _WIDTH] + reals2[..., _WIDTH]) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.maximum(0.0, 1.0 - inter / union)
    degenerate = union <= 0.0
    if degenerate.any():
        same = (tags1[..., _KEY] == tags2[..., _KEY]) \
            & (tags1[..., _EMPTY] == 0)
        block = np.where(degenerate, np.where(same, 0.0, 1.0), block)
    return block


def _categorical_block(first: "np.ndarray",
                       second: "np.ndarray") -> "np.ndarray":
    """Same-column categorical ``d_pred`` over bitset footprint rows
    that broadcast against each other."""
    inter = np.bitwise_count(first & second).sum(axis=-1, dtype=np.int64)
    union = np.bitwise_count(first | second).sum(axis=-1, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = 1.0 - inter / union
    return np.where(union == 0, 0.0, block)


def accept(pack: PackedPartition, areas: Sequence) -> list[Optional[int]]:
    """Extend ``pack`` by ``areas``, in order: all in one extend, or —
    when the kernel refuses some — each one it accepts.

    Returns each area's column in the pack, or ``None`` for an area the
    kernel refused; callers evaluate the pairs that touch such an area
    per pair by the metric, and only those."""
    start = pack.n_areas
    try:
        pack.extend(areas)
    except KernelUnsupported:
        columns: list[Optional[int]] = []
        for area in areas:
            try:
                pack.extend([area])
            except KernelUnsupported:
                columns.append(None)
            else:
                columns.append(pack.n_areas - 1)
        return columns
    return list(range(start, pack.n_areas))


def dense_fill(items: Sequence, metric) -> tuple["np.ndarray", KernelStats]:
    """``metric`` over every pair of ``items``, as a row-major condensed
    upper triangle, bitwise the per-pair values.

    A pack reads no table sets, so one pack over every item gives each
    pair's ``d_conj`` (:meth:`PackedPartition.condensed_block`), and a
    table of ``d_tables`` by table-set code, evaluated once per pair of
    table sets, adds the other term as the metric does.  Pairs that
    touch an item the kernel refuses (:func:`accept`) — every pair, for
    a metric it cannot replay — are evaluated per pair by ``metric``."""
    n = len(items)
    stats = KernelStats()
    first: dict = {}
    for item in items:
        first.setdefault(item.table_set, item)
    codes = {table_set: k for k, table_set in enumerate(first)}
    code = np.array([codes[item.table_set] for item in items], dtype=np.intp)
    tables = np.array([[0.0 if a is b else metric.d_tables(a, b)
                        for b in first.values()]
                       for a in first.values()])
    started = time.perf_counter()
    try:
        pack = PackedPartition([], metric)
    except KernelUnsupported as exc:
        logger.debug("kernel fallback for a %d-area fill: %s", n, exc)
        pack, columns = None, [None] * n
        stats.partitions_fallback = 1
    else:
        columns = accept(pack, items)
        stats.partitions_packed = 1
        stats.n_predicates = pack.n_predicates
        stats.n_clauses = pack.n_clauses
    stats.pack_seconds = time.perf_counter() - started
    started = time.perf_counter()
    block = pack.condensed_block() if pack is not None else np.zeros(0)
    stats.block_seconds = time.perf_counter() - started
    stats.pairs_vectorized = len(block)
    stats.pairs_fallback = n * (n - 1) // 2 - len(block)
    held = np.array([k for k, column in enumerate(columns)
                     if column is not None], dtype=np.intp)
    values = np.zeros(n * (n - 1) // 2) if len(held) < n else block
    for i in range(n - 1):
        at = i * (2 * n - i - 1) // 2
        row = values[at:at + n - 1 - i]
        column = columns[i]
        if values is not block and column is not None:
            # The rest of i's row in the pack's block: its pairs with the
            # later packed items.
            later = held[column + 1:]
            start = column * (2 * len(held) - column - 1) // 2
            row[later - i - 1] = block[start:start + len(later)]
        # d_tables + d_conj, as the metric adds them.
        np.add(tables[code[i], code[i + 1:]], row, out=row)
        for j in range(i + 1, n) if values is not block else ():
            if column is None or columns[j] is None:
                row[j - i - 1] = metric(items[i], items[j])
    return values, stats
