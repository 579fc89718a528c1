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

No pairwise table is kept.  One routine (:meth:`PackedPartition.
_disj_rows`) computes the ``d_disj`` rows of a set of clauses against
every packed clause, group by group from the predicate features:
unit×unit pairs are a gather of ``d_pred`` rows, the rare
multi-predicate clauses run the best-match average over them.  An
insert (:meth:`~PackedPartition.pair_rows`) and a ranking probe
(:meth:`~PackedPartition.probe`) call it with one area's clauses, so
they cost one pass over the partition's predicates, clauses and areas;
:meth:`~PackedPartition.condensed_block` calls it with every clause
and reduces a temporary best-match table to the whole block.

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
    clauses in ``empty`` none.  ``full`` marks the row set of every
    packed clause over every packed predicate, in id order; ``plain``
    one whose every clause ``r`` is a unit clause spelling row
    predicate ``r``."""

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
    full: bool = False
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
        return self._row_values(self._rows(np.asarray(ids, dtype=np.intp),
                                           stage),
                                np.arange(self.n_areas, dtype=np.intp))

    # -- growable arrays ----------------------------------------------------
    #
    # Every array is a capacity buffer that doubles when an extend
    # outgrows it (a pack built in one go is sized exactly), so an
    # insert appends instead of reallocating.  Past the live region
    # ``_unit_pid`` and ``_id_pad_buf`` hold the -1 pad, which the row
    # computation relies on.

    @property
    def _counts(self) -> "np.ndarray":
        return self._counts_buf[:self.n_areas]

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
        cov = self._oracle._coverage_fraction(pred)
        group, (interval, width) = stage.column(_NUMERIC, ref)
        if not math.isfinite(width):
            key = stage.key((pred.op, normalize_constant(pred.value)))
            return (cov, 0.0) + _NO_LO + _NO_HI, (group, key, 0, 0), 0
        if width <= 0:
            key = stage.key(normalize_constant(pred.value))
            return (cov, 0.0) + _NO_LO + _NO_HI, (group, key, 0, 0), 0
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
        footprints add their slot pairs in another order; for the full
        row set it is the transpose."""
        p = self.n_predicates
        reals, tags = rows.reals, rows.tags
        out = np.empty((len(reals), p + 2))
        out[:, :p] = 1.0 - reals[:, _COV, None] \
            * self._reals[None, :p, _COV]
        out[:, p] = 1.0
        out[:, p + 1] = np.inf
        slots = max(self._slots, rows.slots)
        if rows.full:
            by_group = [(gid, self._group_members(gid))
                        for gid in range(len(self._formulas))]
        else:
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
        if rows.full:
            return out, out[:, :p].T
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

    def _all_rows(self) -> _Rows:
        """The row set of every packed clause."""
        c, p = self.n_clauses, self.n_predicates
        lengths = self._clause_len[:c]
        unit = np.flatnonzero(lengths == 1)
        multi = [(int(clause_id), self._multi_pids[start:start + n])
                 for clause_id, start, n in zip(
                     self._multi, self._multi_start, self._multi_len)]
        return _Rows(np.arange(c), unit, self._unit_pid[unit], multi,
                     np.flatnonzero(lengths == 0).tolist(),
                     self._reals[:p], self._tags[:p], self._bits[:p],
                     np.arange(p), full=True)

    def _disj_rows(self, rows: _Rows, both: bool = False) -> tuple:
        """``d_disj`` of each clause of ``rows`` against every packed
        clause, ``(n, C + 1)`` with a trailing +inf column that padded
        (-1) area slots address; with ``both``, also the table of
        ``d_disj(packed clause, row clause)``.

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
        if not both or back is out or not len(unit):
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

    # -- blocks and rows ----------------------------------------------------

    def condensed_block(self) -> "np.ndarray":
        """The partition's full condensed ``d_conj`` upper triangle,
        bitwise-equal to the pure-Python per-pair evaluation.

        The ``d_disj`` table of every clause pair and the best-match
        table ``best[k, j] = min`` over area j's clauses of
        ``d_disj(k, ·)`` — the shared inner term of both direction
        sums — are computed once, for this block, and dropped."""
        m = self.n_areas
        counts = self._counts
        out = np.zeros(m * (m - 1) // 2, dtype=float)
        denom = np.ones_like(out)
        if m < 2:
            return out
        table, _ = self._disj_rows(self._all_rows())
        pad = self._id_pad_buf[:m]
        best = np.full((self.n_clauses, m), np.inf)
        for level in range(self._l_max):
            np.minimum(best, table[:, pad[:, level]], out=best)
        for i in range(m):
            # The axis-0 reduction of the C-contiguous row gather adds
            # the clause rows strictly left-to-right — the oracle's
            # ``forward +=`` order — so the sums are bitwise-identical.
            row = best[self._clause_ids_of(i)].sum(axis=0) \
                if counts[i] else None
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

    def pair_rows(self, i: int, js: Sequence[int]) -> "np.ndarray":
        """``d_conj`` from area ``i`` to each area in ``js``, bitwise-
        equal to the condensed block entries (the one-vs-many form an
        insert needs), computed from area ``i``'s ``d_disj`` rows."""
        return self._row_values(self._rows(self._clause_ids_of(i)),
                                np.asarray(js, dtype=np.intp))

    def _row_values(self, rows: _Rows, js: "np.ndarray") -> "np.ndarray":
        """``d_conj`` from the area whose clauses ``rows`` lists to each
        packed area in ``js``."""
        counts = self._counts_buf[js]
        n_i = len(rows.ids)
        if n_i == 0:
            return np.where(counts == 0, 0.0, 1.0)
        table, other = self._disj_rows(rows, both=True)
        slots = self._id_pad_buf[js, :self._l_max].T
        # ``best[k, j] = min`` over area j's clauses of d_disj(k, ·); the
        # pad slots read the +inf column.
        forward = _sum_rows(table.take(slots, axis=1).min(
            axis=1, initial=np.inf))
        # ``v[c]`` = min over the area's clauses of d_disj(c, ·); each
        # backward sum runs down one area's clause slots in order, and
        # the pad slots read a trailing, order-neutral 0.0.
        v = other.min(axis=0)
        v[-1] = 0.0
        backward = _sum_rows(v[slots])
        # n_i >= 1 and no entry is NaN: the division cannot warn.
        values = (forward + backward) / (n_i + counts)
        other_zero = counts == 0
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
