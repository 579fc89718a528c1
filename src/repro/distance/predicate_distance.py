"""Atomic-predicate distance ``d_pred`` (Section 5.2).

The paper defines the *overlap* of two predicates:

* same numeric column — normalized interval overlap over ``access(a)``
  (worked example: ``a < 3`` vs ``a > 2`` with ``access(a) = [0, 5]``
  gives 0.2);
* same categorical column — common values over the ``access(a)``
  vocabulary;
* different columns — the fraction of the joint space occupied by both
  predicates (worked example: ``a1 < 3`` vs ``a2 > 2`` with both access
  ranges ``[0, 5]`` gives ``(3 × 3) / (5 × 5) = 0.36``).

:func:`paper_overlap` reproduces those numbers verbatim.  Because DBSCAN
needs a *dissimilarity* (the paper's ``min``-matching aggregation in
``d_disj``/``d_conj`` only makes sense for one), :func:`predicate_distance`
uses the complement ``1 − overlap``, with two engineering refinements
documented in DESIGN.md:

* same-column overlap is normalized by the footprint **union** instead of
  the full access width (plain Jaccard), so identical predicates get
  distance 0 — in the paper's worked example both normalizations
  coincide;
* every footprint is widened by a small **resolution** fraction of the
  access range (default 1%), so the point-lookup populations that dominate
  the SkyServer log (``Photoz.objid = c``) chain into DBSCAN clusters when
  their constants are dense in a hot range — the behaviour Table 1's
  Clusters 1–4 and the OLAPClus comparison (Section 6.4) rely on.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..algebra.intervals import Interval, IntervalSet
from ..algebra.predicates import (ColumnColumnPredicate,
                                  ColumnConstantPredicate, Op, Predicate)
from ..schema.statistics import StatisticsCatalog

#: Default footprint widening, as a fraction of ``access(a)``'s width.
DEFAULT_RESOLUTION = 0.01

#: Default bound of the pair-distance LRU.  A SkyServer-scale log repeats
#: a few thousand distinct predicates; the bound only exists so adversarial
#: workloads (millions of distinct constants) cannot grow memory forever.
DEFAULT_CACHE_SIZE = 262_144


class CacheInfo(NamedTuple):
    """Hit/miss counters of the predicate-pair LRU.

    ``footprint_size``/``footprint_max`` describe the per-predicate
    widened-footprint LRU, which is bounded by the same knob as the pair
    cache (both exist so adversarial workloads with millions of distinct
    constants cannot grow memory forever).
    """

    hits: int
    misses: int
    size: int
    max_size: Optional[int]
    footprint_size: int = 0
    footprint_max: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


@dataclass
class PredicateDistance:
    """Computes ``d_pred`` against a statistics catalog.

    Distances are memoized per *normalized* predicate pair — the
    clustering stage evaluates the same pairs many times — in an LRU
    bounded by ``max_cache_size`` (``None`` = unbounded).
    """

    stats: StatisticsCatalog
    resolution: float = DEFAULT_RESOLUTION
    max_cache_size: Optional[int] = DEFAULT_CACHE_SIZE

    def __post_init__(self) -> None:
        self._cache: OrderedDict[tuple[Predicate, Predicate], float] = \
            OrderedDict()
        # Bounded like the pair cache: one widened footprint per distinct
        # predicate would otherwise grow without limit on adversarial
        # workloads (millions of distinct constants).
        self._footprints: OrderedDict[ColumnConstantPredicate,
                                      IntervalSet] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # -- public API --------------------------------------------------------

    def distance(self, p1: Predicate, p2: Predicate) -> float:
        """Memoized by predicate *value*: the clustering loop compares the
        same (predicate, predicate) pairs across many queries.

        The cache assumes the statistics catalog is frozen for the
        lifetime of this object (build it after observing the log).
        Lookups are order-normalized: ``(p1, p2)`` and ``(p2, p1)`` share
        one entry, stored under whichever order was seen first.
        """
        key = (p1, p2)
        cached = self._cache.get(key)
        if cached is None:
            key = (p2, p1)
            cached = self._cache.get(key)
        if cached is None:
            self._misses += 1
            cached = self._distance(p1, p2)
            self._cache[(p1, p2)] = cached
            if self.max_cache_size is not None \
                    and len(self._cache) > self.max_cache_size:
                self._cache.popitem(last=False)
        else:
            self._hits += 1
            self._cache.move_to_end(key)
        return cached

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._cache),
                         self.max_cache_size, len(self._footprints),
                         self.max_cache_size)

    def paper_overlap(self, p1: Predicate, p2: Predicate) -> float:
        """The overlap exactly as the paper's worked examples compute it.

        Same column: intersection width over ``access(a)`` width.
        Different columns: occupied fraction of the joint space.
        """
        if not isinstance(p1, ColumnConstantPredicate) or \
                not isinstance(p2, ColumnConstantPredicate):
            return 0.0
        if p1.ref == p2.ref and p1.is_numeric and p2.is_numeric:
            access = self.stats.access_interval(p1.ref)
            width = access.width
            if not math.isfinite(width) or width <= 0:
                return 1.0 if p1 == p2 else 0.0
            fp1 = _clamped(p1, access)
            fp2 = _clamped(p2, access)
            return fp1.intersect(fp2).total_width / width
        if p1.is_numeric and p2.is_numeric:
            return (self._coverage_fraction(p1)
                    * self._coverage_fraction(p2))
        return 0.0

    # -- internals -------------------------------------------------------------

    def _distance(self, p1: Predicate, p2: Predicate) -> float:
        if p1 == p2:
            return 0.0
        if isinstance(p1, ColumnColumnPredicate) or \
                isinstance(p2, ColumnColumnPredicate):
            return _column_column_distance(p1, p2)
        assert isinstance(p1, ColumnConstantPredicate)
        assert isinstance(p2, ColumnConstantPredicate)
        if p1.ref == p2.ref:
            if p1.is_numeric and p2.is_numeric:
                return self._same_column_numeric(p1, p2)
            if not p1.is_numeric and not p2.is_numeric:
                return self._same_column_categorical(p1, p2)
            return 1.0  # mixed-type comparison on one column
        if p1.is_numeric and p2.is_numeric:
            return 1.0 - (self._coverage_fraction(p1)
                          * self._coverage_fraction(p2))
        return 1.0

    def _same_column_numeric(self, p1: ColumnConstantPredicate,
                             p2: ColumnConstantPredicate) -> float:
        access = self.stats.access_interval(p1.ref)
        width = access.width
        if not math.isfinite(width):
            # No usable normalization (unknown or unbounded column):
            # only exact matches count as close.
            return 0.0 if (p1.op, p1.value) == (p2.op, p2.value) else 1.0
        if width <= 0:
            return 0.0 if p1.value == p2.value else 1.0
        fp1 = self._widened(p1, access)
        fp2 = self._widened(p2, access)
        inter = fp1.intersect(fp2).total_width
        union = fp1.total_width + fp2.total_width - inter
        if union <= 0:
            # Zero-width footprints (point predicates at resolution 0):
            # only structural equality counts as overlap.
            return 0.0 if fp1 == fp2 and not fp1.is_empty else 1.0
        # max() guards the metric range against last-ulp float error in
        # the width sums (the metric-law suite asserts d_pred ≥ 0 exactly).
        return max(0.0, 1.0 - inter / union)

    def _same_column_categorical(self, p1: ColumnConstantPredicate,
                                 p2: ColumnConstantPredicate) -> float:
        vocabulary = self.stats.access_values(p1.ref)
        set1 = _categorical_footprint(p1, vocabulary)
        set2 = _categorical_footprint(p2, vocabulary)
        union = set1 | set2
        if not union:
            return 0.0
        return 1.0 - len(set1 & set2) / len(union)

    def _coverage_fraction(self, pred: ColumnConstantPredicate) -> float:
        access = self.stats.access_interval(pred.ref)
        if not math.isfinite(access.width) or access.width <= 0:
            return 0.0
        return self._clamp(pred, access)[0]

    def _clamp(self, pred: ColumnConstantPredicate,
               access: Interval) -> tuple[float, IntervalSet]:
        """The fraction of ``access`` (a finite positive width) that
        ``pred``'s footprint within it covers, and that footprint: one
        clamp for the coverage and the widened footprint
        (:meth:`_widen`)."""
        footprint = _clamped(pred, access)
        return footprint.total_width / access.width, footprint

    def _widened(self, pred: ColumnConstantPredicate,
                 access: Interval) -> IntervalSet:
        cached = self._footprints.get(pred)
        if cached is not None:
            self._footprints.move_to_end(pred)
            return cached
        result = self._widened_uncached(pred, access)
        self._footprints[pred] = result
        if self.max_cache_size is not None \
                and len(self._footprints) > self.max_cache_size:
            self._footprints.popitem(last=False)
        return result

    def _widened_uncached(self, pred: ColumnConstantPredicate,
                          access: Interval) -> IntervalSet:
        return self._widen(pred, self._clamp(pred, access)[1], access)

    def _widen(self, pred: ColumnConstantPredicate, footprint: IntervalSet,
               access: Interval) -> IntervalSet:
        """``pred``'s clamped ``footprint`` widened by the resolution."""
        margin = self.resolution * access.width / 2.0
        if margin <= 0:
            return footprint
        widened = [
            Interval(iv.lo - margin, iv.hi + margin)
            for iv in footprint
        ]
        if not widened and pred.op is Op.EQ and pred.is_numeric:
            # Point predicate outside access(a): keep a resolution-sized
            # footprint anyway so out-of-range lookups still compare.
            center = float(pred.value)
            widened = [Interval(center - margin, center + margin)]
        return IntervalSet(widened)


def _clamped(pred: ColumnConstantPredicate,
             access: Interval) -> IntervalSet:
    return pred.to_interval_set().intersect(access)


def _categorical_footprint(pred: ColumnConstantPredicate,
                           vocabulary: frozenset[str]) -> frozenset[str]:
    """Vocabulary values satisfying one categorical predicate.

    Inequalities use the ordered (lexicographic) vocabulary from
    ``access(a)`` rather than conflating every operator with equality:
    ``city < 'M'`` and ``city = 'M'`` are disjoint predicates and must
    get disjoint footprints (distance 1), not distance 0.  The inclusive
    operators (LE/GE/EQ) also admit the constant itself even when it is
    missing from the observed vocabulary, so identical point predicates
    keep distance 0 regardless of catalog coverage.
    """
    value = str(pred.value)
    if pred.op is Op.EQ:
        return frozenset({value})
    if pred.op is Op.NE:
        return vocabulary - {value}
    if pred.op is Op.LT:
        return frozenset(v for v in vocabulary if v < value)
    if pred.op is Op.LE:
        return frozenset(v for v in vocabulary if v <= value) | {value}
    if pred.op is Op.GT:
        return frozenset(v for v in vocabulary if v > value)
    if pred.op is Op.GE:
        return frozenset(v for v in vocabulary if v >= value) | {value}
    return frozenset({value})


def _column_column_distance(p1: Predicate, p2: Predicate) -> float:
    """Join-condition predicates compare structurally.

    Identical conditions are distance 0; the same column pair with a
    different operator is halfway; anything else is maximal.
    """
    if not isinstance(p1, ColumnColumnPredicate) or \
            not isinstance(p2, ColumnColumnPredicate):
        return 1.0
    if p1 == p2:
        return 0.0
    if {p1.left, p1.right} == {p2.left, p2.right}:
        return 0.5
    return 1.0
