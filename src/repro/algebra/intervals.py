"""Interval arithmetic for one-dimensional column constraints.

Access areas are, per column, unions of (half-open or closed) intervals of
the column domain.  This module provides a small, self-contained interval
algebra used by predicate consolidation (:mod:`repro.algebra.consolidate`),
the distance function (:mod:`repro.distance`), and coverage computation
(:mod:`repro.clustering.coverage`).

Intervals carry explicit bound *openness* so that ``a > 3`` and ``a >= 3``
remain distinguishable, which matters when checking contradictions such as
``a > 3 AND a < 3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass(frozen=True, order=True)
class Interval:
    """A connected subset of the real line with explicit bound openness.

    ``lo``/``hi`` may be ``-inf``/``+inf``; infinite bounds are always open.
    An :class:`Interval` is never empty — use :func:`Interval.make` which
    returns ``None`` for empty input instead of constructing one.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both ends")
        if math.isinf(self.lo) and not self.lo_open and self.lo == NEG_INF:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open and self.hi == POS_INF:
            object.__setattr__(self, "hi_open", True)

    @staticmethod
    def make(lo: float, hi: float, lo_open: bool = False,
             hi_open: bool = False) -> "Interval | None":
        """Build an interval, returning ``None`` when the bounds are empty."""
        if lo > hi:
            return None
        if lo == hi and (lo_open or hi_open):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    @staticmethod
    def everything() -> "Interval":
        """The whole real line."""
        return Interval(NEG_INF, POS_INF, True, True)

    @staticmethod
    def point(value: float) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return Interval(value, value, False, False)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        """Length of the interval (0 for points, ``inf`` when unbounded)."""
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        if value < self.lo or value > self.hi:
            return False
        if value == self.lo and self.lo_open:
            return False
        if value == self.hi and self.hi_open:
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        """True iff ``other`` is a subset of ``self``."""
        if other.lo < self.lo or other.hi > self.hi:
            return False
        if other.lo == self.lo and self.lo_open and not other.lo_open:
            return False
        if other.hi == self.hi and self.hi_open and not other.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection, or ``None`` when disjoint."""
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval.make(lo, hi, lo_open, hi_open)

    def overlaps(self, other: "Interval") -> bool:
        return self.intersect(other) is not None

    def touches_or_overlaps(self, other: "Interval") -> bool:
        """True when the union of the two intervals is connected."""
        if self.overlaps(other):
            return True
        # Adjacent like [1,2) and [2,3]: connected iff at most one end open.
        if self.hi == other.lo and not (self.hi_open and other.lo_open):
            return True
        if other.hi == self.lo and not (other.hi_open and self.lo_open):
            return True
        return False

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both inputs."""
        if self.lo < other.lo or (self.lo == other.lo and not self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi > other.hi or (self.hi == other.hi and not self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def overlap_width(self, other: "Interval") -> float:
        """Width of the intersection (0 when disjoint)."""
        inter = self.intersect(other)
        return inter.width if inter is not None else 0.0

    def clamp(self, bounds: "Interval") -> "Interval | None":
        """Alias of :meth:`intersect`, used to restrict to ``access(a)``."""
        return self.intersect(bounds)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


class IntervalSet:
    """A finite union of disjoint, sorted intervals.

    Immutable in spirit: all operations return new instances.  Used to
    represent per-column access footprints when predicates on the same
    column are OR-ed together, and to detect non-contiguous empty areas
    (Figure 1(c) of the paper).
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        intervals = tuple(intervals)
        if len(intervals) < 2:
            return intervals  # nothing to sort or merge
        items = sorted(intervals, key=lambda iv: (iv.lo, iv.lo_open))
        merged: list[Interval] = []
        for iv in items:
            if merged and merged[-1].touches_or_overlaps(iv):
                merged[-1] = merged[-1].hull(iv)
            else:
                merged.append(iv)
        return tuple(merged)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    @property
    def total_width(self) -> float:
        return sum(iv.width for iv in self._intervals)

    def contains(self, value: float) -> bool:
        return any(iv.contains(value) for iv in self._intervals)

    def union(self, other: "IntervalSet | Interval") -> "IntervalSet":
        extra: Sequence[Interval]
        if isinstance(other, Interval):
            extra = (other,)
        else:
            extra = other.intervals
        return IntervalSet((*self._intervals, *extra))

    def intersect(self, other: "IntervalSet | Interval") -> "IntervalSet":
        if isinstance(other, Interval):
            other = IntervalSet((other,))
        out: list[Interval] = []
        for a in self._intervals:
            for b in other.intervals:
                inter = a.intersect(b)
                if inter is not None:
                    out.append(inter)
        return IntervalSet(out)

    def difference(self, other: "IntervalSet | Interval") -> "IntervalSet":
        """Set difference; open/closed bookkeeping is exact."""
        if isinstance(other, Interval):
            other = IntervalSet((other,))
        remaining = list(self._intervals)
        for cut in other.intervals:
            next_remaining: list[Interval] = []
            for iv in remaining:
                next_remaining.extend(_cut_interval(iv, cut))
            remaining = next_remaining
        return IntervalSet(remaining)

    def hull(self) -> Interval | None:
        """Smallest single interval covering the whole set."""
        if not self._intervals:
            return None
        first, last = self._intervals[0], self._intervals[-1]
        return Interval(first.lo, last.hi, first.lo_open, last.hi_open)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __str__(self) -> str:
        if not self._intervals:
            return "{}"
        return " ∪ ".join(str(iv) for iv in self._intervals)


def _cut_interval(iv: Interval, cut: Interval) -> list[Interval]:
    """Return ``iv \\ cut`` as a list of 0–2 intervals."""
    inter = iv.intersect(cut)
    if inter is None:
        return [iv]
    pieces: list[Interval] = []
    left = Interval.make(iv.lo, inter.lo, iv.lo_open, not inter.lo_open)
    if left is not None:
        pieces.append(left)
    right = Interval.make(inter.hi, iv.hi, not inter.hi_open, iv.hi_open)
    if right is not None:
        pieces.append(right)
    return pieces
