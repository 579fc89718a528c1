"""Aggregating a cluster of access areas (Section 6.2).

"For each output cluster, we derive its minimum bounding hyper-rectangle,
which we interpret as the aggregated access area of the queries involved.
During this process, we leave out extreme range bounds by applying the
3-standard deviation rule."

Each cluster member contributes, per constrained numeric column, the hull
``[lo, hi]`` of its footprint; bounds farther than 3σ from the mean of
their side are trimmed before the MBR is taken.  Categorical constraints
contribute value sets (unioned); join predicates shared by a majority of
members are kept in the description (e.g. Table 1's Clusters 16/17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

from ..algebra.intervals import Interval
from ..algebra.predicates import (ColumnColumnPredicate,
                                  ColumnConstantPredicate, ColumnRef, Op)
from ..core.area import AccessArea
from ..schema.statistics import StatisticsCatalog


@dataclass(frozen=True)
class ColumnBounds:
    """The aggregated MBR side for one numeric column."""

    ref: ColumnRef
    interval: Interval
    lower_bounded: bool
    upper_bounded: bool
    support: int  # number of cluster members constraining this column

    def describe(self) -> str:
        if self.lower_bounded and self.upper_bounded:
            return (f"{_fmt(self.interval.lo)} <= {self.ref} "
                    f"<= {_fmt(self.interval.hi)}")
        if self.lower_bounded:
            return f"{self.ref} >= {_fmt(self.interval.lo)}"
        if self.upper_bounded:
            return f"{self.ref} <= {_fmt(self.interval.hi)}"
        return f"{self.ref} unconstrained"


@dataclass(frozen=True)
class CategoricalBounds:
    ref: ColumnRef
    values: frozenset[str]
    support: int

    def describe(self) -> str:
        if len(self.values) == 1:
            return f"{self.ref} = '{next(iter(self.values))}'"
        options = " OR ".join(
            f"{self.ref} = '{v}'" for v in sorted(self.values))
        return f"({options})"


@dataclass(frozen=True)
class AggregatedArea:
    """A Table-1 row: one cluster's aggregated access area."""

    cluster_id: int
    cardinality: int
    relations: tuple[str, ...]
    bounds: tuple[ColumnBounds, ...]
    categorical: tuple[CategoricalBounds, ...]
    joins: tuple[ColumnColumnPredicate, ...]

    def describe(self) -> str:
        parts = [b.describe() for b in self.bounds]
        parts += [c.describe() for c in self.categorical]
        parts += [str(j) for j in self.joins]
        return " AND ".join(parts) if parts else \
            f"all of {', '.join(self.relations)}"

    def bound_for(self, ref: ColumnRef) -> Optional[ColumnBounds]:
        for bounds in self.bounds:
            if (bounds.ref.relation.lower() == ref.relation.lower()
                    and bounds.ref.column.lower() == ref.column.lower()):
                return bounds
        return None

    def to_sql(self) -> str:
        """A representative SELECT over this aggregated area.

        Useful to hand interest areas back to users ("which parts of the
        data do others deem important?", Section 6.3) — e.g. by a query
        recommender.
        """
        tables = ", ".join(self.relations)
        predicates: list[str] = []
        for bounds in self.bounds:
            iv = bounds.interval
            if bounds.lower_bounded and bounds.upper_bounded:
                if iv.is_point:
                    predicates.append(f"{bounds.ref} = {_sqlnum(iv.lo)}")
                else:
                    predicates.append(
                        f"{bounds.ref} BETWEEN {_sqlnum(iv.lo)} "
                        f"AND {_sqlnum(iv.hi)}")
            elif bounds.lower_bounded:
                predicates.append(f"{bounds.ref} >= {_sqlnum(iv.lo)}")
            elif bounds.upper_bounded:
                predicates.append(f"{bounds.ref} <= {_sqlnum(iv.hi)}")
        for cat in self.categorical:
            values = sorted(cat.values)
            if len(values) == 1:
                predicates.append(f"{cat.ref} = '{values[0]}'")
            else:
                quoted = ", ".join(f"'{v}'" for v in values)
                predicates.append(f"{cat.ref} IN ({quoted})")
        for join in self.joins:
            predicates.append(str(join))
        sql = f"SELECT * FROM {tables}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        return sql

    def __str__(self) -> str:
        return self.describe()


#: one bound repeated: ``(value, count)``.
Run = tuple[float, int]


def _sqlnum(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))  # shortest exact round-trip form


def aggregate_cluster(cluster_id: int, members: Sequence[AccessArea],
                      stats: Optional[StatisticsCatalog] = None,
                      sigma: float = 3.0,
                      column_support: float = 0.5,
                      join_support: float = 0.5,
                      weights: Optional[Sequence[int]] = None
                      ) -> AggregatedArea:
    """Build the aggregated access area of one cluster.

    ``sigma`` is the trimming rule (3 in the paper; ``math.inf`` disables
    it — the ablation knob).  ``column_support`` drops columns constrained
    by fewer than that fraction of members, so one stray query cannot add
    a spurious axis to the hyper-rectangle.

    ``weights`` — optional positive integer multiplicities (intern-pool
    duplicate counts): member ``i`` counts as ``weights[i]`` identical
    queries.  Each member contributes its bounds ``weights[i]`` times to
    the trim statistics (as one run, see :func:`_trim`), support
    counts, and ``cardinality``, so a unique-area cluster with weights
    aggregates exactly like the duplicated population it stands for.
    """
    if weights is None:
        wlist = [1] * len(members)
    else:
        wlist = [int(w) for w in weights]
        if len(wlist) != len(members):
            raise ValueError(f"{len(wlist)} weights do not match "
                             f"{len(members)} members")
        if any(w <= 0 for w in wlist):
            raise ValueError("weights must be positive")
    total = sum(wlist)
    relations = _majority_relations(members, wlist)
    min_support = max(1, math.ceil(column_support * total))

    # Per column, the bounds as ``(value, count)`` runs in member order.
    lower: dict[ColumnRef, list[Run]] = {}
    upper: dict[ColumnRef, list[Run]] = {}
    support: dict[ColumnRef, int] = {}
    cat_values: dict[ColumnRef, set[str]] = {}
    cat_support: dict[ColumnRef, int] = {}
    join_counts: dict[ColumnColumnPredicate, int] = {}

    for area, weight in zip(members, wlist):
        for ref, footprint in area.column_footprints().items():
            hull = footprint.hull()
            if hull is None:
                continue
            support[ref] = support.get(ref, 0) + weight
            if not math.isinf(hull.lo):
                lower.setdefault(ref, []).append((hull.lo, weight))
            if not math.isinf(hull.hi):
                upper.setdefault(ref, []).append((hull.hi, weight))
        for ref, values in _categorical_constraints(area).items():
            cat_support[ref] = cat_support.get(ref, 0) + weight
            cat_values.setdefault(ref, set()).update(values)
        for join in _join_predicates(area):
            join_counts[join] = join_counts.get(join, 0) + weight

    bounds: list[ColumnBounds] = []
    for ref, count in sorted(support.items(), key=lambda kv: str(kv[0])):
        if count < min_support:
            continue
        los = _trim(lower.get(ref, []), sigma)
        his = _trim(upper.get(ref, []), sigma)
        lo = min(value for value, _count in los) if los else None
        hi = max(value for value, _count in his) if his else None
        interval = _bounded_interval(ref, lo, hi, stats)
        if interval is None:
            continue
        bounds.append(ColumnBounds(
            ref, interval,
            lower_bounded=lo is not None,
            upper_bounded=hi is not None,
            support=count))

    categorical = tuple(
        CategoricalBounds(ref, frozenset(values), cat_support[ref])
        for ref, values in sorted(cat_values.items(),
                                  key=lambda kv: str(kv[0]))
        if cat_support[ref] >= min_support)

    min_join_support = max(1, math.ceil(join_support * total))
    joins = tuple(sorted(
        (j for j, count in join_counts.items()
         if count >= min_join_support),
        key=str))

    return AggregatedArea(
        cluster_id=cluster_id,
        cardinality=total,
        relations=relations,
        bounds=tuple(bounds),
        categorical=categorical,
        joins=joins,
    )


# -- helpers ------------------------------------------------------------------

def _majority_relations(members: Sequence[AccessArea],
                        weights: Optional[Sequence[int]] = None,
                        ) -> tuple[str, ...]:
    if weights is None:
        weights = [1] * len(members)
    counts: dict[tuple[str, ...], int] = {}
    for area, weight in zip(members, weights):
        counts[area.relations] = counts.get(area.relations, 0) + weight
    best = max(counts.items(), key=lambda kv: kv[1])[0]
    return best


def _categorical_constraints(
        area: AccessArea) -> dict[ColumnRef, set[str]]:
    out: dict[ColumnRef, set[str]] = {}
    for clause in area.cnf:
        values_by_ref: dict[ColumnRef, set[str]] = {}
        eligible = True
        for pred in clause:
            if (isinstance(pred, ColumnConstantPredicate)
                    and isinstance(pred.value, str)
                    and pred.op is Op.EQ):
                values_by_ref.setdefault(pred.ref, set()).add(pred.value)
            else:
                eligible = False
                break
        # Only clauses that are disjunctions over ONE categorical column
        # constrain that column everywhere in the area.
        if eligible and len(values_by_ref) == 1:
            ref, values = next(iter(values_by_ref.items()))
            out.setdefault(ref, set()).update(values)
    return out


def _join_predicates(area: AccessArea) -> list[ColumnColumnPredicate]:
    out = []
    for clause in area.cnf:
        if clause.is_unit and isinstance(clause.predicates[0],
                                         ColumnColumnPredicate):
            out.append(clause.predicates[0])
    return out


def _trim(runs: list[Run], sigma: float) -> list[Run]:
    """Drop values beyond ``sigma`` standard deviations from the mean.

    ``runs`` stands for the values ``value`` repeated ``count`` times,
    run by run; so does the answer, which keeps or drops whole runs.
    Each deviation is computed once per run, and every sum reads the
    repeated values in order, so the answer is bitwise that of the
    repeated list (Python 3.12 sums floats with compensation, where
    ``count * value`` would not be).

    Degenerate inputs pass through untouched rather than erasing the
    bound: fewer than 3 values (no meaningful spread estimate), a
    disabled rule (``sigma = inf``), zero or non-finite spread (all
    values equal, or a NaN/overflowed accumulation), and the
    everything-is-an-outlier case (``sigma`` so tight nothing survives)
    all return the original runs."""
    if not runs or math.isinf(sigma):
        return runs
    values, counts = zip(*runs)
    n = sum(counts)
    if n < 3:
        return runs
    mean = sum(_repeated(values, counts)) / n
    if not math.isfinite(mean):
        return runs
    try:
        squares = [(value - mean) ** 2 for value in values]
    except OverflowError:  # e.g. (1e200)**2 — Python raises, not inf
        return runs
    std = math.sqrt(sum(_repeated(squares, counts)) / n)
    if std == 0 or not math.isfinite(std):
        return runs
    kept = [run for run in runs if abs(run[0] - mean) <= sigma * std]
    return kept or runs


def _repeated(values: Sequence, counts: Sequence[int]):
    """``values[i]`` ``counts[i]`` times over, in order."""
    return chain.from_iterable(map(repeat, values, counts))


def _bounded_interval(ref: ColumnRef, lo: Optional[float],
                      hi: Optional[float],
                      stats: Optional[StatisticsCatalog]) -> Interval | None:
    """Close open sides of the MBR with access(a) when available.

    Without statistics the open side stays infinite — the bound flags on
    :class:`ColumnBounds` keep descriptions and SQL one-sided.
    """
    if lo is None and hi is None:
        return None
    if stats is not None:
        access = stats.access_interval(ref)
        if lo is None:
            lo = access.lo
        if hi is None:
            hi = access.hi
    if lo is None:
        lo = -math.inf
    if hi is None:
        hi = math.inf
    if lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return f"{int(value):,}"
    return f"{value:g}"
