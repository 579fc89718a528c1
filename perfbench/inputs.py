"""Seeded inputs of the three workloads, and their measured properties.

Every input is derived from ``--seed`` alone, so one seed always gives
one input.  The program only ever receives the SQL text (and user
names) built here; the batch study is the exception, because
``run_case_study`` generates its own log from the seed in its config.

Each arrival carries its kind, known from the generator independently
of the program: ``valid`` (a family or noise statement, which must
extract and cluster), ``broken`` (the generator's erroring and
malformed statements) or ``hostile``.  The output checks use it.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from repro.workload import WorkloadConfig, generate_workload
from repro.workload.log import LogEntry

#: the generator's log size behind ``ingest_unique``: 1,042 statements,
#: of which about 965 extract to distinct areas.  Insert cost grows with
#: the population, so a pass stays short enough to repeat only at about
#: this size, and a pass alone gives a p99 its ten samples beyond.
UNIQUE_QUERIES = 1_000

#: ``serve_repeat``: bots re-issue a pool of the generator's valid
#: statements, drawn evenly across its families, so every seed's pool
#: holds the same number of statements of each family (the generator
#: sizes its families independently of the seed) and only their
#: constants and popularity differ.  Popularity is Zipf with exponent
#: 1 (weight ``1/(rank+1)``), as in the repository's other repeat
#: streams.  The pool, bot and arrival counts and the two shares below
#: are chosen, not measured: no source gives them for SkyServer.  Only
#: the measured shares printed with each run back a repeat-dependent
#: claim.
REPEAT_ARRIVALS = 2_400
REPEAT_POOL = 150
REPEAT_BOTS = 40
#: share of repeated arrivals re-sent with other whitespace and keyword
#: case: the same area under new text.
RESPELL_SHARE = 0.3
#: one arrival in this many is hostile: a predicate nested
#: ``HOSTILE_DEPTH`` parentheses deep.
HOSTILE_EVERY = 200
HOSTILE_DEPTH = 200

VALID, BROKEN, HOSTILE = "valid", "broken", "hostile"

_KEYWORDS = re.compile(
    r"\b(SELECT|FROM|WHERE|AND|OR|NOT|BETWEEN|IN|AS|JOIN|INNER|ON|"
    r"GROUP|BY|HAVING|ORDER|TOP|DISTINCT|IS|NULL|LIKE)\b",
    re.IGNORECASE)


class Arrival(NamedTuple):
    sql: str
    user: str
    kind: str


def _kind(entry: LogEntry) -> str:
    return VALID if entry.family_id >= LogEntry.NOISE else BROKEN


def _generator_log(seed: int) -> list[LogEntry]:
    return list(generate_workload(
        WorkloadConfig(n_queries=UNIQUE_QUERIES, seed=seed)).log)


def unique_log(seed: int) -> list[Arrival]:
    """The generator's log in arrival order."""
    return [Arrival(entry.sql, entry.user, _kind(entry))
            for entry in _generator_log(seed)]


def respell(sql: str, rng: random.Random) -> str:
    """``sql`` with other keyword case and whitespace outside quotes.

    SQL keywords are case-insensitive and whitespace between tokens is
    free, so the access area is unchanged; only the text differs.
    """
    lower = rng.random() < 0.5
    gap = "  " if rng.random() < 0.5 else "\n"
    parts = sql.split("'")
    for i in range(0, len(parts), 2):
        part = _KEYWORDS.sub(
            lambda m: m.group(0).lower() if lower
            else m.group(0).capitalize(), parts[i])
        parts[i] = part.replace(" ", gap)
    return "'".join(parts)


def hostile_statement(rng: random.Random) -> str:
    depth = HOSTILE_DEPTH
    return ("SELECT * FROM PhotoObj WHERE " + "(" * depth
            + f"ra > {rng.uniform(0, 360):.4f}" + ")" * depth)


def repeat_stream(seed: int) -> list[Arrival]:
    """Bot-shaped arrivals.

    The generator's erroring and malformed statements arrive, in turn,
    at the share they have in the generator's own log; the rest are
    Zipf draws over the pool.
    """
    rng = random.Random(seed)
    log = _generator_log(seed)
    valid = sorted((entry.family_id, position, entry.sql)
                   for position, entry in enumerate(log)
                   if _kind(entry) == VALID)
    pool = [valid[k * len(valid) // REPEAT_POOL][2]
            for k in range(REPEAT_POOL)]
    broken = [entry.sql for entry in log if _kind(entry) == BROKEN]
    broken_every = round(len(log) / len(broken))
    ranks = list(range(len(pool)))
    rng.shuffle(ranks)
    weights = [1.0 / (rank + 1) for rank in ranks]
    picks = rng.choices(range(len(pool)), weights=weights,
                        k=REPEAT_ARRIVALS)
    stream: list[Arrival] = []
    sent: set[int] = set()
    for position, pick in enumerate(picks):
        if position % HOSTILE_EVERY == HOSTILE_EVERY // 2:
            stream.append(Arrival(hostile_statement(rng), "bot-hostile",
                                  HOSTILE))
        elif position % broken_every == broken_every // 2:
            sql = broken[position // broken_every % len(broken)]
            stream.append(Arrival(sql, "bot-broken", BROKEN))
        else:
            sql = pool[pick]
            if pick in sent and rng.random() < RESPELL_SHARE:
                sql = respell(sql, rng)
            sent.add(pick)
            stream.append(Arrival(sql, f"bot{pick % REPEAT_BOTS:02d}",
                                  VALID))
    return stream


def input_shares(texts: list[str], unique_ids: list, table_sets: list,
                 hostile: int) -> dict:
    """The input properties a repeat- or novelty-dependent claim cites.

    ``unique_ids[i]`` is the program's unique-area index of arrival
    ``i`` (``None`` when it did not extract or was not clustered),
    ``table_sets[u]`` the table set of unique area ``u`` and
    ``hostile`` the number of hostile arrivals.
    """
    n = len(texts)
    seen_text: set[str] = set()
    seen_area: set = set()
    seen_tables: set = set()
    text_repeats = area_repeats = new_partitions = 0
    for text, unique in zip(texts, unique_ids):
        text_repeats += text in seen_text
        seen_text.add(text)
        if unique is None:
            continue
        if unique in seen_area:
            area_repeats += 1
            continue
        seen_area.add(unique)
        tables = table_sets[unique]
        if tables not in seen_tables:
            new_partitions += 1
            seen_tables.add(tables)
    sizes: dict = {}
    for tables in table_sets:
        sizes[tables] = sizes.get(tables, 0) + 1
    return {
        "arrivals": n,
        "text_repeat_share": text_repeats / n,
        "area_repeat_share": area_repeats / n,
        "new_partition_share": new_partitions / n,
        "hostile_share": hostile / n,
        "unique_areas": len(table_sets),
        "largest_partition": max(sizes.values(), default=0),
    }
