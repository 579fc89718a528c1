"""Parity sweep of the parser's shape memo over random statements.

Draws statements from every :mod:`repro.qa.querygen` profile and parses
each, and a twin with every number and string literal replaced and its
keyword case and spacing changed, once through :func:`repro.sqlparser
.parse` (which answers a known shape from its memo) and once through the
recursive descent alone.  Both must give the same ``repr``, or the same
exception type, message and position.  Run from the repository root::

    PYTHONPATH=src python -m tests.sqlparser.shape_sweep --seed 7 \\
        --n-queries 2000

It prints the first mismatch and exits 1, or prints a summary.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional

from repro.qa.querygen import PROFILES, qa_families
from repro.qa.schemagen import random_schema
from repro.schema.database import Schema
from repro.sqlparser import LexError, TokenType, parse, tokenize
from repro.sqlparser import parser
from repro.workload import WorkloadConfig, generate_workload

#: Statements drawn per random schema.
CHUNK = 50

_NUMBERS = ("0", "7", "42", "3.25", ".5", "6.", "1e5", "2.5E-3",
            "123456789012345678901234567890", "1e400", "٣",
            "²", "0.0")
_LETTERS = "abcXYZ%_' é"


def uncached(sql: str):
    """The recursive descent alone, without the shape memo."""
    descent = parser._Parser(tokenize(sql))
    statement = descent.parse_statement()
    descent.expect_end()
    return statement


def outcome(parse_fn, sql: str):
    """``repr`` of the statement, or the error's type, message and
    position."""
    try:
        return repr(parse_fn(sql))
    except Exception as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "position", None))


def perturbed(sql: str, rng: random.Random) -> Optional[str]:
    """``sql`` with new literals, keyword case and spacing; ``None``
    when it does not tokenize."""
    try:
        tokens = tokenize(sql)[:-1]
    except LexError:
        return None
    words = []
    for token in tokens:
        if token.type is TokenType.NUMBER:
            words.append(rng.choice(_NUMBERS))
        elif token.type is TokenType.STRING:
            text = "".join(rng.choice(_LETTERS)
                           for _ in range(rng.randint(0, 6)))
            words.append("'" + text.replace("'", "''") + "'")
        elif token.type is TokenType.KEYWORD:
            words.append("".join(rng.choice((ch.lower(), ch))
                                 for ch in token.value))
        elif token.type is TokenType.IDENT:
            words.append(f"[{token.value}]" if rng.random() < 0.2
                         else token.value)
        else:
            words.append(token.value)
    spaces = (" ", "  ", "\n", "\t", " /* c */ ")
    return "".join(word + rng.choice(spaces) for word in words)


def drawn(seed: int, n_queries: int) -> list[tuple[Schema, str]]:
    """``n_queries`` statements, evenly over the profiles, each with the
    random schema it was drawn over."""
    rng = random.Random(seed)
    out: list[tuple[Schema, str]] = []
    per_profile = max(1, n_queries // len(PROFILES))
    for profile in PROFILES:
        left = per_profile
        while left > 0:
            n = min(CHUNK, left)
            left -= n
            config = WorkloadConfig(
                n_queries=n, seed=rng.randint(0, 2 ** 31),
                noise_fraction=0.0, error_fraction=0.0,
                malformed_fraction=0.0, min_family_size=1,
                repeat_user_fraction=0.0)
            schema = random_schema(rng)
            families = qa_families(schema, (profile,))
            out += [(schema, sql) for sql in generate_workload(
                config, families).log.statements()[:n]]
    return out


def statements(seed: int, n_queries: int) -> list[str]:
    """``n_queries`` statements, evenly over the profiles."""
    return [sql for _, sql in drawn(seed, n_queries)]


def first_mismatch(seed: int, n_queries: int) -> tuple[Optional[tuple],
                                                      int, int]:
    """The first statement whose memo answer differs from the recursive
    descent's, as ``(sql, memo answer, descent answer)``, or ``None``;
    then the statements parsed and how many of them hit a held shape."""
    rng = random.Random(seed)
    parsed = hits = 0
    for sql in statements(seed, n_queries):
        for text in (sql, perturbed(sql, rng)):
            if text is None:
                continue
            parsed += 1
            hits += parser._SHAPES.get(parser.scan(text)[0]) is not None
            memo, descent = outcome(parse, text), outcome(uncached, text)
            if memo != descent:
                return (text, memo, descent), parsed, hits
    return None, parsed, hits


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--n-queries", type=int, default=2000)
    options = args.parse_args(argv)
    mismatch, parsed, hits = first_mismatch(options.seed, options.n_queries)
    if mismatch is not None:
        sql, memo, descent = mismatch
        print(f"mismatch after {parsed} statements:\n  sql: {sql!r}\n"
              f"  memo: {memo!r}\n  descent: {descent!r}")
        return 1
    print(f"{parsed} statements ({hits} on a held shape, "
          f"{len(parser._SHAPES)} shapes held) parse as without the memo")
    return 0


if __name__ == "__main__":
    sys.exit(main())
