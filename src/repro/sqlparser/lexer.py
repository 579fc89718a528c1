"""Tokenizer for the SkyServer SELECT dialect.

Handles the lexical variety found in public SkyServer logs: case-insensitive
keywords, ``[bracketed]`` and ``"quoted"`` identifiers, single-quoted
strings with ``''`` escapes, integer / decimal / scientific literals,
line (``--``) and block (``/* */``) comments, and the full comparison
operator set including the MSSQL ``!=`` spelling of ``<>``.

One compiled pattern reads every token that starts with an ASCII
character.  What it does not cover -- non-ASCII letters, digits and
spaces, an ASCII word or number that runs on into one, unterminated
strings, identifiers and comments, illegal characters -- falls to the
per-character rules of :func:`_read_other`, which decide exactly as
``str.isspace``/``isdigit``/``isalpha``/``isalnum`` do.  The same scan
also yields a statement's *shape* (:func:`scan`): its tokens with every
number and string literal replaced by a typed slot, which keys the
parser's shape memo.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from .errors import LexError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words recognized as keywords (upper-case canonical form).
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN", "LIKE", "IS",
    "NULL", "ANY", "ALL", "SOME", "AS", "JOIN", "INNER", "LEFT", "RIGHT",
    "FULL", "OUTER", "CROSS", "NATURAL", "ON", "TOP", "DISTINCT", "UNION",
    "CASE", "WHEN", "THEN", "ELSE", "END", "INTO", "LIMIT", "OFFSET",
    # Statement starters we must recognize to classify unsupported input:
    "CREATE", "INSERT", "UPDATE", "DELETE", "DROP", "DECLARE", "ALTER",
    "EXEC", "EXECUTE", "SET", "TRUNCATE", "WITH", "USE", "GRANT",
})


class Token(NamedTuple):
    """One token: its type, its text (keywords upper-cased, string
    escapes undone) and its offset in the statement.  A named tuple:
    the lexer builds one per token of every full parse, and a tuple is
    built without a frozen dataclass's per-field ``__setattr__``."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:
        return f"{self.type.value}:{self.value}"


_EXPONENT = "(?:[eE][+-]?[0-9]+)?"

#: One token after any ASCII white space.  A word or number must not be
#: followed by a character that could continue it (a non-ASCII one
#: might, by ``isalnum``/``isdigit``); the negative lookaheads also stop
#: backtracking to a shorter match, whose next character always could.
#: Such a token, like anything no alternative takes, ends in ``other``.
_TOKEN = re.compile(
    "[ \t\n\r\x0b\x0c\x1c-\x1f]*(?:"
    r"(?P<word>[A-Za-z_@#][A-Za-z0-9_@#$]*)(?![A-Za-z0-9_@#$]|[^\x00-\x7f])"
    rf"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+){_EXPONENT})"
    r"(?![0-9.eE]|[^\x00-\x7f])"
    r"|'(?P<string>[^']*(?:''[^']*)*)'(?!')"
    r"|(?P<operator><=|>=|<>|!=|[=<>])"
    r"|(?P<punct>[(),*;+%]|-(?!-)|/(?!\*)|\.(?![0-9]|[^\x00-\x7f]))"
    r"|\[(?P<bracketed>[^\]]*)\]"
    r'|"(?P<quoted>[^"]*)"'
    r"|(?P<comment>--[^\n]*\n?|/\*.*?\*/)"
    r"|(?P<end>\Z)"
    r"|(?P<other>.)"
    ")", re.S)

(_WORD, _NUMBER, _STRING, _OPERATOR, _PUNCT, _BRACKETED, _QUOTED, _END,
 _OTHER) = (_TOKEN.groupindex[name] for name in (
     "word", "number", "string", "operator", "punct", "bracketed",
     "quoted", "end", "other"))

#: Shape-key parts: the slots standing for a number and a string literal,
#: the prefix that sets identifiers apart from keywords, and the
#: separator, which only a bracketed or quoted identifier could contain.
NUMBER_SLOT, STRING_SLOT = "\x01", "\x02"
_IDENT_PART, _SEPARATOR = "\x00", "\x1f"

_KEYWORD, _IDENT = TokenType.KEYWORD, TokenType.IDENT


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`LexError` on illegal input."""
    tokens: list[Token] = []
    scan(sql, tokens)
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens


def scan(sql: str, tokens: Optional[list[Token]] = None
         ) -> tuple[Optional[str], list[str]]:
    """Read ``sql`` once: its shape key and its literals, in order.

    The key is ``None`` for the rare statement whose tokens it could not
    spell unambiguously.  A string literal's ``''`` escapes are undone.
    When ``tokens`` is given, every token is also appended to it: words,
    numbers and strings at the offset where they end, everything else
    where it starts.  Raises :class:`LexError` on illegal input.
    """
    parts: list[str] = []
    literals: list[str] = []
    keyed = True
    pos = 0
    while True:
        for match in _TOKEN.finditer(sql, pos):
            kind = match.lastindex
            if kind == _WORD:
                word = match[_WORD]
                upper = word.upper()
                if upper in KEYWORDS:
                    parts.append(upper)
                    if tokens is not None:
                        tokens.append(Token(_KEYWORD, upper, match.end()))
                else:
                    parts.append(_IDENT_PART + word)
                    if tokens is not None:
                        tokens.append(Token(_IDENT, word, match.end()))
            elif kind == _NUMBER:
                parts.append(NUMBER_SLOT)
                literals.append(match[_NUMBER])
                if tokens is not None:
                    tokens.append(Token(TokenType.NUMBER, match[_NUMBER],
                                        match.end()))
            elif kind == _STRING:
                value = match[_STRING].replace("''", "'")
                parts.append(STRING_SLOT)
                literals.append(value)
                if tokens is not None:
                    tokens.append(Token(TokenType.STRING, value, match.end()))
            elif kind == _OPERATOR or kind == _PUNCT:
                text = match[kind]
                if text == "!=":
                    text = "<>"
                parts.append(text)
                if tokens is not None:
                    tokens.append(Token(
                        TokenType.OPERATOR if kind == _OPERATOR
                        else TokenType.PUNCT, text, match.start(kind)))
            elif kind == _BRACKETED or kind == _QUOTED:
                name = match[kind]
                keyed = keyed and _SEPARATOR not in name
                parts.append(_IDENT_PART + name)
                if tokens is not None:
                    tokens.append(Token(_IDENT, name, match.start(kind) - 1))
            elif kind == _END:
                key = _SEPARATOR.join(parts) if keyed else None
                return key, literals
            elif kind == _OTHER:
                pos = _read_other(sql, match.start(_OTHER), parts, literals,
                                  tokens)
                break


def _read_other(sql: str, i: int, parts: list[str], literals: list[str],
                tokens: Optional[list[Token]]) -> int:
    """The per-character rules, for a token the pattern does not take
    at ``i``; appends it like :func:`scan` and returns where to go on."""
    ch = sql[i]
    if ch.isspace():
        return i + 1
    if ch == "'":
        raise LexError("unterminated string literal", i)
    if ch == "[":
        raise LexError("unterminated bracketed identifier", i)
    if ch == '"':
        raise LexError("unterminated quoted identifier", i)
    if sql.startswith("/*", i):
        raise LexError("unterminated block comment", i)
    if ch.isdigit() or (ch == "." and i + 1 < len(sql)
                        and sql[i + 1].isdigit()):
        value, end = _read_number(sql, i)
        parts.append(NUMBER_SLOT)
        literals.append(value)
        token = Token(TokenType.NUMBER, value, end)
    elif ch.isalpha() or ch in "_@#":
        value, end = _read_word(sql, i)
        upper = value.upper()
        if upper in KEYWORDS:
            parts.append(upper)
            token = Token(_KEYWORD, upper, end)
        else:
            parts.append(_IDENT_PART + value)
            token = Token(_IDENT, value, end)
    elif ch == ".":
        parts.append(ch)
        token = Token(TokenType.PUNCT, ch, i)
        end = i + 1
    else:
        raise LexError(f"illegal character {ch!r}", i)
    if tokens is not None:
        tokens.append(token)
    return end


def _read_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    seen_dot = False
    while i < n and (sql[i].isdigit() or (sql[i] == "." and not seen_dot)):
        if sql[i] == ".":
            seen_dot = True
        i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            i = j
            while i < n and sql[i].isdigit():
                i += 1
    return sql[start:i], i


def _read_word(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] in "_@#$"):
        i += 1
    return sql[start:i], i
