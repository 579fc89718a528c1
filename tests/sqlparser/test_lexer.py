"""Tokenizer behaviour across the SkyServer lexical variety."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlparser.errors import LexError
from repro.sqlparser.lexer import (KEYWORDS, NUMBER_SLOT, STRING_SLOT,
                                   Token, TokenType, scan, tokenize)


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers(self):
        tokens = tokenize("PhotoObjAll objid _x my_table2")
        assert all(t.type is TokenType.IDENT for t in tokens[:-1])

    def test_eof_token(self):
        assert tokenize("")[0].type is TokenType.EOF

    def test_punctuation(self):
        values = [t.value for t in tokenize("( ) , . * ;")[:-1]]
        assert values == ["(", ")", ",", ".", "*", ";"]


class TestNumbers:
    @pytest.mark.parametrize("text", ["1", "123", "1.5", ".5", "1e10",
                                      "2.5E-3", "1237657855534432934"])
    def test_number_forms(self, text):
        token = tokenize(text)[0]
        assert token.type is TokenType.NUMBER
        assert token.value == text

    def test_number_followed_by_dot_not_greedy(self):
        tokens = tokenize("1.5.6")
        assert tokens[0].type is TokenType.NUMBER


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'star'")[0]
        assert token.type is TokenType.STRING and token.value == "star"

    def test_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")


class TestQuotedIdentifiers:
    def test_bracketed(self):
        token = tokenize("[My Table]")[0]
        assert token.type is TokenType.IDENT and token.value == "My Table"

    def test_double_quoted(self):
        token = tokenize('"PhotoObjAll"')[0]
        assert token.type is TokenType.IDENT

    def test_unterminated_bracket(self):
        with pytest.raises(LexError):
            tokenize("[oops")


class TestOperators:
    @pytest.mark.parametrize("text,expected", [
        ("<", "<"), ("<=", "<="), ("=", "="), (">", ">"), (">=", ">="),
        ("<>", "<>"), ("!=", "<>"),
    ])
    def test_comparison_operators(self, text, expected):
        token = tokenize(text)[0]
        assert token.type is TokenType.OPERATOR
        assert token.value == expected

    def test_le_not_split(self):
        tokens = tokenize("a<=5")
        assert [t.value for t in tokens[:-1]] == ["a", "<=", "5"]


class TestComments:
    def test_line_comment(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_block_comment(self):
        tokens = tokenize("SELECT /* skip\nthis */ 1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("SELECT /* oops")


class TestErrors:
    def test_illegal_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("SELECT ~ FROM T")
        assert excinfo.value.position == 7

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("WHERE")


# -- the character loop the pattern scan replaced, kept as its oracle --------

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")
_PUNCT = set("(),.*;+-/%")


def reference_tokenize(sql):
    """Tokenize ``sql`` one character at a time."""
    tokens = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            value, i = _reference_string(sql, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch == "[":
            end = sql.find("]", i + 1)
            if end == -1:
                raise LexError("unterminated bracketed identifier", i)
            tokens.append(Token(TokenType.IDENT, sql[i + 1:end], i))
            i = end + 1
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end == -1:
                raise LexError("unterminated quoted identifier", i)
            tokens.append(Token(TokenType.IDENT, sql[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _reference_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_" or ch == "@" or ch == "#":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] in "_@#$"):
                i += 1
            value = sql[start:i]
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, value, i))
            continue
        matched_op = next(
            (op for op in _OPERATORS if sql.startswith(op, i)), None)
        if matched_op is not None:
            canonical = "<>" if matched_op == "!=" else matched_op
            tokens.append(Token(TokenType.OPERATOR, canonical, i))
            i += len(matched_op)
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _reference_string(sql, start):
    i = start + 1
    parts = []
    n = len(sql)
    while i < n:
        if sql[i] == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(sql[i])
        i += 1
    raise LexError("unterminated string literal", start)


def _reference_number(sql, start):
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


def _lexed(tokenizer, sql):
    """Every token as (type, value, position), or the error as (class,
    message, position)."""
    try:
        return [(t.type, t.value, t.position) for t in tokenizer(sql)]
    except LexError as exc:
        return (type(exc), str(exc), exc.position)


#: Pieces of every token class, the characters around their edges and
#: characters outside ASCII that ``isspace``/``isdigit``/``isalpha``
#: accept (or reject) on their own terms.
_PIECES = st.sampled_from([
    "SELECT", "select", "FrOm", "ra", "_x", "@v", "#t", "a$b", "$", "x1",
    "\u017felect", "r\u00e9", "\uff21\uff22", "\ufb01", "\u00b5",
    "0", "42", "1.5", ".5", "5.", "1e10", "2.5E-3", "1e", "1e+", "e5",
    "\u0663", "\u00b2", "\u00bd", "\u2167",
    "'", "''", "'x'", "'it''s'", "[", "]", "[a b]", '"', '"q"',
    "--", "-- c\n", "/*", "*/", "/* c */", "\n",
    "<", "<=", ">", ">=", "<>", "!=", "!", "=",
    "(", ")", ",", ".", "*", ";", "+", "-", "/", "%",
    " ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\u3000", "\x85",
    "\u200b", "~", "?", "\\", "`", "\x00", "\x7f",
])
_TEXT = st.one_of(st.lists(_PIECES, max_size=14).map("".join),
                  st.text(max_size=24))


class TestAgainstTheCharacterLoop:
    @settings(max_examples=3000, deadline=None)
    @given(_TEXT)
    def test_tokens_and_errors_match(self, sql):
        assert _lexed(tokenize, sql) == _lexed(reference_tokenize, sql)

    @settings(max_examples=1000, deadline=None)
    @given(_TEXT)
    def test_scan_yields_the_literals_in_order(self, sql):
        try:
            tokens = reference_tokenize(sql)
        except LexError:
            with pytest.raises(LexError):
                scan(sql)
            return
        _, literals = scan(sql)
        assert literals == [t.value for t in tokens
                            if t.type in (TokenType.NUMBER, TokenType.STRING)]

    @pytest.mark.parametrize("sql,expected", [
        ("1\u00b2", [(TokenType.NUMBER, "1\u00b2", 2)]),
        ("1e\u0663", [(TokenType.NUMBER, "1e\u0663", 3)]),
        (".\u0663", [(TokenType.NUMBER, ".\u0663", 2)]),
        ("ra\u00e9 ", [(TokenType.IDENT, "ra\u00e9", 3)]),
        ("\u017felect", [(TokenType.KEYWORD, "SELECT", 6)]),
        ("5.5.5", [(TokenType.NUMBER, "5.5", 3), (TokenType.NUMBER, ".5", 5)]),
        ("a\xa0b", [(TokenType.IDENT, "a", 1), (TokenType.IDENT, "b", 3)]),
    ])
    def test_runs_into_characters_outside_ascii(self, sql, expected):
        assert _lexed(tokenize, sql)[:-1] == expected
        assert _lexed(reference_tokenize, sql)[:-1] == expected


class TestShapeKey:
    def test_literals_keyword_case_and_spacing_do_not_count(self):
        key, literals = scan("SELECT ra FROM PhotoObj WHERE ra > 5 "
                             "AND name = 'x'")
        twin, twin_literals = scan("select  ra\nfrom PhotoObj /* c */ "
                                   "where ra>1e3 and name='it''s'")
        assert key == twin
        assert literals == ["5", "x"]
        assert twin_literals == ["1e3", "it's"]

    def test_slots_are_typed(self):
        assert scan("SELECT 1")[0] != scan("SELECT '1'")[0]
        assert NUMBER_SLOT in scan("SELECT 1")[0]
        assert STRING_SLOT in scan("SELECT '1'")[0]

    def test_identifiers_are_not_keywords(self):
        assert scan("SELECT [select]")[0] != scan("SELECT select")[0]
        assert scan("SELECT [ra]")[0] == scan("SELECT ra")[0]
        assert scan("SELECT ra")[0] != scan("SELECT RA")[0]

    def test_unspellable_identifier_has_no_key(self):
        assert scan("SELECT [a\x1fb] FROM T")[0] is None

    def test_equal_keys_mean_equal_tokens_but_literals(self):
        def abstracted(tokens):
            return [(t.type, None if t.type in (TokenType.NUMBER,
                                                TokenType.STRING)
                     else t.value) for t in tokens[:-1]]

        pieces = ["SELECT", "ra", "[ra]", "[a b]", "'x'", "5", ",", "(",
                  ")", "<>", "!=", "NULL", "[NULL]", "select", " ", "",
                  "'", "\x1f", "[\x1f]", "\x00", "[\x00]", "[]", "."]
        rng = random.Random(1)
        seen = {}
        for _ in range(20000):
            sql = " ".join(rng.choice(pieces)
                           for _ in range(rng.randint(0, 6)))
            try:
                tokens = reference_tokenize(sql)
            except LexError:
                continue
            key = scan(sql)[0]
            if key is not None:
                assert seen.setdefault(key, abstracted(tokens)) == \
                    abstracted(tokens), sql
        assert len(seen) > 1000
