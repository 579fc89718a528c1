"""The extractor's memo of statement shapes against the full pipeline.

A statement whose shape the extractor holds binds its literals into the
held constraint and runs only distribution, the placement check and
consolidation.  Wherever the transform lets a literal decide, the twin
that decides otherwise must answer exactly as the full pipeline does:
from the held shape when the decision is re-checked and equal, else
through the full pipeline.  Each test extracts a first statement, then
its twin, on one extractor, and compares both with a fresh extractor's
``extract_statement(parse(sql))``.
"""

import pickle

from repro.core.extractor import AccessAreaExtractor
from repro.obs import trace
from repro.schema import skyserver_schema
from repro.sqlparser import parse, parser

SCHEMA = skyserver_schema()


def outcome(extract, sql: str):
    """The pickled ``(relations, cnf, notes, exact)`` of ``sql``'s area,
    or the exception's type and message."""
    try:
        area = extract(sql).area
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return pickle.dumps((area.relations, area.cnf, area.notes, area.exact))


def full(sql: str):
    """The full pipeline's answer, from an extractor that holds nothing."""
    extractor = AccessAreaExtractor(SCHEMA)
    return outcome(lambda text: extractor.extract_statement(parse(text)),
                   sql)


def extracted(extractor: AccessAreaExtractor, sql: str):
    """``extractor``'s answer, and whether a held shape gave it."""
    tracer = trace.Tracer()
    with trace.use_tracer(tracer):
        answer = outcome(extractor.extract, sql)
    [query] = tracer.roots
    return answer, query.attrs.get("shape") == "held"


def check(first: str, then: str, held: bool,
          extractor: AccessAreaExtractor | None = None) -> None:
    """Both statements answer as the full pipeline does, and ``then``
    from the shape ``first`` left held iff ``held``."""
    extractor = extractor or AccessAreaExtractor(SCHEMA)
    assert extracted(extractor, first) == (full(first), False)
    assert extracted(extractor, then) == (full(then), held)


class TestHits:
    def test_new_literals_bind_into_the_held_shape(self):
        check("SELECT ra FROM PhotoObj WHERE ra > 5 AND dec BETWEEN 1 AND 2",
              "SELECT ra FROM PhotoObj WHERE ra > 7.5 AND dec BETWEEN 3 "
              "AND 2e3", held=True)

    def test_a_sign_makes_another_shape(self):
        check("SELECT ra FROM PhotoObj WHERE ra > 5",
              "SELECT ra FROM PhotoObj WHERE ra > -5", held=False)

    def test_keyword_case_and_spacing_share_the_shape(self):
        check("SELECT ra FROM PhotoObj WHERE ra > 5",
              "select  ra from PhotoObj\nwhere ra>6", held=True)

    def test_negated_atoms_keep_their_constants(self):
        check("SELECT * FROM PhotoObj WHERE NOT ra > 5 AND dec NOT IN (1) "
              "AND NOT (ra BETWEEN 1 AND 2) OR NOT (dec < 3 AND ra = 4)",
              "SELECT * FROM PhotoObj WHERE NOT ra > 6 AND dec NOT IN (2) "
              "AND NOT (ra BETWEEN 3 AND 9) OR NOT (dec < 0 AND ra = 8)",
              held=True)

    def test_folded_constants_fold_again(self):
        check("SELECT * FROM PhotoObj WHERE ra > 2 * 3 AND dec < -(1 + 2) "
              "AND ra <> 7 % 4",
              "SELECT * FROM PhotoObj WHERE ra > 5 * 3 AND dec < -(4 + 2) "
              "AND ra <> 9 % 4", held=True)

    def test_subquery_links(self):
        check("SELECT * FROM PhotoObj p WHERE p.objid IN "
              "(SELECT s.bestobjid FROM SpecObjAll s WHERE s.z > 0.1) "
              "AND 5 < (SELECT MAX(z) FROM Photoz)",
              "SELECT * FROM PhotoObj p WHERE p.objid IN "
              "(SELECT s.bestobjid FROM SpecObjAll s WHERE s.z > 0.3) "
              "AND 7 < (SELECT MAX(z) FROM Photoz)", held=True)

    def test_equal_constants_render_as_the_first_one_seen(self):
        # 5 and 5.0 are one predicate; the clause keeps the rendering of
        # the one distribution met first, so the two differ in bytes.
        first = "SELECT * FROM PhotoObj WHERE ra = 5 OR ra = 5.0 OR dec < 1"
        then = "SELECT * FROM PhotoObj WHERE ra = 5.0 OR ra = 5 OR dec < 1"
        assert full(first) != full(then)
        check(first, then, held=True)

    def test_the_cap_note_is_held(self):
        wide = " OR ".join(f"ra = {value}" for value in range(40))
        check(f"SELECT * FROM PhotoObj WHERE {wide}",
              f"SELECT * FROM PhotoObj WHERE {wide.replace('= 1', '= 2')}",
              held=True)

    def test_a_statement_without_literals(self):
        check("SELECT * FROM PhotoObj p, SpecObjAll s "
              "WHERE p.objid = s.bestobjid",
              "select * from PhotoObj p, SpecObjAll s "
              "where p.objid = s.bestobjid", held=True)


class TestDecisions:
    """Each site where a literal decides something in the transform."""

    def test_constant_comparison_that_folds_the_other_way(self):
        check("SELECT * FROM PhotoObj WHERE 1 = 1 AND ra > 5",
              "SELECT * FROM PhotoObj WHERE 1 = 2 AND ra > 5", held=False)
        check("SELECT * FROM PhotoObj WHERE 1 = 1 AND ra > 5",
              "SELECT * FROM PhotoObj WHERE 2 = 2 AND ra > 6", held=True)

    def test_like_with_and_without_a_wildcard(self):
        check("SELECT * FROM DBObjects WHERE name LIKE 'ab'",
              "SELECT * FROM DBObjects WHERE name LIKE 'a%'", held=False)
        check("SELECT * FROM DBObjects WHERE name NOT LIKE 'ab'",
              "SELECT * FROM DBObjects WHERE name NOT LIKE 'cd'", held=True)
        # The wildcard's note quotes the pattern: that shape is not held.
        check("SELECT * FROM DBObjects WHERE name LIKE 'a%'",
              "SELECT * FROM DBObjects WHERE name LIKE 'b%'", held=False)

    def test_string_constant_on_a_numeric_column(self):
        # ra is numeric in PhotoObjAll: '5' becomes 5, 'x' stays a string.
        assert b"PhotoObjAll" in full("SELECT * FROM PhotoObjAll "
                                      "WHERE ra > '5'")
        check("SELECT * FROM PhotoObjAll WHERE ra > '5'",
              "SELECT * FROM PhotoObjAll WHERE ra > 'x'", held=True)
        check("SELECT * FROM PhotoObjAll WHERE ra > 'x'",
              "SELECT * FROM PhotoObjAll WHERE ra > ' 7.5 '", held=True)

    def test_division_by_zero(self):
        check("SELECT * FROM PhotoObj WHERE ra > 10 / 2",
              "SELECT * FROM PhotoObj WHERE ra > 10 / 0", held=False)
        check("SELECT * FROM PhotoObj WHERE ra > 10 % 0",
              "SELECT * FROM PhotoObj WHERE ra > 10 % 3", held=False)

    def test_folding_off_the_number_line(self):
        check("SELECT * FROM PhotoObj WHERE ra > 10 * 2",
              f"SELECT * FROM PhotoObj WHERE ra > {10 ** 300} * {10 ** 300}",
              held=False)

    def test_having_sign_flips(self):
        # The WHERE bound, a string on a numeric column, sets the sign
        # of the domain the Lemma 1-3 tests read.
        check("SELECT type FROM PhotoObjAll WHERE ra > '0' GROUP BY type "
              "HAVING SUM(ra) < 5",
              "SELECT type FROM PhotoObjAll WHERE ra > '-10' GROUP BY type "
              "HAVING SUM(ra) < 5", held=False)

    def test_not_exists_over_a_satisfiable_and_an_unsatisfiable_subquery(
            self):
        sat = ("SELECT * FROM PhotoObj p WHERE NOT EXISTS (SELECT * FROM "
               "Photoz z WHERE z.objid = p.objid AND z.z > {} AND z.z < 2)")
        assert full(sat.format(1)) != full(sat.format(3))
        check(sat.format(1), sat.format(3), held=False)
        check(sat.format(3), sat.format(1), held=False)

    def test_constant_off_the_number_line(self):
        check("SELECT * FROM PhotoObj WHERE ra > 5",
              "SELECT * FROM PhotoObj WHERE ra > 1e400", held=True)
        check("SELECT * FROM PhotoObj WHERE ra < 5",
              "SELECT * FROM PhotoObj WHERE ra < 1e400", held=True)

    def test_literal_the_grammar_rejects(self):
        check("SELECT TOP 5 ra FROM PhotoObj WHERE ra > 1",
              "SELECT TOP 1e400 ra FROM PhotoObj WHERE ra > 1", held=False)
        check("SELECT ra FROM PhotoObj WHERE ra > 1",
              "SELECT ra FROM PhotoObj WHERE ra > ²", held=False)

    def test_a_statement_that_fails_is_never_held(self):
        check("SELECT * FROM PhotoObj WHERE ra > 1e400",
              "SELECT * FROM PhotoObj WHERE ra > 5", held=False)


class TestMemo:
    def test_one_memo_per_extractor(self):
        first = AccessAreaExtractor(SCHEMA)
        extracted(first, "SELECT * FROM PhotoObj WHERE ra > 5")
        second = AccessAreaExtractor(SCHEMA)
        assert not extracted(second, "SELECT * FROM PhotoObj WHERE ra > 6")[1]
        assert extracted(first, "SELECT * FROM PhotoObj WHERE ra > 7")[1]

    def test_held_shapes_answer_only_for_their_schema_and_cap(self):
        extractor = AccessAreaExtractor(SCHEMA)
        extracted(extractor, "SELECT * FROM PhotoObj WHERE ra > 5")
        extractor.predicate_cap = 1
        assert not extracted(
            extractor, "SELECT * FROM PhotoObj WHERE ra > 6")[1]
        extractor.schema = skyserver_schema()
        assert not extracted(
            extractor, "SELECT * FROM PhotoObj WHERE ra > 7")[1]
        assert extracted(extractor, "SELECT * FROM PhotoObj WHERE ra > 8")[1]

    def test_least_recently_used_shape_is_evicted_first(self, monkeypatch):
        a, b, c = (f"SELECT * FROM PhotoObj WHERE {column} > 1"
                   for column in "ugr")
        monkeypatch.setattr(parser, "SHAPE_CHARS", len(a) + len(b))
        extractor = AccessAreaExtractor(SCHEMA)
        for sql in (a, b, a, c):   # a is used again before c evicts b
            extracted(extractor, sql)
        assert extracted(extractor, a.replace("1", "2"))[1]
        assert not extracted(extractor, b.replace("1", "2"))[1]

    def test_statement_longer_than_the_bound_is_never_held(
            self, monkeypatch):
        sql = "SELECT * FROM PhotoObj WHERE ra > 1"
        monkeypatch.setattr(parser, "SHAPE_CHARS", len(sql) - 1)
        extractor = AccessAreaExtractor(SCHEMA)
        extracted(extractor, sql)
        assert not extracted(extractor, sql.replace("1", "2"))[1]

    def test_a_hit_keeps_the_statement_and_its_features(self):
        extractor = AccessAreaExtractor(SCHEMA)
        first = extractor.extract(
            "SELECT TOP 3 ra FROM PhotoObj WHERE ra BETWEEN 1 AND 2")
        sql = "SELECT TOP 4 ra FROM PhotoObj WHERE ra BETWEEN 3 AND 4"
        second = extractor.extract(sql)
        assert second.features == first.features == {"top", "between"}
        assert repr(second.statement) == repr(parse(sql))

    def test_a_hit_is_timed_by_its_own_stages(self):
        extractor = AccessAreaExtractor(SCHEMA)
        extractor.extract("SELECT * FROM PhotoObj WHERE ra > 1")
        timings = extractor.extract(
            "SELECT * FROM PhotoObj WHERE ra > 2").timings
        assert min(timings.parse, timings.extract, timings.cnf,
                   timings.consolidate) >= 0.0
        assert timings.total > 0.0
