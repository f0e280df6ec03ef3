import pytest

from fstmorph import lookup, testkit, twol
from fstmorph.errors import ParseError


def test_parse_suite_single_and_list():
    cases = testkit.parse_suite(
        "algg+N+Sg+Gen: aalǥ\n"
        "x+N+Sg+Nom: [x, xx]\n")
    assert cases[0].analysis == "algg+N+Sg+Gen"
    assert cases[0].expected_surfaces == {"aalǥ"}
    assert cases[1].expected_surfaces == {"x", "xx"}


def test_parse_suite_merges_duplicate_keys():
    cases = testkit.parse_suite("a+N: x\na+N: y\n")
    assert len(cases) == 1
    assert cases[0].expected_surfaces == {"x", "y"}


def test_parse_suite_comments_and_blanks():
    cases = testkit.parse_suite("# heading\n\na+N: x\n")
    assert len(cases) == 1


def test_parse_suite_errors():
    with pytest.raises(ParseError, match="3"):
        testkit.parse_suite("a+N: x\n\nno colon here\n")
    with pytest.raises(ParseError):
        testkit.parse_suite("a+N:\n")


def test_fixture_suite_passes_both_directions(pipeline, fixture_sources):
    cases = testkit.parse_suite(fixture_sources["suite"])
    report = testkit.run_suite(pipeline, cases, "both")
    assert report.all_passed
    totals = report.totals
    assert totals["gen"]["fail"] == 0 and totals["ana"]["fail"] == 0
    assert totals["gen"]["pass"] == len(cases)


def test_report_is_deterministic(pipeline, fixture_sources):
    cases = testkit.parse_suite(fixture_sources["suite"])
    first = testkit.run_suite(pipeline, cases, "both")
    second = testkit.run_suite(pipeline, cases, "both")
    assert first.to_text() == second.to_text()
    assert first.to_json_lines() == second.to_json_lines()


def test_empty_suite_report():
    report = testkit.run_suite(None, [], "both")
    assert report.all_passed
    assert report.totals == {}


def test_failure_reports_expected_vs_got(fixture_sources, fixture_parsed):
    """Deleting the vowel-doubling demand makes Sg+Gen over-generate."""
    table, ast, ruleset = fixture_parsed
    keep = [r for r in ruleset.rules
            if r.name != "Doubling trigger demands an inserted vowel"]
    mutated = twol.RuleSet(ruleset.alphabet, ruleset.sets, keep)
    pipe = lookup.build_pipeline(ast, mutated)
    report = testkit.run_suite(
        pipe, testkit.parse_suite("algg+N+Sg+Gen: aalǥ\n"), "gen")
    (result,) = report.results
    assert result.status == "fail"
    assert "alǥ" in result.got and "aalǥ" in result.got
    assert "expected" in report.to_text()


def test_coverage_stats_match_ast_oracle(pipeline, fixture_parsed):
    table, ast, _ = fixture_parsed
    stats = testkit.coverage_stats(ast, pipeline)
    nouns = stats.per_pos["+N"]
    assert nouns.lemmas == 5
    assert nouns.glossed == 4
    assert nouns.unglossed == 1
    assert nouns.glossed + nouns.unglossed == nouns.lemmas
    verbs = stats.per_pos["+V"]
    assert (verbs.lemmas, verbs.glossed, verbs.unglossed) == (1, 1, 0)

    for pos in ("+N", "+V"):
        oracle = testkit.tag_sequence_oracle(ast, pos)
        got, truncated = testkit._tag_sequences(pipeline, pos, 100, 10000)
        assert not truncated
        assert got == oracle
        s = stats.per_pos[pos]
        derivations = {seq for seq in oracle
                       if set(seq) & testkit.DERIVATION_TAGS}
        assert s.derivations == len(derivations)
        assert s.inflections == len(oracle) - len(derivations)


def test_stats_table_column_order(pipeline, fixture_parsed):
    _, ast, _ = fixture_parsed
    table_text = testkit.coverage_stats(ast, pipeline).to_table()
    header = table_text.splitlines()[0].split()
    assert header == ["Word", "Class", "glossed", "unglossed",
                      "inflections", "derivations"]


def test_stats_truncation_flagged(pipeline, fixture_parsed):
    _, ast, _ = fixture_parsed
    stats = testkit.coverage_stats(ast, pipeline, max_count=3)
    assert stats.forms_truncated
    assert "+" in stats.to_table().splitlines()[-1]


def test_parse_suite_rejects_an_unclosed_list():
    with pytest.raises(ParseError, match=r"^s\.txt:2: .*'\]'"):
        testkit.parse_suite(
            "a+N: x\nb+N: [form1, form2]    # two forms\n", "s.txt")
