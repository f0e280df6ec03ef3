"""Self-tests of the benchmark's oracle and checkers: each checker must
reject a deliberately broken output, and the span wrappers must come off
cleanly."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import combine  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from fstmorph import fst, lookup, twol  # noqa: E402
from fstmorph.symbols import SymbolTable  # noqa: E402


def _case(analysis):
    return next(c for c in inputs.fixture_cases() if c.analysis == analysis)


def test_gold_and_misspellings_from_fixture_files():
    cases = inputs.fixture_cases()
    assert len(cases) == 16
    assert _case("algg+N+Sg+Loc+PxSg1").surfaces == {"alǥstan", "aalǥstan"}
    missp = inputs.fixture_misspellings(cases)
    assert inputs.Misspelling("viirdi", "veʹrdd+N+Pl+Gen") in missp
    # ẹ -> e is also the orthography map, which the analyzer accepts
    # strictly, so no misspelling comes from it.
    assert not any(m.word == "verdda" for m in missp)


def test_synth_grammar_is_seeded_and_prefixes_only_inert_consonants(tmp_path):
    a = inputs.write_synth_grammar(7, tmp_path / "a")
    b = inputs.write_synth_grammar(7, tmp_path / "b")
    c = inputs.write_synth_grammar(8, tmp_path / "c")
    text = (tmp_path / "a" / "roots.lexc").read_text(encoding="utf-8")
    assert text == (tmp_path / "b" / "roots.lexc").read_text(encoding="utf-8")
    assert text != (tmp_path / "c" / "roots.lexc").read_text(encoding="utf-8")
    assert a.lemmas == 5 * sum(inputs.PREFIX_COUNTS.values())
    assert len(a.cases) == len(c.cases)
    for case in a.cases:
        lemma = inputs.lemma_of(case.analysis)
        root = next(r for r in ("algg", "veʹrdd", "tieʹtted", "radio",
                                "kueʹtt") if lemma.endswith(r))
        prefix = lemma[:-len(root)]
        assert 1 <= len(prefix) <= 4
        assert set(prefix) <= set(inputs.PREFIX_CONSONANTS)
        gold = _case(root + case.analysis[len(lemma):])
        assert case.surfaces == {prefix + s for s in gold.surfaces}


def test_generate_checker_rejects_a_missing_or_extra_form():
    case = _case("algg+N+Sg+Loc+PxSg1")
    assert checks.generate_ok(["aalǥstan", "alǥstan"], case)
    assert not checks.generate_ok(["aalǥstan"], case)
    assert not checks.generate_ok(["aalǥstan", "alǥstan", "algg"], case)


def test_analyze_and_relaxed_checkers():
    gold = frozenset({"algg+N+Sg+Gen", "algg+N+Sg+Acc"})
    strict = [lookup.Analysis("algg+N+Sg+Acc"), lookup.Analysis("algg+N+Sg+Gen")]
    assert checks.analyze_ok(strict, gold)
    assert not checks.analyze_ok(strict[:1], gold)
    assert not checks.analyze_ok([], gold)
    relaxed = [lookup.Analysis(a.text, relaxed=True) for a in strict]
    assert not checks.analyze_ok(relaxed, gold)
    assert checks.relaxed_ok(relaxed, "algg+N+Sg+Gen")
    assert not checks.relaxed_ok(strict, "algg+N+Sg+Gen")
    assert not checks.relaxed_ok(relaxed, "algg+N+Sg+Ill")


def test_cli_checker_counts_wrong_missing_and_extra_lines():
    words = ["aalǥ", "algg", "aalǥ"]
    gold = {"aalǥ": {"algg+N+Sg+Gen", "algg+N+Sg+Acc"},
            "algg": {"algg+N+Sg+Nom"}}
    good = ("aalǥ\talgg+N+Sg+Acc\naalǥ\talgg+N+Sg+Gen\n"
            "algg\talgg+N+Sg+Nom\n"
            "aalǥ\talgg+N+Sg+Acc\naalǥ\talgg+N+Sg+Gen\n")
    assert checks.cli_failures(words, gold, good) == 0
    lines = good.splitlines(keepends=True)
    assert checks.cli_failures(words, gold, "".join(lines[1:])) == 1
    assert checks.cli_failures(words, gold, good.replace(
        "algg\talgg+N+Sg+Nom", "algg\t+?")) == 1
    assert checks.cli_failures(words, gold, good + "x\ty\n") == 1
    assert checks.cli_failures(words, gold, "") == 3


def _fixture_twol():
    return (inputs.FIXTURE / "phonology.twol").read_text(encoding="utf-8")


def test_combined_checker_catches_a_left_out_rule():
    ruleset = combine.leading_rules(_fixture_twol(), 4)
    whole = twol.combine_rules(ruleset, "direct")
    assert checks.combined_mismatches(whole, ruleset.rules, ruleset, 1,
                                      40)[1] == 0
    broken = twol.combine_rules(
        twol.RuleSet(ruleset.alphabet, ruleset.sets, ruleset.rules[1:]),
        "direct")
    probes, bad = checks.combined_mismatches(broken, ruleset.rules, ruleset,
                                             1, 40)
    assert probes >= 80 and bad > 0


def test_spans_nest_and_wrappers_come_off():
    table = SymbolTable()
    a, b = (table.intern(ch).id for ch in "ab")
    machine = fst.union(fst.string_acceptor(table, [a, b]),
                        fst.string_acceptor(table, [a, a]))
    original = fst.determinize
    tracer = spans.Tracer()
    tracer.install()
    try:
        fst.minimize(machine)
    finally:
        tracer.remove()
    assert fst.determinize is original
    names = {s.name: s for s in tracer.spans}
    det = names["fst.determinize"]
    assert tracer.spans[det.parent].name == "fst.minimize"
    assert det.attrs["dfa_input"] is False
    own = tracer.self_times()
    assert all(t >= 0 for t in own.values())
    figures = spans.layer_metrics(tracer, tracer.spans)
    assert figures["fst.minimize_calls"] == 1
    assert figures["fst.determinize_calls"] == 1
    assert figures["fst.trim_calls"] >= 2
