"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s or -rP);
the pytest verdict itself is the pass/fail record.
"""

import random
import time

from fstmorph import att, fst, lookup, testkit, twol
from fstmorph.symbols import SymbolTable

from conftest import (accepts, equivalent_acceptors, language,
                      random_acceptor, random_pair_string, random_ruleset,
                      random_transducer, reversed_combine)

REFERENCE_FORMS = {
    "algg+N+Sg+Nom": {"algg"},
    "algg+N+Sg+Gen": {"aalǥ"},
    "algg+N+Sg+Ill": {"aʹlǧǧe"},
    "algg+N+Dimin+Sg+Gen": {"aaʹlje"},
    "veʹrdd+N+Sg+Nom": {"veʹrdd"},
    "veʹrdd+N+Sg+Gen": {"veeʹrd"},
    "veʹrdd+N+Sg+Ill": {"vẹrdda"},
    "veʹrdd+N+Pl+Gen": {"viiʹrdi"},
    "veʹrdd+N+Sg+Loc+PxSg3": {"veʹrdstes"},
    "veʹrdd+N+Dimin+Sg+Nom": {"vẹẹrdaž"},
    "tieʹtted+V+Pot+Sg3": {"tieʹđež"},
    "radio+N+Sg+Nom": {"radio"},
}


def test_criterion_01_reference_form_generation(fixture_sources):
    started = time.monotonic()
    pipe = lookup.load_pipeline(
        fixture_sources["lexc"], fixture_sources["twol"],
        orthography_text=fixture_sources["orthography"],
        relax_text=fixture_sources["relax"])
    for analysis, expected in REFERENCE_FORMS.items():
        assert set(lookup.generate(pipe, analysis)) == expected, analysis
    assert "alǥstan" in lookup.generate(pipe, "algg+N+Sg+Loc+PxSg1")
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"fixture compile+test took {elapsed:.1f}s"
    print(f"PASS criterion 1: all reference surfaces generated exactly "
          f"({elapsed:.1f}s < 5s)")


def test_criterion_02_allegro_largo_variation(pipeline):
    got = set(lookup.generate(pipeline, "algg+N+Sg+Loc+PxSg1"))
    assert got == {"alǥstan", "aalǥstan"}
    print("PASS criterion 2: allegro/largo variants generated as a set")


def test_criterion_03_inversion_property(pipeline):
    paths = fst.enumerate_paths(pipeline.generator, 100, 5000)
    assert paths.pairs, "generator relation is empty"
    table = pipeline.table
    for ana_ids, surf_ids in paths.pairs:
        analysis = table.render(ana_ids)
        surface = table.render(surf_ids)
        assert analysis in [a.text for a in lookup.analyze(pipeline, surface)]
        assert surface in lookup.generate(pipeline, analysis)
    print(f"PASS criterion 3: inversion holds on all "
          f"{len(paths.pairs)} generator paths")


def test_criterion_04_rule_compiler_soundness():
    started = time.monotonic()
    rng = random.Random(1234)
    cases = 0
    while cases < 1000:
        ruleset = random_ruleset(rng, num_rules=1, num_letters=4)
        rule = ruleset.rules[0]
        machine = twol.compile_rule(rule, ruleset)
        for _ in range(10):
            s = random_pair_string(ruleset, rng, max_len=6)
            pids = [ruleset.alphabet.pair_id(*p) for p in s]
            assert accepts(machine, pids) == \
                twol.check_rule(rule, s, ruleset), (rule, s)
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS criterion 4: compiler matches oracle on {cases} cases "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_05_strategy_equivalence(fixture_parsed):
    """combine_rules agrees with the reversed-fold reference."""
    rng = random.Random(4321)
    for _ in range(200):
        ruleset = random_ruleset(rng, num_rules=rng.randint(1, 3))
        direct = twol.combine_rules(ruleset)
        rev = reversed_combine(ruleset)
        assert equivalent_acceptors(direct, rev)
    # Fixture rule set: both end minimized and canonically numbered, so
    # language equality shows up as structural equality.
    _, _, ruleset = fixture_parsed
    direct = twol.combine_rules(ruleset)
    rev = reversed_combine(ruleset)
    assert direct.num_states == rev.num_states
    assert direct.start == rev.start
    assert direct.finals == rev.finals
    assert direct.arcs == rev.arcs
    print("PASS criterion 5: combine_rules and the reversed fold agree on "
          "200 random rule sets and the fixture")


def test_criterion_06_acceptor_algebra():
    table = SymbolTable()
    sym_ids = [table.intern(c).id for c in "abc"]
    rng = random.Random(77)
    for _ in range(200):
        a = random_acceptor(table, sym_ids, rng)
        lang = language(a, 8)
        assert language(fst.determinize(a), 8) == lang
        assert language(fst.minimize(a), 8) == lang
        assert fst.is_empty(fst.intersect(a, fst.complement(a, sym_ids)))
    print("PASS criterion 6: determinize/minimize preserve 200 random "
          "languages; a ∩ ¬a empty")


def test_criterion_07_composition_oracle():
    table = SymbolTable()
    sym_ids = [table.intern(c).id for c in "ab"]
    rng = random.Random(88)

    def rel(machine):
        paths = fst.enumerate_paths(machine, 20, 100000)
        assert not paths.truncated
        return {(p[0], p[1]) for p in paths.pairs}

    for _ in range(200):
        a = random_transducer(table, sym_ids, rng, acyclic=True)
        b = random_transducer(table, sym_ids, rng, acyclic=True)
        ra, rb = rel(a), rel(b)
        joined = {(x, z) for x, y in ra for y2, z in rb if y == y2}
        assert rel(fst.compose(a, b)) == joined
    print("PASS criterion 7: composition equals brute-force join on "
          "200 random pairs (epsilon arcs included)")


def test_criterion_08_orthography_filter(pipeline, normative_pipeline):
    # pedagogical kuẹʹtt corresponds to normative kueʹtt
    assert lookup.generate(pipeline, "kueʹtt+N+Sg+Nom") == ["kuẹʹtt"]
    assert lookup.generate(normative_pipeline, "kueʹtt+N+Sg+Nom") == \
        ["kueʹtt"]
    # pedagogical-mode analyzer accepts both spellings identically
    both = [[a.text for a in lookup.analyze(pipeline, w)]
            for w in ("kuẹʹtt", "kueʹtt")]
    assert both[0] == both[1] == ["kueʹtt+N+Sg+Nom"]
    # normative mode: no surface contains the pedagogical-only symbol
    marked = normative_pipeline.table.id_of("ẹ")
    paths = fst.enumerate_paths(normative_pipeline.generator, 100, 5000)
    assert not paths.truncated
    assert all(marked not in surf for _, surf in paths.pairs)
    print("PASS criterion 8: orthography filter maps kuẹʹtt→kueʹtt; "
          "both spellings analyzed; normative surfaces clean")


def test_criterion_09_mutation_sensitivity(fixture_sources, fixture_parsed):
    table, ast, ruleset = fixture_parsed
    cases = testkit.parse_suite(fixture_sources["suite"])
    pristine = lookup.build_pipeline(ast, ruleset)
    report = testkit.run_suite(pristine, cases, "both")
    assert report.all_passed, "unmutated suite must pass 100%"
    insensitive = []
    for removed in ruleset.rules:
        keep = [r for r in ruleset.rules if r is not removed]
        mutated = twol.RuleSet(ruleset.alphabet, ruleset.sets, keep)
        pipe = lookup.build_pipeline(ast, mutated)
        if testkit.run_suite(pipe, cases, "both").all_passed:
            insensitive.append(removed.name)
    assert not insensitive, f"deletions not caught: {insensitive}"
    print(f"PASS criterion 9: every one of the {len(ruleset.rules)} "
          "single-rule deletions breaks the suite; pristine passes")


def test_criterion_10_stats_table(pipeline, fixture_parsed):
    _, ast, _ = fixture_parsed
    stats = testkit.coverage_stats(ast, pipeline)
    header = stats.to_table().splitlines()[0].split()
    assert header == ["Word", "Class", "glossed", "unglossed",
                      "inflections", "derivations"]
    for pos, s in stats.per_pos.items():
        oracle = testkit.tag_sequence_oracle(ast, pos)
        derivations = {q for q in oracle if set(q) & testkit.DERIVATION_TAGS}
        assert s.derivations == len(derivations)
        assert s.inflections == len(oracle) - len(derivations)
        assert s.glossed + s.unglossed == s.lemmas
    print("PASS criterion 10: stats table shape and oracle-checked counts")


def test_criterion_11_att_round_trip(pipeline):
    table = pipeline.table
    for machine in (pipeline.generator, pipeline.analyzer):
        first = att.export_att(machine, table)
        second = att.export_att(att.import_att(first, table), table)
        assert first == second
    sym_text = att.export_symbols(table)
    assert att.export_symbols(att.import_symbols(sym_text)) == sym_text
    print("PASS criterion 11: AT&T export→import→export byte-identical")
