"""The assembled generator against brute-force two-level generation and
against the generator built in stages.

For a random rule set (conftest.random_ruleset) and a lexicon of one to
three tagged words, the oracle lists every feasible pair string whose
lexical side is a word, with insertions anywhere, and keeps the surfaces
of the strings that twol.check_rule accepts for every rule.  The
generator that lookup.build_pipeline assembles (the lexicon composed
through the rule DFAs in one product, then minimized) must give exactly
those surfaces for the word's analysis, up to SLACK symbols longer than
the word.  On the same random draws, with compounding added to some
lexicons, and on the shipped grammars, it must equal arc for arc the
minimized generator of conftest.reference_apply_rules: the lexicon's
pair domain, the left fold of intersects with the rules, and a
composition.  On the shipped grammars, the generator that
build_pipeline minimizes must also keep the relation of the build that
minimizes nothing.  With random orthography and relax maps, the normative
generator must give the oracle's surfaces rewritten by the orthography
map, and analysis must read every spelling the two maps allow back to
its word, flagged relaxed only when no word generates it strictly.
"""

import itertools
import pathlib
import random
import sys

import pytest

from fstmorph import fst, lexc, lookup, twol
from fstmorph.errors import PipelineError
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import (chain_lexicon, random_ruleset, read_fixture,
                      reference_apply_rules, same_machine)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))

import inputs  # noqa: E402

SLACK = 2
CASES = 300
MAP_CASES = 100  # draws of each map test, about 1 s each


def pair_strings(ruleset, word, max_surface):
    """Every feasible pair string with lexical side word and a surface of
    at most max_surface symbols."""
    by_lex = {}
    for l, s in ruleset.alphabet.pairs:
        by_lex.setdefault(l, []).append((l, s))
    found = []

    def extend(k, pairs, surface_len):
        if k == len(word):
            found.append(pairs)
        if surface_len < max_surface:
            for pair in by_lex.get(EPSILON_ID, ()):  # s is never epsilon
                extend(k, pairs + [pair], surface_len + 1)
        if k < len(word):
            for pair in by_lex.get(word[k], ()):
                grown = surface_len + (pair[1] != EPSILON_ID)
                if grown <= max_surface:
                    extend(k + 1, pairs + [pair], grown)

    extend(0, [], 0)
    return found


def oracle_surfaces(ruleset, word, max_surface=None):
    """The surfaces of word that every rule accepts, of at most
    max_surface symbols (by default SLACK more than the word)."""
    if max_surface is None:
        max_surface = len(word) + SLACK
    return {tuple(s for _, s in pairs if s != EPSILON_ID)
            for pairs in pair_strings(ruleset, word, max_surface)
            if all(twol.check_rule(r, pairs, ruleset) for r in ruleset.rules)}


def generated_surfaces(pipe, analysis, letters, max_surface):
    """The generator's surfaces for analysis, of at most max_surface
    symbols: the generator composed between the analysis and an acceptor
    of bounded-length surfaces, an acyclic machine enumerated whole."""
    table = pipe.table
    bounded = fst.Transducer(
        table, max_surface + 1, 0, range(max_surface + 1),
        [(k, c, c, k + 1) for k in range(max_surface) for c in letters])
    machine = fst.compose(
        fst.compose(fst.string_acceptor(table, analysis), pipe.generator),
        bounded)
    paths = fst.enumerate_paths(machine, len(analysis), 10**6)
    assert not paths.truncated
    return {out for _, out in paths.pairs}


def random_grammar(rng):
    """(rule set, lexicon AST) of a random rule set and a Root lexicon of
    one to three words over its lexical symbols, each tagged +A or +B
    on the analysis side only."""
    ruleset = random_ruleset(rng, num_rules=rng.randint(1, 3))
    table = ruleset.table
    lexical = sorted({l for l, _ in ruleset.alphabet.pairs} - {EPSILON_ID})
    tags = [table.declare_multichar(t).id for t in ("+A", "+B")]
    words = {tuple(rng.choice(lexical) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))}
    entries = [lexc.LexEntry(list(w) + [rng.choice(tags)], list(w),
                             lexc.END) for w in sorted(words)]
    return ruleset, lexc.LexiconAst({"Root": entries}, table)


def test_generator_matches_brute_force_two_level_generation():
    rng = random.Random(3003)
    generated_any = 0
    for _ in range(CASES):
        ruleset, ast = random_grammar(rng)
        letters = sorted({s for _, s in ruleset.alphabet.pairs} - {EPSILON_ID})
        entries = ast.root
        expected = [oracle_surfaces(ruleset, e.surface) for e in entries]
        try:
            pipe = lookup.build_pipeline(ast, ruleset)
        except PipelineError:  # the generator relation is empty
            assert not any(expected), ruleset
            continue
        for e, surfaces in zip(entries, expected):
            got = generated_surfaces(pipe, e.analysis, letters,
                                     len(e.surface) + SLACK)
            assert got == surfaces, (ruleset, e.analysis)
            generated_any += bool(got)
    assert generated_any > CASES  # most words have some surface


def assert_generator_is_the_reference(ast, ruleset, name=None):
    """build_pipeline's generator is the minimized staged build, or both
    are empty."""
    want = fst.encoded_minimize(
        reference_apply_rules(lexc.compile_lexicon(ast), ruleset))
    try:
        got = lookup.build_pipeline(ast, ruleset).generator
    except PipelineError:  # the generator relation is empty
        assert fst.is_empty(want), name
        return False
    assert same_machine(got, want), name
    return True


def test_generator_is_the_reference_build_random():
    """On the brute-force test's draws, with a +C entry back to Root, a
    compound boundary written as nothing, in half the lexicons."""
    rng = random.Random(3003)
    kinds = {"cyclic": 0, "nonempty": 0}
    for _ in range(CASES):
        ruleset, ast = random_grammar(rng)
        if rng.random() < 0.5:
            cmp = ast.table.declare_multichar("+C").id
            ast.root.append(lexc.LexEntry([cmp], [], "Root"))
            kinds["cyclic"] += 1
        kinds["nonempty"] += assert_generator_is_the_reference(ast, ruleset)
    assert min(kinds.values()) > CASES // 3, kinds


def differential_grammars(tmp_path):
    """(name, lexc texts, max input length) of the fixture, the seed-1
    synthetic grammar and the fixture with compounding (+Cmp back to
    Root), whose generator is cyclic."""
    roots, affixes = read_fixture("roots.lexc"), read_fixture("affixes.lexc")
    synth = inputs.write_synth_grammar(1, tmp_path / "synth").files
    compounding = affixes.replace("LEXICON N_RADIO\n",
                                  "LEXICON N_RADIO\n+Cmp: Root ;\n")
    assert compounding != affixes
    return [("fixture", [roots, affixes], 60),
            ("synth", [synth["roots.lexc"].read_text(encoding="utf-8"),
                       affixes], 60),
            ("compounding", [roots, compounding], 24)]


@pytest.mark.parametrize("mode", lookup.MODES)
def test_generator_keeps_the_relation_of_the_unminimized_build(tmp_path,
                                                                mode):
    """The generator that build_pipeline stores, minimized twice over,
    has the relation of the lexicon's arc chains composed with the rules
    and relabelled, with nothing minimized."""
    for name, texts, max_len in differential_grammars(tmp_path):
        table = SymbolTable()
        ast = lexc.parse_lexc([(None, t) for t in texts], table)
        ruleset = twol.parse_twol(read_fixture("phonology.twol"), table)
        orthography = lookup.parse_orthography_file(
            read_fixture("orthography.tsv"), table)
        want = twol.apply_rules(chain_lexicon(ast), ruleset)
        if mode == "normative":
            want = fst.relabel(want, orthography, "output")
        got = lookup.build_pipeline(ast, ruleset, mode, orthography).generator
        assert got.num_states < want.num_states, name
        want_paths = fst.enumerate_paths(want, max_len, 10**6)
        got_paths = fst.enumerate_paths(got, max_len, 10**6)
        assert got_paths.pairs == want_paths.pairs, name
        assert got_paths.truncated == want_paths.truncated \
            == (name == "compounding"), name
        assert len(got_paths.pairs) > 10, name


def test_generator_is_the_reference_build_on_the_shipped_grammars(tmp_path):
    for name, texts, _ in differential_grammars(tmp_path):
        table = SymbolTable()
        ast = lexc.parse_lexc([(None, t) for t in texts], table)
        ruleset = twol.parse_twol(read_fixture("phonology.twol"), table)
        assert assert_generator_is_the_reference(ast, ruleset, name)


# ---------------------------------------------------------------------------
# the orthography and relax maps


def letter_ids(ruleset):
    return sorted({x for pair in ruleset.alphabet.pairs for x in pair}
                  - {EPSILON_ID})


def random_orthography(rng, letters):
    """{pedagogical id: [normative id]} as parse_orthography_file reads
    one: one row per key, and no normative letter is also a key."""
    keys = rng.sample(letters, rng.randint(1, len(letters) - 1))
    normative = [x for x in letters if x not in keys]
    return {k: [rng.choice(normative)] for k in keys}


def random_relax(rng, ruleset, orthography):
    """{strict id: [variant ids]}, EPSILON_ID (a '0' row) among them, but
    not for a letter that an insertion pair writes, in either spelling:
    that would put a cycle of epsilon-input arcs into the relaxed
    analyzer, whose walk is exponential in the length of such runs
    (ROADMAP item 9)."""
    letters = letter_ids(ruleset)
    inserted = {s for l, s in ruleset.alphabet.pairs if l == EPSILON_ID}
    inserted |= {v for k in inserted for v in orthography.get(k, ())}

    def variants(k):
        pool = [x for x in letters if x != k]
        return pool if k in inserted else pool + [EPSILON_ID]

    return {k: rng.sample(variants(k), rng.randint(1, 2))
            for k in rng.sample(letters, rng.randint(1, len(letters)))}


def spellings(surface, choices):
    """Every string read with one of choices(c) in place of each symbol c
    of surface, the deletions dropped."""
    return {tuple(x for x in combo if x != EPSILON_ID)
            for combo in itertools.product(*map(choices, surface))}


def test_normative_generator_is_the_oracle_rewritten_by_the_map():
    rng = random.Random(3004)
    generated_any = 0
    for _ in range(MAP_CASES):
        ruleset, ast = random_grammar(rng)
        letters = letter_ids(ruleset)
        orthography = random_orthography(rng, letters)
        expected = [{tuple(orthography.get(c, [c])[0] for c in surface)
                     for surface in oracle_surfaces(ruleset, e.surface)}
                    for e in ast.root]
        try:
            pipe = lookup.build_pipeline(ast, ruleset, "normative",
                                         orthography)
        except PipelineError:  # the generator relation is empty
            assert not any(expected), ruleset
            continue
        for e, surfaces in zip(ast.root, expected):
            got = generated_surfaces(pipe, e.analysis, letters,
                                     len(e.surface) + SLACK)
            assert got == surfaces, (ruleset, orthography, e.analysis)
            generated_any += bool(got)
    assert generated_any > MAP_CASES


def test_relaxed_analysis_reads_every_variant_back_to_the_word():
    """In pedagogical mode, with a random orthography in most draws, the
    analyzer reads each oracle surface with any of its letters in
    either spelling.  Every variant that the relax map allows on top of
    those reads back to the word, flagged relaxed, unless some word
    generates it strictly: then it gets exactly the strict readings."""
    rng = random.Random(3005)
    seen = {"strict": 0, "relaxed": 0, "normative": 0}
    for _ in range(MAP_CASES):
        ruleset, ast = random_grammar(rng)
        table = ruleset.table
        letters = letter_ids(ruleset)
        orthography = (random_orthography(rng, letters)
                       if rng.random() < 0.75 else {})
        relax = random_relax(rng, ruleset, orthography)
        try:
            pipe = lookup.build_pipeline(ast, ruleset, "pedagogical",
                                         orthography, relax)
        except PipelineError:  # the generator relation is empty
            continue

        def strict_choices(c):
            return [c, *orthography.get(c, ())]

        def relaxed_choices(c):
            return {v for x in strict_choices(c)
                    for v in (x, *relax.get(x, ()))}

        longest = max(len(e.surface) for e in ast.root) + SLACK
        strict, allowed = {}, {}
        for e in ast.root:
            analysis = table.render(e.analysis)
            for surface in oracle_surfaces(ruleset, e.surface, longest):
                for t in spellings(surface, strict_choices):
                    strict.setdefault(t, set()).add(analysis)
            for surface in oracle_surfaces(ruleset, e.surface):
                for t in spellings(surface, relaxed_choices):
                    allowed.setdefault(t, set()).add(analysis)
        for t, words in sorted(allowed.items()):
            readings = lookup.analyze(pipe, table.render(t))
            texts = {a.text for a in readings}
            where = (ruleset, orthography, relax, t)
            if t in strict:
                assert texts == strict[t], where
                assert not any(a.relaxed for a in readings), where
                seen["strict"] += 1
                seen["normative"] += any(
                    [x] in orthography.values() for x in t)
            else:
                assert words <= texts, where
                assert all(a.relaxed for a in readings), where
                seen["relaxed"] += 1
    assert min(seen.values()) > MAP_CASES, seen
