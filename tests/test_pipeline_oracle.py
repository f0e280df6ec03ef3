"""The assembled generator against brute-force two-level generation.

For a random rule set (conftest.random_ruleset) and a lexicon of one to
three tagged words, the oracle lists every feasible pair string whose
lexical side is a word, with insertions anywhere, and keeps the surfaces
of the strings that twol.check_rule accepts for every rule.  The
generator that lookup.build_pipeline assembles (lexicon, rule domain,
rule combination, pairs_to_transducer, composition) must give exactly
those surfaces for the word's analysis, up to SLACK symbols longer than
the word.
"""

import random

from fstmorph import fst, lexc, lookup, twol
from fstmorph.errors import PipelineError
from fstmorph.symbols import EPSILON_ID

from conftest import random_ruleset

SLACK = 2
CASES = 300


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


def oracle_surfaces(ruleset, word):
    return {tuple(s for _, s in pairs if s != EPSILON_ID)
            for pairs in pair_strings(ruleset, word, len(word) + SLACK)
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


def test_generator_matches_brute_force_two_level_generation():
    rng = random.Random(3003)
    generated_any = 0
    for _ in range(CASES):
        ruleset = random_ruleset(rng, num_rules=rng.randint(1, 3))
        table = ruleset.table
        letters = sorted({s for _, s in ruleset.alphabet.pairs} - {EPSILON_ID})
        lexical = sorted({l for l, _ in ruleset.alphabet.pairs}
                         - {EPSILON_ID})
        tags = [table.declare_multichar(t).id for t in ("+A", "+B")]
        words = {tuple(rng.choice(lexical) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))}
        entries = [lexc.LexEntry(list(w) + [rng.choice(tags)], list(w),
                                 lexc.END) for w in sorted(words)]
        expected = [oracle_surfaces(ruleset, e.surface) for e in entries]
        ast = lexc.LexiconAst({"Root": entries}, table)
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
