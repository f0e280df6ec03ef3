"""Checkers that compare fstmorph's outputs with the benchmark's oracle.

Each returns True when the output is correct; the self-tests in
test_bench_checks.py feed each one a deliberately broken output.
"""

from __future__ import annotations

import random


def generate_ok(forms, case):
    """Apply-down must give exactly the gold surface set."""
    return set(forms) == case.surfaces


def analyze_ok(readings, analyses):
    """Apply-up must include every gold analysis of the surface among its
    readings, none of them relaxed."""
    strict = {r.text for r in readings if not r.relaxed}
    return bool(readings) and len(strict) == len(readings) \
        and analyses <= strict


def relaxed_ok(readings, analysis):
    """A misspelling must reach its analysis through the relaxed fallback."""
    return any(r.text == analysis and r.relaxed for r in readings)


def cli_failures(words, gold, output):
    """Check ``fstmorph lookup --direction up`` output.

    words: the input lines, no two neighbours equal; gold: surface -> set
    of gold analyses.  Every input word must get its lines in input order
    and those lines must name all of its gold analyses.  Returns the
    number of words that failed (a word missing from the output counts,
    and so does every line left over).
    """
    lines = [ln.split("\t", 1) for ln in output.splitlines() if ln]
    failed = 0
    pos = 0
    for word in words:
        results = []
        while pos < len(lines) and lines[pos][0] == word:
            results.append(lines[pos][1] if len(lines[pos]) == 2 else "")
            pos += 1
        if not gold[word] <= set(results):
            failed += 1
    return failed + (len(lines) - pos)


def accepts(dfa_delta, finals, start, word):
    """Acceptance of a pair-symbol string by a deterministic acceptor given
    as {(state, label): dst}."""
    state = start
    for label in word:
        state = dfa_delta.get((state, label))
        if state is None:
            return False
    return state in finals


def sample_strings(delta, finals, start, labels, rng, count, max_len=12):
    """Seeded probe strings for an acceptor: uniform random strings over
    the labels, random walks through the acceptor (mostly accepted), and
    each walk with one position replaced (near misses)."""
    out_arcs = {}
    for (src, label), dst in delta.items():
        out_arcs.setdefault(src, []).append((label, dst))
    for arcs in out_arcs.values():
        arcs.sort()
    strings = []
    for _ in range(count):
        strings.append(tuple(rng.choice(labels)
                             for _ in range(rng.randint(0, max_len))))
    walks = 0
    while walks < count:
        state, word = start, []
        while len(word) < max_len:
            if state in finals and rng.random() < 0.25:
                break
            arcs = out_arcs.get(state)
            if not arcs:
                break
            label, state = rng.choice(arcs)
            word.append(label)
        if state not in finals:
            continue
        walks += 1
        strings.append(tuple(word))
        if word:
            k = rng.randrange(len(word))
            word[k] = rng.choice(labels)
            strings.append(tuple(word))
    return strings


def combined_mismatches(acceptor, rules, ruleset, seed, count):
    """Probe strings on which the acceptor's verdict differs from
    all(twol.check_rule(r, s, ruleset) for r in rules).

    acceptor: deterministic acceptor over pair symbols (the result of
    twol.combine_rules).  Returns (number of strings probed, mismatches).
    """
    from fstmorph import twol

    table = ruleset.table
    delta = {(src, i): dst for src, i, _, dst in acceptor.arcs}
    if len(delta) != len(acceptor.arcs):
        raise ValueError("combined rule acceptor is not deterministic")
    labels = sorted(ruleset.alphabet.pair_ids())
    rng = random.Random(seed)
    probes = sample_strings(delta, acceptor.finals, acceptor.start, labels,
                            rng, count)
    bad = 0
    for word in probes:
        pairs = [table.pair_parts(pid) for pid in word]
        expect = all(twol.check_rule(r, pairs, ruleset) for r in rules)
        if accepts(delta, acceptor.finals, acceptor.start, word) != expect:
            bad += 1
    return len(probes), bad
