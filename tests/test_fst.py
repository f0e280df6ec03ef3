import itertools
import random

import pytest

from fstmorph import fst, twol
from fstmorph.errors import NotAnAcceptorError
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import (accepts, equivalent_acceptors, language,
                      random_acceptor, random_transducer,
                      reference_determinize, same_machine)


@pytest.fixture
def table():
    t = SymbolTable()
    for c in "abcd":
        t.intern(c)
    return t


def ids(table, text):
    return [s.id for s in table.tokenize(text)]


def relation(machine, max_len=8, max_count=2000):
    paths = fst.enumerate_paths(machine, max_len, max_count)
    return {(p[0], p[1]) for p in paths.pairs}


# ---------------------------------------------------------------------------
# constructors and rational operations

def test_string_pair_left_aligned_padding(table):
    t = fst.string_pair(table, ids(table, "abc"), ids(table, "a"))
    rel = relation(t)
    assert rel == {(tuple(ids(table, "abc")), tuple(ids(table, "a")))}


def test_union_concat_star(table):
    a = fst.string_acceptor(table, ids(table, "a"))
    b = fst.string_acceptor(table, ids(table, "b"))
    u = fst.union(a, b)
    assert language(u, 3) == {tuple(ids(table, "a")),
                                  tuple(ids(table, "b"))}
    c = fst.concat(a, b)
    assert language(c, 3) == {tuple(ids(table, "ab"))}
    s = fst.star(a)
    assert language(s, 3) == {(), tuple(ids(table, "a")),
                                  tuple(ids(table, "aa")),
                                  tuple(ids(table, "aaa"))}


def test_compose_basic(table):
    a, b, c = ids(table, "abc")
    ab = fst._trim(table, 2, 0, {1}, [(0, a, b, 1)])
    bc = fst._trim(table, 2, 0, {1}, [(0, b, c, 1)])
    assert relation(fst.compose(ab, bc)) == {((a,), (c,))}


def test_compose_epsilon_no_duplication(table):
    a, d = ids(table, "ad")
    del_a = fst._trim(table, 2, 0, {1}, [(0, a, EPSILON_ID, 1)])
    ins_d = fst._trim(table, 2, 0, {1}, [(0, EPSILON_ID, d, 1)])
    rel = relation(fst.compose(del_a, ins_d))
    assert rel == {((a,), (d,))}


def test_compose_oracle_random_transducers(table):
    """Path enumeration of compose(a, b) must equal the brute-force
    relational join of the two path sets.  Acyclic machines keep the
    enumeration exhaustive; epsilon arcs are included by construction."""
    sym_ids = ids(table, "ab")
    rng = random.Random(42)
    for _ in range(200):
        a = random_transducer(table, sym_ids, rng, acyclic=True)
        b = random_transducer(table, sym_ids, rng, acyclic=True)
        composed = relation(fst.compose(a, b), max_len=20, max_count=100000)
        ra = relation(a, max_len=20, max_count=100000)
        rb = relation(b, max_len=20, max_count=100000)
        joined = {(x, z) for x, y in ra for y2, z in rb if y == y2}
        assert composed == joined


# ---------------------------------------------------------------------------
# acceptor algebra

def test_determinize_minimize_preserve_language(table):
    sym_ids = ids(table, "abc")
    rng = random.Random(7)
    for _ in range(100):
        a = random_acceptor(table, sym_ids, rng)
        lang = language(a, 8)
        d = fst.determinize(a)
        m = fst.minimize(a)
        assert language(d, 8) == lang
        assert language(m, 8) == lang
        # determinism: at most one arc per (state, symbol), no epsilon
        seen = set()
        for src, i, _, _ in d.arcs:
            assert i != EPSILON_ID
            assert (src, i) not in seen
            seen.add((src, i))


def test_minimize_canonical(table):
    """Equal-language machines minimize to identical state counts."""
    sym_ids = ids(table, "ab")
    rng = random.Random(3)
    for _ in range(100):
        a = random_acceptor(table, sym_ids, rng)
        variant = fst.determinize(fst.reverse(fst.determinize(fst.reverse(a))))
        m1 = fst.minimize(a)
        m2 = fst.minimize(variant)
        assert m1.num_states == m2.num_states
        assert fst.minimize(m1).num_states == m1.num_states


def test_complement_and_intersect(table):
    sym_ids = ids(table, "ab")
    rng = random.Random(11)
    for _ in range(50):
        a = random_acceptor(table, sym_ids, rng)
        comp = fst.complement(a, sym_ids)
        assert fst.is_empty(fst.intersect(a, comp))
        lang = language(a, 4)
        comp_lang = language(comp, 4)
        full = set()
        for n in range(5):
            full |= set(itertools.product(sym_ids, repeat=n))
        assert lang | comp_lang == full
        assert not lang & comp_lang


def test_complement_is_sigma_star_minus_the_language(table):
    # arcs of a on labels outside the alphabet lead nowhere in the result
    a, x = ids(table, "ab")
    only_xa = fst.string_acceptor(table, [x, a])
    comp = fst.complement(only_xa, [a])
    assert language(comp, 4) == {(a,) * n for n in range(5)}
    sym_ids = ids(table, "abc")
    alphabet = sym_ids[:2]
    full = {w for n in range(5)
            for w in itertools.product(alphabet, repeat=n)}
    rng = random.Random(13)
    for _ in range(100):
        m = random_acceptor(table, sym_ids, rng)
        comp = fst.complement(m, alphabet)
        assert language(comp, 4) == full - language(m, 4)


def test_difference_and_equivalence(table):
    a = fst.string_acceptor(table, ids(table, "ab"))
    b = fst.union(a, fst.string_acceptor(table, ids(table, "b")))
    assert fst.is_empty(fst.difference(a, b, ids(table, "ab")))
    assert not fst.is_empty(fst.difference(b, a, ids(table, "ab")))
    assert not equivalent_acceptors(a, b)
    assert equivalent_acceptors(b, fst.minimize(b))


def test_brzozowski_determinize_of_reverse_is_minimal(table):
    """determinize(reverse(d)) of an accessible DFA d is the minimal DFA
    of the reversed language, because subsets keep important states
    only; the reversed_combine reference in conftest relies on this."""
    sym_ids = ids(table, "abc")
    rng = random.Random(5)
    for _ in range(300):
        a = random_acceptor(table, sym_ids, rng)
        brz = fst.determinize(fst.reverse(fst.minimize(a)))
        m = fst.minimize(fst.reverse(a))
        assert (brz.num_states, brz.start, brz.finals, brz.arcs) == \
            (m.num_states, m.start, m.finals, m.arcs)


def pair_product(a, b):
    """The pair product of the DFAs of a and b over the pairs reachable
    from their starts, from their arcs alone and not trimmed."""
    da, db = fst.determinize(a), fst.determinize(b)
    step_b = {(s, i): d for s, i, _, d in db.arcs}
    index = {(da.start, db.start): 0}
    queue = [(da.start, db.start)]
    arcs = []
    for p, q in queue:  # grows while it is walked
        for _, i, _, t in da.arcs_from(p):
            if (q, i) in step_b:
                nxt = (t, step_b[q, i])
                if nxt not in index:
                    index[nxt] = len(queue)
                    queue.append(nxt)
                arcs.append((index[p, q], i, i, index[nxt]))
    finals = {k for (p, q), k in index.items()
              if p in da.finals and q in db.finals}
    return fst.Transducer(a.table, len(queue), 0, finals, arcs)


def brzozowski(t):
    return fst.determinize(fst.reverse(fst.determinize(fst.reverse(t))))


def test_intersect_is_the_minimal_pair_product(table, fixture_parsed):
    """intersect refines the raw product, dead states and all; it must
    give exactly the minimal DFA that Brzozowski's construction builds
    from the same product."""
    sym_ids = ids(table, "abc")
    rng = random.Random(37)
    pairs = [(random_acceptor(table, sym_ids, rng, max_states=6, max_arcs=14),
              random_acceptor(table, sym_ids, rng, max_states=6, max_arcs=14))
             for _ in range(300)]
    _, _, ruleset = fixture_parsed
    rules = [twol.compile_rule(r, ruleset) for r in ruleset.rules]
    pairs += zip(rules, rules[1:] + rules[:1])
    with_dead = 0
    for a, b in pairs:
        product = pair_product(a, b)
        if a.table is table:  # the random pairs: small enough to count
            live = set(product.finals)
            for f in product.finals:
                live |= reachable(f, [(d, i, o, s)
                                      for s, i, o, d in product.arcs])
            with_dead += len(live) < product.num_states
        want, got = brzozowski(product), fst.intersect(a, b)
        assert (got.num_states, got.start, got.finals, got.arcs) == \
            (want.num_states, want.start, want.finals, want.arcs)
    assert with_dead >= 100  # 203 of the 300 random products have some


def residual_count(d, sym_ids):
    """The number of distinct languages, cut at length num_states, of
    the states of the DFA d: the state count of the minimal DFA, found
    by enumerating words rather than by refining a partition."""
    delta = {(s, i): q for s, i, _, q in d.arcs}
    langs = set()
    for q0 in range(d.num_states):
        words = set()
        frontier = [(q0, ())]
        for k in range(d.num_states + 1):
            nxt = []
            for q, w in frontier:
                if q in d.finals:
                    words.add(w)
                if k < d.num_states:
                    nxt += [(delta[q, c], w + (c,)) for c in sym_ids
                            if (q, c) in delta]
            frontier = nxt
        langs.add(frozenset(words))
    return len(langs)


def test_determinize_matches_the_frozenset_reference(table, fixture_parsed):
    """Bitmask subsets give the machine that frozenset subsets give, on
    random epsilon-NFAs (some past 64 states, so masks pass a machine
    word) and on unflagged copies and reverses of the fixture rules."""
    sym_ids = ids(table, "abc")
    rng = random.Random(53)
    wide = 0
    for k in range(300):
        if k % 3:
            a = random_acceptor(table, sym_ids, rng, max_states=12,
                                max_arcs=24)
        else:  # a chain through every state keeps them all useful
            n = rng.randint(65, 120)
            arcs = [(q, c, c, q + 1) for q in range(n - 1)
                    for c in [rng.choice(sym_ids + [EPSILON_ID])]]
            arcs += [(rng.randrange(n), c, c, rng.randrange(n))
                     for c in rng.choices(sym_ids + [EPSILON_ID], k=n // 4)]
            finals = {n - 1} | {q for q in range(n) if rng.random() < 0.1}
            a = fst._trim(table, n, 0, finals, arcs)
            wide += a.num_states > 64
        assert same_machine(fst.determinize(a), reference_determinize(a))
    assert wide == 100
    _, _, ruleset = fixture_parsed
    for rule in ruleset.rules:
        r = twol.compile_rule(rule, ruleset)
        copy = fst.Transducer(r.table, r.num_states, r.start, r.finals,
                              r.arcs)
        for nfa in (copy, fst.reverse(r)):
            assert same_machine(fst.determinize(nfa),
                                reference_determinize(nfa))


def test_trim_emits_sorted_arcs(table):
    sym_ids = ids(table, "abc")
    rng = random.Random(59)
    for _ in range(200):
        t = random_transducer(table, sym_ids, rng, max_states=8,
                              max_arcs=20)
        assert list(t.arcs) == sorted(t.arcs)


def test_construction_checks_state_bounds(table):
    a = ids(table, "a")[0]
    for start, finals, arcs in ((2, (), ()), (0, {2}, ()),
                                (0, (), [(2, a, a, 0)]),
                                (0, (), [(0, a, a, 1), (1, a, a, 2)])):
        with pytest.raises(AssertionError):
            fst.Transducer(table, 2, start, finals, arcs)


def test_minimize_matches_the_residual_count(table):
    sym_ids = ids(table, "abc")
    rng = random.Random(31)
    for _ in range(300):
        a = random_acceptor(table, sym_ids, rng, max_states=6, max_arcs=14)
        assert fst.minimize(a).num_states == \
            residual_count(fst.determinize(a), sym_ids)


def test_invert_and_reverse_are_involutions(table):
    sym_ids = ids(table, "ab")
    rng = random.Random(17)
    for _ in range(50):
        t = random_transducer(table, sym_ids, rng, acyclic=True)
        rel = relation(t, max_len=10, max_count=100000)
        assert relation(fst.invert(fst.invert(t)), max_len=10,
                        max_count=100000) == rel
        assert relation(fst.invert(t), max_len=10, max_count=100000) == \
            {(o, i) for i, o in rel}
        rev_rel = relation(fst.reverse(t), max_len=10, max_count=100000)
        assert rev_rel == {(i[::-1], o[::-1]) for i, o in rel}


def test_project(table):
    a, b = ids(table, "ab")
    t = fst._trim(table, 2, 0, {1}, [(0, a, b, 1)])
    up = fst.project(t, "input")
    down = fst.project(t, "output")
    assert language(up, 2) == {(a,)}
    assert language(down, 2) == {(b,)}


def test_acceptor_ops_reject_transducers(table):
    a, b = ids(table, "ab")
    t = fst._trim(table, 2, 0, {1}, [(0, a, b, 1)])
    for op in (fst.determinize, fst.minimize):
        with pytest.raises(NotAnAcceptorError):
            op(t)


def test_every_acceptor_op_rejects_an_unflagged_transducer(table):
    a, b = ids(table, "ab")
    t = fst._trim(table, 2, 0, {1}, [(0, a, a, 1), (1, a, b, 1)])
    dfa = fst.minimize(fst.string_acceptor(table, [a]))
    assert not t.deterministic and dfa.deterministic
    ops = [fst.determinize, fst.minimize,
           lambda m: fst.complement(m, [a, b]),
           lambda m: fst.intersect(m, dfa), lambda m: fst.intersect(dfa, m)]
    for op in ops:
        with pytest.raises(NotAnAcceptorError):
            op(t)


# ---------------------------------------------------------------------------
# path enumeration

def test_enumerate_paths_shortlex_and_truncation(table):
    finite = fst.string_acceptor(table, ids(table, "ab"))
    assert not fst.enumerate_paths(finite, 5, 100).truncated

    a = fst.star(fst.string_acceptor(table, ids(table, "a")))
    paths = fst.enumerate_paths(a, 3, 100)
    assert paths.truncated  # infinite language cut off by the length bound
    assert len(paths.pairs) == 4
    lengths = [len(p[0]) for p in paths.pairs]
    assert lengths == sorted(lengths)
    capped = fst.enumerate_paths(a, 100, 5)
    assert capped.truncated
    assert len(capped.pairs) == 5


def test_enumerate_handles_epsilon_cycles(table):
    # epsilon self-loop must not hang enumeration
    a = fst._trim(table, 1, 0, {0}, [(0, EPSILON_ID, EPSILON_ID, 0)])
    paths = fst.enumerate_paths(a, 5, 100)
    assert {(p[0], p[1]) for p in paths.pairs} == {((), ())}


def test_accepts_helper_agrees_with_language(table):
    sym_ids = ids(table, "ab")
    rng = random.Random(23)
    for _ in range(50):
        a = random_acceptor(table, sym_ids, rng)
        lang = language(a, 4)
        for n in range(4):
            for s in itertools.product(sym_ids, repeat=n):
                assert accepts(a, list(s)) == (s in lang)


def with_junk(t, rng):
    """The arcs of t with its states shuffled, some more of its states
    final, plus unreachable states that reach a final and reachable dead
    ends: (n, start, finals, arcs)."""
    n = t.num_states
    junk = rng.randint(1, 4)
    labels = sorted(t.labels()) or [EPSILON_ID]
    arcs = list(t.arcs)
    finals = set(t.finals) | {q for q in range(n) if rng.random() < 0.2}
    for j in range(n, n + junk):
        lab = rng.choice(labels)
        if rng.random() < 0.5:  # unreachable: final, or it leads into t
            if rng.random() < 0.3:
                finals.add(j)
            arcs.append((j, lab, lab, rng.randrange(n + junk)))
        else:  # a dead end hung off t, maybe looping among dead ends
            arcs.append((rng.randrange(n), lab, lab, j))
            arcs.append((j, lab, lab, rng.randrange(n, n + junk)))
    perm = list(range(n + junk))
    rng.shuffle(perm)
    arcs = [(perm[s], i, o, perm[d]) for s, i, o, d in arcs]
    return n + junk, perm[t.start], {perm[f] for f in finals}, arcs


def reachable(start, arcs):
    seen = {start}
    while True:  # a fixed point, independent of _trim's walks
        more = {d for s, _, _, d in arcs if s in seen} - seen
        if not more:
            return seen
        seen |= more


def test_trim_keeps_exactly_the_useful_states(table):
    sym_ids = ids(table, "abc")
    rng = random.Random(17)
    for _ in range(300):
        n, start, finals, arcs = with_junk(
            random_transducer(table, sym_ids, rng, max_states=5), rng)
        forward = reachable(start, arcs)
        backward = set(finals)
        for f in finals:
            backward |= reachable(f, [(d, i, o, s) for s, i, o, d in arcs])
        keep = forward & backward
        t = fst._trim(table, n, start, finals, arcs)
        assert t.start == 0
        assert t.num_states == max(len(keep), 1)
        assert len(t.arcs) == sum(1 for a in arcs
                                  if a[0] in keep and a[3] in keep)
        raw = fst.Transducer(table, n, start, finals, arcs)
        assert relation(t, 2, 100_000) == relation(raw, 2, 100_000)


# ---------------------------------------------------------------------------
# the deterministic flag

def flag_is_exact(t):
    """Does the full subset construction, run on an unflagged copy of a
    flagged machine, give back exactly that machine?"""
    copy = fst.Transducer(t.table, t.num_states, t.start, t.finals, t.arcs)
    d = fst.determinize(copy)
    return (d.num_states, d.start, d.finals, d.arcs) == \
        (t.num_states, t.start, t.finals, t.arcs)


def flagged_outputs(a, b, alphabet):
    outs = [fst.determinize(a), fst.minimize(a), fst.complement(a, alphabet),
            fst.intersect(a, b)]
    outs.append(fst.minimize(fst.intersect(outs[1], fst.minimize(b))))
    outs.append(fst.complement(outs[2], alphabet))
    return outs


def test_flag_marks_exactly_what_determinize_would_build(table):
    sym_ids = ids(table, "abc")
    rng = random.Random(29)
    for _ in range(200):
        a = random_acceptor(table, sym_ids, rng, max_states=7, max_arcs=16)
        b = random_acceptor(table, sym_ids, rng, max_states=7, max_arcs=16)
        assert not a.deterministic
        for t in flagged_outputs(a, b, sym_ids):
            assert t.deterministic
            assert flag_is_exact(t)
            assert fst.determinize(t) is t


def test_flag_is_exact_on_the_fixture_rules(fixture_parsed):
    _, _, ruleset = fixture_parsed
    pids = ruleset.alphabet.pair_ids()
    rules = [twol.compile_rule(r, ruleset) for r in ruleset.rules]
    assert len(rules) == 20
    for r, nxt in zip(rules, rules[1:] + rules[:1]):
        for t in [r] + flagged_outputs(r, nxt, pids):
            assert t.deterministic
            assert flag_is_exact(t)


def test_flag_check_catches_a_machine_flagged_wrongly(table):
    a, b = ids(table, "ab")
    nondeterministic = fst.Transducer(
        table, 2, 0, {1}, [(0, a, a, 0), (0, a, a, 1)], deterministic=True)
    not_bfs_numbered = fst.Transducer(
        table, 3, 0, {1}, [(0, a, a, 2), (2, b, b, 1)], deterministic=True)
    for t in (nondeterministic, not_bfs_numbered):
        assert not flag_is_exact(t)
