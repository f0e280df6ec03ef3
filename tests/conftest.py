import pathlib
import random

import pytest

from fstmorph import fst, lexc, lookup, twol
from fstmorph.symbols import EPSILON_ID, SymbolTable

FIXTURE_DIR = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "fstmorph" / "fixtures" / "sms_mini")

GOLD_FORMS = {
    "algg+N+Sg+Nom": {"algg"},
    "algg+N+Sg+Gen": {"aalǥ"},
    "algg+N+Sg+Acc": {"aalǥ"},
    "algg+N+Sg+Ill": {"aʹlǧǧe"},
    "algg+N+Sg+Loc+PxSg1": {"alǥstan", "aalǥstan"},
    "algg+N+Dimin+Sg+Gen": {"aaʹlje"},
    "veʹrdd+N+Sg+Nom": {"veʹrdd"},
    "veʹrdd+N+Sg+Gen": {"veeʹrd"},
    "veʹrdd+N+Sg+Ill": {"vẹrdda"},
    "veʹrdd+N+Pl+Gen": {"viiʹrdi"},
    "veʹrdd+N+Sg+Loc+PxSg3": {"veʹrdstes"},
    "veʹrdd+N+Dimin+Sg+Nom": {"vẹẹrdaž"},
    "tieʹtted+V+Inf": {"tieʹtted"},
    "tieʹtted+V+Pot+Sg3": {"tieʹđež"},
    "radio+N+Sg+Nom": {"radio"},
    "kueʹtt+N+Sg+Nom": {"kuẹʹtt"},
}


def read_fixture(name):
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fixture_sources():
    return {
        "lexc": [read_fixture("roots.lexc"), read_fixture("affixes.lexc")],
        "twol": read_fixture("phonology.twol"),
        "orthography": read_fixture("orthography.tsv"),
        "relax": read_fixture("relax.tsv"),
        "suite": read_fixture("suite.txt"),
    }


@pytest.fixture(scope="session")
def fixture_parsed(fixture_sources):
    table = SymbolTable()
    ast = lexc.parse_lexc("\n".join(fixture_sources["lexc"]), table)
    ruleset = twol.parse_twol(fixture_sources["twol"], table)
    return table, ast, ruleset


@pytest.fixture(scope="session")
def pipeline(fixture_sources):
    return lookup.load_pipeline(
        fixture_sources["lexc"], fixture_sources["twol"],
        orthography_text=fixture_sources["orthography"],
        relax_text=fixture_sources["relax"])


@pytest.fixture(scope="session")
def normative_pipeline(fixture_sources):
    return lookup.load_pipeline(
        fixture_sources["lexc"], fixture_sources["twol"], mode="normative",
        orthography_text=fixture_sources["orthography"],
        relax_text=fixture_sources["relax"])


# ---------------------------------------------------------------------------
# random machine / rule generators shared by property and acceptance tests

def random_acceptor(table, sym_ids, rng, max_states=5, max_arcs=10):
    n = rng.randint(1, max_states)
    arcs = []
    for _ in range(rng.randint(0, max_arcs)):
        c = rng.choice(sym_ids + [EPSILON_ID])
        arcs.append((rng.randrange(n), c, c, rng.randrange(n)))
    finals = {q for q in range(n) if rng.random() < 0.4}
    return fst._trim(table, n, 0, finals, arcs)


def language(a, max_len):
    """Set of accepted strings (id tuples) up to max_len; acceptors only."""
    d = fst.determinize(a)
    out = set()
    stack = [(d.start, ())]
    while stack:
        state, s = stack.pop()
        if state in d.finals:
            out.add(s)
        if len(s) == max_len:
            continue
        for _, i, _, dst in d.arcs_from(state):
            stack.append((dst, s + (i,)))
    return out


def equivalent_acceptors(a, b, max_len=8):
    """Exact language equivalence for acceptors (difference-emptiness);
    bounded path-set comparison otherwise."""
    fst._check_tables(a, b)
    if a.is_acceptor() and b.is_acceptor():
        sigma = a.labels() | b.labels()
        return fst.is_empty(fst.difference(a, b, sigma)) and fst.is_empty(
            fst.difference(b, a, sigma))
    pa = fst.enumerate_paths(a, max_len, 1_000_000)
    pb = fst.enumerate_paths(b, max_len, 1_000_000)
    return set(pa.pairs) == set(pb.pairs)


def random_transducer(table, sym_ids, rng, max_states=4, max_arcs=8,
                      acyclic=False):
    n = rng.randint(2 if acyclic else 1, max_states)
    arcs = []
    for _ in range(rng.randint(1, max_arcs)):
        i = rng.choice(sym_ids + [EPSILON_ID])
        o = rng.choice(sym_ids + [EPSILON_ID])
        src = rng.randrange(n - 1 if acyclic else n)
        dst = rng.randrange(src + 1, n) if acyclic else rng.randrange(n)
        arcs.append((src, i, o, dst))
    finals = {q for q in range(n) if rng.random() < 0.5}
    return fst._trim(table, n, 0, finals, arcs)


def random_ruleset(rng, num_rules=1, num_letters=3, num_contexts=(1, 2)):
    """A small random rule set built directly as an AST; each rule has
    between num_contexts[0] and num_contexts[1] contexts."""
    table = SymbolTable()
    letters = [table.intern(c).id for c in "abcd"[:num_letters]]
    pairs = [(l, l) for l in letters]
    # a few non-identity pairs, including deletions and insertions
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            p = (rng.choice(letters), rng.choice(letters))
        elif kind < 0.7:
            p = (rng.choice(letters), EPSILON_ID)
        else:
            p = (EPSILON_ID, rng.choice(letters))
        if p[0] != p[1] and p not in pairs:
            pairs.append(p)
    alphabet = twol.FeasiblePairs(table, pairs)

    def random_atom():
        r = rng.random()
        if r < 0.3:
            return twol.Atom(None, None)  # wildcard
        pair = rng.choice(pairs)
        if r < 0.5:
            return twol.Atom(pair[0], None)
        if r < 0.7:
            return twol.Atom(None, pair[1])
        return twol.Atom(pair[0], pair[1])

    def random_regex(depth=0):
        atoms = []
        for _ in range(rng.randint(0, 2)):
            node = random_atom()
            r = rng.random()
            if r < 0.2:
                node = twol.Star(node)
            elif r < 0.3:
                node = twol.Opt(node)
            elif depth == 0 and r < 0.4:
                node = twol.Alt((node, random_regex(1)))
            atoms.append(node)
        return twol.Seq(tuple(atoms))

    rules = []
    non_identity = [p for p in pairs if p[0] != p[1]] or pairs
    for k in range(num_rules):
        center = rng.choice(non_identity)
        op = rng.choice(("=>", "<=", "<=>", "/<="))
        contexts = [(random_regex(), random_regex())
                    for _ in range(rng.randint(*num_contexts))]
        rules.append(twol.TwolRule(f"r{k}", center, op, contexts))
    return twol.RuleSet(alphabet, {}, rules)


def random_pair_string(ruleset, rng, max_len=6):
    return [rng.choice(ruleset.alphabet.pairs)
            for _ in range(rng.randint(0, max_len))]


def eps_closure(acceptor, states):
    """The states reachable from states over epsilon arcs, as a frozenset."""
    seen = set(states)
    stack = list(states)
    while stack:
        for _, i, _, d in acceptor.arcs_from(stack.pop()):
            if i == EPSILON_ID and d not in seen:
                seen.add(d)
                stack.append(d)
    return frozenset(seen)


def accepts(acceptor, pair_ids_seq):
    """NFA acceptance of a symbol-id sequence (acceptor arcs, with eps)."""
    if acceptor.num_states == 0:
        return False
    current = eps_closure(acceptor, {acceptor.start})
    for sym in pair_ids_seq:
        nxt = {d for s in current
               for _, i, _, d in acceptor.arcs_from(s) if i == sym}
        current = eps_closure(acceptor, nxt)
        if not current:
            return False
    return bool(current & acceptor.finals)


def reference_determinize(a):
    """The subset construction over frozenset subsets of important
    states, a reference for fst.determinize, which keys them as
    bitmasks: it must give the same machine, arc for arc."""
    important = set(a.finals)
    important.update(s for s, i, _, _ in a.arcs if i != EPSILON_ID)
    closure_of = [None] * a.num_states  # per-state closure, computed once

    def closure(states):
        out = set()
        for s in states:
            c = closure_of[s]
            if c is None:
                c = closure_of[s] = eps_closure(a, {s}) & important
            out |= c
        return frozenset(out)

    def expand(cur):
        moves = {}
        for s in cur:
            for _, i, _, d in a.arcs_from(s):
                if i != EPSILON_ID:
                    moves.setdefault(i, set()).add(d)
        return (bool(cur & a.finals),
                [(lab, lab, closure(moves[lab])) for lab in sorted(moves)])

    n, finals, arcs = fst._explore(closure({a.start}), expand)
    return fst._trim(a.table, n, 0, finals, arcs, deterministic=True)


def reversed_combine(ruleset):
    """The rule combination built the other way round, a reference for
    twol.combine_rules: the left fold of the reversed compiled rules,
    reversed back and determinized.  With two or more rules the fold
    ends in an accessible DFA, so by Brzozowski's theorem the result is
    the minimal DFA of the rules' intersection, canonically numbered;
    one rule reversed twice determinizes back to itself."""
    machines = [fst.reverse(twol.compile_rule(r, ruleset))
                for r in ruleset.rules]
    acc = machines[0]
    for m in machines[1:]:
        acc = fst.intersect(acc, m)
    return fst.determinize(fst.reverse(acc))


def same_machine(a, b):
    """Equal state for state and arc for arc."""
    return ((a.num_states, a.start, a.finals, a.arcs)
            == (b.num_states, b.start, b.finals, b.arcs))
