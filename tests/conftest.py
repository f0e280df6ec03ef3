import pathlib
import random

import pytest

from fstmorph import fst, lexc, lookup, twol
from fstmorph.errors import UnknownSymbolError
from fstmorph.symbols import EPSILON_ID, SymbolTable, _scan, nfc

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


LONG_ROOT = "b" * 205  # a word of more than 200 symbols


def long_root_roots():
    """The fixture's roots.lexc with a LONG_ROOT noun under N_RADIO."""
    return read_fixture("roots.lexc").replace(
        "LEXICON Root\n",
        f"LEXICON Root\n{LONG_ROOT}+N:{LONG_ROOT} N_RADIO ;\n")


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
# plain references for the library's indexed paths

def reference_tokenize(table, text, intern_new=True):
    """SymbolTable.tokenize without its first-code-point index: at each
    position every length from the longest declared content down to 2
    is probed, then the code point alone."""
    chars = _scan(nfc(text))
    if len(chars) == 1 and chars[0] == ("0", False):
        return []
    content = "".join(ch for ch, _ in chars)
    contents = table._contents
    max_len = max(map(len, contents), default=1)
    out = []
    i = 0
    n = len(content)
    while i < n:
        match_id = None
        for length in range(min(max_len, n - i), 1, -1):
            cand = contents.get(content[i : i + length])
            if cand is not None:
                match_id = cand
                i += length
                break
        if match_id is None:
            ch = content[i]
            single = contents.get(ch)
            if single is not None:
                match_id = single
            elif ch in table._index:
                match_id = table._index[ch]
            elif intern_new:
                match_id = table.intern(ch).id
            else:
                raise UnknownSymbolError(f"character {ch!r} not in alphabet")
            i += 1
        out.append(match_id)
    symbols = table.symbols()
    return [symbols[sid] for sid in out]


def string_pair(table, in_ids, out_ids):
    """Single-path transducer mapping in_ids to out_ids.  Unequal
    lengths are padded with epsilon on the shorter side, left-aligned
    (symbols consumed in lockstep from the start)."""
    n = max(len(in_ids), len(out_ids))
    arcs = []
    for k in range(n):
        i = in_ids[k] if k < len(in_ids) else EPSILON_ID
        o = out_ids[k] if k < len(out_ids) else EPSILON_ID
        arcs.append((k, i, o, k + 1))
    return fst.Transducer(table, n + 1, 0, {n}, arcs)


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


def arcs_by_state(machine):
    """Per-state lists of machine's arcs in arc order, read from its
    arcs alone, so a reference does not lean on the index it checks."""
    adj = [[] for _ in range(machine.num_states)]
    for arc in machine.arcs:
        adj[arc[0]].append(arc)
    return adj


def language(a, max_len):
    """Set of accepted strings (id tuples) up to max_len; acceptors only."""
    d = fst.determinize(a)
    adj = arcs_by_state(d)
    out = set()
    stack = [(d.start, ())]
    while stack:
        state, s = stack.pop()
        if state in d.finals:
            out.add(s)
        if len(s) == max_len:
            continue
        for _, i, _, dst in adj[state]:
            stack.append((dst, s + (i,)))
    return out


def equivalent_acceptors(a, b, max_len=8):
    """Exact language equivalence for acceptors (difference-emptiness);
    bounded path-set comparison otherwise."""
    fst._check_tables(a, b)
    if a.is_acceptor() and b.is_acceptor():
        sigma = (a.input_labels() | a.output_labels()
                 | b.input_labels() | b.output_labels())
        return fst.is_empty(fst.difference(a, b, sigma)) and fst.is_empty(
            fst.difference(b, a, sigma))
    pa = fst.enumerate_paths(a, max_len, 1_000_000)
    pb = fst.enumerate_paths(b, max_len, 1_000_000)
    return set(pa.pairs) == set(pb.pairs)


def contlex_cycles(ast):
    """Cycles in a lexicon AST's continuation graph (legal: compounding),
    as name lists."""
    graph = {
        name: {e.contlex for e in entries if e.contlex != lexc.END}
        for name, entries in ast.lexicons.items()
    }
    cycles = []
    color = {}

    def visit(node, path):
        color[node] = "grey"
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color.get(nxt) == "grey":
                cycles.append(path[path.index(nxt):] + [nxt])
            elif nxt not in color:
                visit(nxt, path)
        path.pop()
        color[node] = "black"

    visit("Root", [])
    return cycles


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


def chain_lexicon(ast):
    """The lexicon as lexc.compile_lexicon builds it before minimizing:
    one sub-network per lexicon, each entry an analysis:surface arc
    chain with an epsilon arc into its continuation; not trimmed."""
    state_of = {name: k for k, name in enumerate([*ast.lexicons, lexc.END])}
    num = len(state_of)
    arcs = []
    for name, entries in ast.lexicons.items():
        for e in entries:
            cur = state_of[name]
            for k in range(max(len(e.analysis), len(e.surface))):
                i = e.analysis[k] if k < len(e.analysis) else EPSILON_ID
                o = e.surface[k] if k < len(e.surface) else EPSILON_ID
                arcs.append((cur, i, o, num))
                cur, num = num, num + 1
            arcs.append((cur, EPSILON_ID, EPSILON_ID, state_of[e.contlex]))
    return fst.Transducer(ast.table, num, state_of["Root"],
                          {state_of[lexc.END]}, arcs)


def pairs_to_transducer(acceptor, table):
    """An acceptor over pair symbols read as a transducer: each pair arc
    becomes an arc from its lexical to its surface side."""
    arcs = []
    for src, i, o, dst in acceptor.arcs:
        assert i == o, "pair acceptor expected (in == out)"
        l, s = table.pair_parts(i) if i != EPSILON_ID else (i, i)
        arcs.append((src, l, s, dst))
    return fst.Transducer(table, acceptor.num_states, acceptor.start,
                          acceptor.finals, arcs)


def reference_apply_rules(lexicon, ruleset):
    """The generator built in stages, a reference for twol.apply_rules,
    which builds it in one product.  The lexicon's output side,
    minimized, with each arc put once per feasible pair over its symbol
    and the insertion pairs looping at every state, is the pair domain;
    it and the compiled rules are intersected left to right, and the
    result, read as a transducer, is composed after the lexicon."""
    table = ruleset.table
    stems = fst.minimize(fst.project(lexicon, side="output"))
    by_lex = {}  # lexical symbol: the pairs over it
    for pid in ruleset.alphabet.pair_ids():
        by_lex.setdefault(table.pair_parts(pid)[0], []).append(pid)
    insertions = by_lex.pop(EPSILON_ID, [])
    arcs = [(src, pid, pid, dst) for src, i, _, dst in stems.arcs
            for pid in by_lex.get(i, ())]
    arcs += [(q, pid, pid, q) for q in range(stems.num_states)
             for pid in insertions]
    acc = fst.Transducer(table, stems.num_states, stems.start, stems.finals,
                         arcs)
    for rule in ruleset.rules:
        acc = fst.intersect(acc, twol.compile_rule(rule, ruleset))
    return fst.compose(lexicon, pairs_to_transducer(acc, table))


def mapping_transducer(table, alphabet_ids, mapping, keep_original):
    """One-state transducer: identity over alphabet_ids except that each
    key of mapping, {symbol: [variants]}, rewrites to its variants (and,
    if keep_original, may also stay put).  A variant of EPSILON_ID
    deletes the key.  Composing with it is the reference for
    fst.relabel."""
    arcs = []
    for key, variants in mapping.items():
        arcs += [(0, key, v, 0) for v in variants]
        if keep_original:
            arcs.append((0, key, key, 0))
    mapped = {v for variants in mapping.values() for v in variants}
    for sid in set(alphabet_ids) | mapped:
        if sid != EPSILON_ID and sid not in mapping:
            arcs.append((0, sid, sid, 0))
    return fst.Transducer(table, 1, 0, {0}, arcs)


def composed_relabel(machine, mapping, side, keep=False):
    """The composition that fst.relabel(machine, mapping, side, keep)
    stands for: the mapping transducer over machine's labels on side
    composed after machine (output side) or inverted before it (input
    side)."""
    labels = (machine.input_labels() if side == "input"
              else machine.output_labels())
    mapper = mapping_transducer(machine.table, labels, mapping, keep)
    if side == "input":
        return fst.compose(fst.invert(mapper), machine)
    return fst.compose(machine, mapper)


def random_ruleset(rng, num_rules=1, num_letters=3, num_contexts=(1, 2),
                   set_sides=False, dead_atoms=False, infeasible_center=False):
    """A small random rule set built directly as an AST; each rule has
    between num_contexts[0] and num_contexts[1] contexts.

    The keyword options widen the draw; left off, they draw nothing, so
    a seed gives the same rule set as without them.  set_sides makes
    some atom sides a frozenset of letters, as a parsed set name does;
    dead_atoms puts in atoms that match no feasible pair; and
    infeasible_center makes the first rule a `<=` rule whose center is
    not a feasible pair, which the parser allows."""
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
    sides = letters + [EPSILON_ID]
    infeasible = [(l, s) for l in sides for s in sides
                  if (l, s) not in pairs]

    def widen(side):
        """side, or under set_sides at times a set of letters holding it"""
        if not set_sides or side in (None, EPSILON_ID) or rng.random() < 0.5:
            return side
        return frozenset(rng.sample(letters, rng.randint(1, num_letters))
                         + [side])

    def random_atom():
        if dead_atoms and rng.random() < 0.15:
            return twol.Atom(*rng.choice(infeasible))
        r = rng.random()
        if r < 0.3:
            return twol.Atom(None, None)  # wildcard
        pair = rng.choice(pairs)
        if r < 0.5:
            return twol.Atom(widen(pair[0]), None)
        if r < 0.7:
            return twol.Atom(None, widen(pair[1]))
        return twol.Atom(widen(pair[0]), widen(pair[1]))

    def random_regex(depth=0):
        atoms = []
        for _ in range(rng.randint(0, 2)):
            node = random_atom()
            r = rng.random()
            if r < 0.2:
                node = twol.Star(node)
            elif r < 0.3:
                node = twol.Alt((node, twol.EPSILON_RE))
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
    if infeasible_center:
        rules[0] = twol.TwolRule("r0", rng.choice(infeasible), "<=",
                                 rules[0].contexts)
    return twol.RuleSet(alphabet, {}, rules)


def random_pair_string(ruleset, rng, max_len=6):
    return [rng.choice(ruleset.alphabet.pairs)
            for _ in range(rng.randint(0, max_len))]


def eps_closure(adj, states):
    """The states reachable from states over epsilon arcs, as a frozenset;
    adj holds each state's arcs, as arcs_by_state gives them."""
    seen = set(states)
    stack = list(states)
    while stack:
        for _, i, _, d in adj[stack.pop()]:
            if i == EPSILON_ID and d not in seen:
                seen.add(d)
                stack.append(d)
    return frozenset(seen)


def accepts(acceptor, pair_ids_seq):
    """NFA acceptance of a symbol-id sequence (acceptor arcs, with eps)."""
    if acceptor.num_states == 0:
        return False
    adj = arcs_by_state(acceptor)
    current = eps_closure(adj, {acceptor.start})
    for sym in pair_ids_seq:
        nxt = {d for s in current for _, i, _, d in adj[s] if i == sym}
        current = eps_closure(adj, nxt)
        if not current:
            return False
    return bool(current & acceptor.finals)


def reference_determinize(a):
    """The subset construction over frozenset subsets of important
    states, a reference for fst.determinize, which keys them as
    bitmasks: it must give the same machine, arc for arc."""
    important = set(a.finals)
    important.update(s for s, i, _, _ in a.arcs if i != EPSILON_ID)
    adj = arcs_by_state(a)
    closure_of = [None] * a.num_states  # per-state closure, computed once

    def closure(states):
        out = set()
        for s in states:
            c = closure_of[s]
            if c is None:
                c = closure_of[s] = eps_closure(adj, {s}) & important
            out |= c
        return frozenset(out)

    def expand(cur):
        moves = {}
        for s in cur:
            for _, i, _, d in adj[s]:
                if i != EPSILON_ID:
                    moves.setdefault(i, set()).add(d)
        return (bool(cur & a.finals),
                [(lab, lab, closure(moves[lab])) for lab in sorted(moves)])

    n, finals, arcs = fst._explore(closure({a.start}), expand)
    return fst._trim(a.table, n, 0, finals, arcs, deterministic=True)


def reverse(a):
    """The reversal of a: arcs turned round, a fresh start state with an
    epsilon arc to each final, the old start the one final; trimmed."""
    arcs = [(d + 1, i, o, s + 1) for s, i, o, d in a.arcs]
    arcs += [(0, EPSILON_ID, EPSILON_ID, f + 1) for f in a.finals]
    return fst._trim(a.table, a.num_states + 1, 0, {a.start + 1}, arcs)


def reversed_combine(ruleset):
    """The rule combination built the other way round, a reference for
    twol.combine_rules: the left fold of the reversed compiled rules,
    reversed back and determinized.  With two or more rules the fold
    ends in an accessible DFA, so by Brzozowski's theorem the result is
    the minimal DFA of the rules' intersection, canonically numbered;
    one rule reversed twice determinizes back to itself."""
    machines = [reverse(twol.compile_rule(r, ruleset))
                for r in ruleset.rules]
    acc = machines[0]
    for m in machines[1:]:
        acc = fst.intersect(acc, m)
    return fst.determinize(reverse(acc))


def reference_regex(node, ruleset):
    """A context regex as an acceptor over the feasible pair ids."""
    table, alphabet = ruleset.table, ruleset.alphabet
    if isinstance(node, twol.Atom):
        pids = [alphabet.pair_id(*pair) for pair in alphabet.pairs
                if twol._matches(node, pair)]
        if not pids:
            return fst.empty(table)
        return fst.symbol_set_acceptor(table, pids)
    if isinstance(node, twol.Seq):
        acc = fst.epsilon_machine(table)
        for item in node.items:
            acc = fst.concat(acc, reference_regex(item, ruleset))
        return acc
    if isinstance(node, twol.Alt):
        acc = fst.empty(table)
        for item in node.items:
            acc = fst.union(acc, reference_regex(item, ruleset))
        return acc
    return fst.star(reference_regex(node.item, ruleset))


def reference_compile_rule(rule, ruleset):
    """The rule compiled over the whole pair alphabet, a reference for
    twol.compile_rule, which compiles over the rule's own classes of
    pairs: the same construction, so it must give the same machine, arc
    for arc."""
    table, alphabet = ruleset.table, ruleset.alphabet
    pids = alphabet.pair_ids()
    a, b = rule.center
    pi_star = fst.sigma_star(table, pids)
    sides = [(fst.concat(pi_star, reference_regex(left, ruleset)),
              fst.concat(reference_regex(right, ruleset), pi_star))
             for left, right in rule.contexts]

    def in_context(center_fst):
        acc = fst.empty(table)
        for pre, suf in sides:
            acc = fst.union(acc, fst.concat(fst.concat(pre, center_fst), suf))
        return acc

    viol = fst.empty(table)
    if rule.op in ("=>", "<=>"):
        marked = fst.string_acceptor(
            table, [twol.MARKER, alphabet.pair_id(a, b), twol.MARKER])
        unlicensed = fst.difference(
            fst.concat(fst.concat(pi_star, marked), pi_star),
            in_context(marked), pids + [twol.MARKER])
        viol = fst.Transducer(table, unlicensed.num_states, unlicensed.start,
                              unlicensed.finals,
                              [(src, EPSILON_ID, EPSILON_ID, dst)
                               if i == twol.MARKER else (src, i, o, dst)
                               for src, i, o, dst in unlicensed.arcs])
    if rule.op in ("<=", "<=>"):
        wrong = [alphabet.pair_id(l, s) for l, s in alphabet.pairs
                 if l == a and s != b]
        viol = fst.union(
            viol, in_context(fst.symbol_set_acceptor(table, wrong)))
    if rule.op == "/<=":
        viol = in_context(
            fst.symbol_set_acceptor(table, [alphabet.pair_id(a, b)]))
    return fst.minimize(fst.complement(viol, pids))


def same_machine(a, b):
    """Equal state for state and arc for arc."""
    return ((a.num_states, a.start, a.finals, a.arcs)
            == (b.num_states, b.start, b.finals, b.arcs))
