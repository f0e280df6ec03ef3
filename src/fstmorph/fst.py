"""Unweighted finite-state transducers and the algorithm suite.

Transducers are immutable after construction: every operation returns a
fresh machine with deterministically ordered arcs, so identical inputs
give bit-identical results.  The explorers and _minimal return machines
trimmed with BFS state numbering, as do project and expand_labels.
union, concat and star lay the states of their inputs side by side, and
invert and relabel keep the states of theirs; these five trim nothing,
because determinize, compose and att.export_att renumber what they
read.  Arc labels are symbol ids from one shared SymbolTable; id 0 is
epsilon.

A machine carries ``deterministic=True`` only when its construction
guarantees a trimmed, BFS-numbered DFA: the outputs of determinize,
minimize, complement and intersect.  determinize returns such a machine
unchanged, so minimize, complement and intersect skip the subset
construction on inputs that are already DFAs.  That is exact: every
state of a trimmed DFA is important (see determinize), and the subset
construction visits its states from the start in the same BFS order,
one label at a time in sorted order, as _trim numbered them, so it
rebuilds the same states, finals and arcs.

determinize keys each subset on its important states only: the finals
and the states with a non-epsilon arc.  Two subsets that differ only in
pure-epsilon states have the same futures and the same finality, so
merging them loses nothing, and it makes Brzozowski's theorem hold
exactly: determinize(reverse(d)) of an accessible DFA d is minimal.
A subset is a bitmask, a Python int with bit q set for each important
state q in it.  Each state's moves are one {label: mask} map built
before the construction starts, so a subset's moves on a label are the
OR of its members' masks for that label: no set is built, hashed or
closed over epsilon again per subset.

Only determinize checks that its input is an acceptor; minimize,
complement and intersect check through it.  A flagged machine is an
acceptor by construction, so it is returned before any arc is scanned.

Any machine has one per-state arc index, input_index: one {input
label: arcs} dict per state, built on first use and kept.  Its dicts
list a state's arcs in arc order, label by label, so compose,
enumerate_paths, is_empty and the lookup walk (lookup_paths and
_word_coreachable) all read it.  A flagged machine also has transition
maps, one {label: dst} dict per state, built the same way; intersect,
complement, minimize and compose_through read one target per label
from them.

_minimal is the one refine-and-number core.  It takes a reachable DFA
as per-state maps, drops the states that reach no final, refines the
rest with Hopcroft and numbers the quotient through _trim.  Dropping
dead states first is what makes refining a partial DFA exact: with no
sink state, a live state with an arc into a dead state would stay apart
from an equivalent state without that arc.  A missing arc counts in no
predecessor set, so the final and the nonfinal block each split states
the other cannot, and both start in Hopcroft's work set.  minimize is
determinize followed by _minimal.  intersect hands the raw reachable
pair product of its two machines to _minimal without trimming it
first, so it returns the minimal DFA of the intersection; the minimal
DFA is unique and _trim's numbering canonical, so that is the machine
minimize would make of any DFA of the same language.

Which machines are minimal: the outputs of minimize and intersect, as
DFAs, those of expand_labels of a minimal DFA, and those of
encoded_minimize, as transducers.  expand_labels puts each arc on a
label once per symbol of the label's class; twol.compile_rule builds
each rule over its own classes of pairs and expands it so.  encoded_minimize reads each in:out pair as one label,
minimizes that acceptor and decodes it (Mohri 2000), so its result is
the minimal deterministic machine of a transducer's pair strings:
minimal for the alignment of in and out symbols that the paths fix,
which need not be the smallest transducer of the relation.  The lexicon
(lexc.compile_lexicon) and the stored generator (lookup.build_pipeline)
are its outputs.  determinize and complement give DFAs that need not be
minimal; compose, compose_through, relabel, invert, project and the
rational operations minimize nothing.

Every construction that explores its states lazily from a start key
goes through _explore: determinize (subsets), intersect (DFA state
pairs keyed as one int), complement (DFA states and a sink) and
_compose, the one composition core with the epsilon filter, which
compose and compose_through share (a state of a, a state of the other
machine and a filter state).  compose_through's other machine is the
tuple of the states of its DFAs, so the lexicon composed through the
rules is one product (twol.apply_rules).  Each gives only expand(key),
the key's finality and moves; _explore numbers the reachable keys, and
the caller trims them with _trim or, in intersect, refines them with
_minimal.

_trim walks forward once.  It marks the states co-reachable over all
arcs with _reach, the one reachability walk (determinize's epsilon
closures, _minimal's live states, is_empty and _word_coreachable use it
too), then renumbers by BFS from the start along arcs into marked
states only.  Every state on a path from the start to a final is
co-reachable, so that BFS reaches exactly the reachable and
co-reachable states, with no separate reachability walk.  Transducer(...)
is the one constructor: it sorts the arcs it is given and checks the
state bounds once, in one pass over the arc targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import AlphabetMismatchError, NotAnAcceptorError
from .symbols import EPSILON_ID, SymbolTable


class Transducer:
    """States 0..num_states-1, arcs (src, in, out, dst), one start state."""

    __slots__ = ("table", "num_states", "start", "finals", "arcs",
                 "deterministic", "_by_input", "_steps")

    def __init__(self, table, num_states, start, finals, arcs,
                 deterministic=False):
        self.table = table
        self.num_states = num_states
        self.start = start
        self.finals = frozenset(finals)
        self.arcs = arcs = tuple(sorted(arcs))
        self.deterministic = deterministic
        self._by_input = None
        self._steps = None
        # the arcs are sorted, so the last one has the largest source
        assert start < num_states
        assert max(self.finals, default=0) < num_states
        assert not arcs or max(arcs[-1][0], max(map(itemgetter(3), arcs))) \
            < num_states

    def input_index(self):
        """One {input label: arcs} dict per state, the arcs in arc order;
        built on first use and kept."""
        if self._by_input is None:
            index = [{} for _ in range(self.num_states)]
            for a in self.arcs:
                index[a[0]].setdefault(a[1], []).append(a)
            self._by_input = index
        return self._by_input

    def _transitions(self):
        """Per-state {label: dst} maps of a machine flagged
        deterministic; built on first use and kept."""
        assert self.deterministic
        if self._steps is None:
            self._steps = _step_maps(self.num_states, self.arcs)
        return self._steps

    def is_acceptor(self):
        return all(i == o for _, i, o, _ in self.arcs)

    def input_labels(self):
        return {i for _, i, _, _ in self.arcs if i != EPSILON_ID}

    def output_labels(self):
        return {o for _, _, o, _ in self.arcs if o != EPSILON_ID}

    def __repr__(self):
        return (
            f"<Transducer states={self.num_states} arcs={len(self.arcs)} "
            f"finals={len(self.finals)}>"
        )


@dataclass
class PathSet:
    """Deduplicated (input, output) symbol-id sequences, sorted shortlex.
    When a max_count cut sets truncated, the pairs are the ones the
    search met first, which need not be the shortlex-first ones."""

    pairs: list
    truncated: bool = False


def _check_tables(*ts):
    tables = {id(t.table) for t in ts}
    if len(tables) > 1:
        raise AlphabetMismatchError("transducers use different symbol tables")


def _step_maps(num_states, arcs):
    """Per-state {label: dst} maps of the arcs of a DFA acceptor."""
    steps = [{} for _ in range(num_states)]
    for s, i, _, d in arcs:
        steps[s][i] = d
    return steps


def _trim(table, num_states, start, finals, arcs, deterministic=False):
    """Keep the states on some path from start to a final, renumbered in
    BFS order from the start state, taking each state's arcs in (in,
    out, dst) order; the arcs come out sorted.  deterministic marks the
    result as a DFA: set it only where the construction guarantees an
    acceptor with no epsilon arc and one arc per state and label."""
    out = [[] for _ in range(num_states)]
    bwd = [[] for _ in range(num_states)]
    for a in arcs:
        out[a[0]].append(a)
        bwd[a[3]].append(a[0])
    coreach = _reach(finals, bwd.__getitem__)
    order = {start: 0}  # alone if it reaches no final: the empty machine
    queue = [start]
    new_arcs = []
    for s in queue:  # grows while it is walked: BFS in new-id order
        src = order[s]
        for _, i, o, d in sorted(out[s]):
            if d in coreach:
                new = order.get(d)
                if new is None:
                    new = order[d] = len(queue)
                    queue.append(d)
                new_arcs.append((src, i, o, new))
    new_finals = {order[s] for s in finals if s in order}
    return Transducer(table, len(order), 0, new_finals, new_arcs,
                      deterministic)


def _reach(seeds, step):
    """The set of keys reachable from seeds, the seeds among them;
    step(x) gives the keys that follow x, and is called once per key."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _explore(start, expand):
    """Number the keys reachable from start: (num_states, finals, arcs),
    untrimmed.  expand(key) gives (is_final, [(in, out, next key), ...]);
    each key is numbered when first met, start as 0, and expanded once,
    its arcs kept in the order expand lists them."""
    index = {start: 0}
    queue = [start]
    arcs = []
    finals = set()
    for src, key in enumerate(queue):  # grows while it is walked
        is_final, moves = expand(key)
        if is_final:
            finals.add(src)
        for i, o, nxt in moves:
            dst = index.get(nxt)
            if dst is None:
                dst = index[nxt] = len(queue)
                queue.append(nxt)
            arcs.append((src, i, o, dst))
    return len(queue), finals, arcs


# ---------------------------------------------------------------------------
# constructors


def empty(table: SymbolTable) -> Transducer:
    return Transducer(table, 1, 0, frozenset(), ())


def epsilon_machine(table: SymbolTable) -> Transducer:
    return Transducer(table, 1, 0, {0}, ())


def string_acceptor(table, ids) -> Transducer:
    """Single-path acceptor of the symbol-id sequence ids."""
    arcs = [(k, sid, sid, k + 1) for k, sid in enumerate(ids)]
    return Transducer(table, len(arcs) + 1, 0, {len(arcs)}, arcs)


def symbol_set_acceptor(table, ids) -> Transducer:
    """One-arc-per-symbol acceptor of the given single symbols."""
    arcs = [(0, sid, sid, 1) for sid in sorted(set(ids))]
    return Transducer(table, 2, 0, {1}, arcs)


def sigma_star(table, ids) -> Transducer:
    """Acceptor of all strings over the given symbol set."""
    arcs = [(0, sid, sid, 0) for sid in sorted(set(ids))]
    return Transducer(table, 1, 0, {0}, arcs)


# ---------------------------------------------------------------------------
# rational operations


def union(a: Transducer, b: Transducer) -> Transducer:
    _check_tables(a, b)
    off_a, off_b = 1, 1 + a.num_states
    arcs = [(0, EPSILON_ID, EPSILON_ID, off_a + a.start),
            (0, EPSILON_ID, EPSILON_ID, off_b + b.start)]
    arcs += [(s + off_a, i, o, d + off_a) for s, i, o, d in a.arcs]
    arcs += [(s + off_b, i, o, d + off_b) for s, i, o, d in b.arcs]
    finals = {f + off_a for f in a.finals} | {f + off_b for f in b.finals}
    return Transducer(a.table, 1 + a.num_states + b.num_states, 0, finals,
                      arcs)


def concat(a: Transducer, b: Transducer) -> Transducer:
    _check_tables(a, b)
    off_b = a.num_states
    arcs = list(a.arcs)
    arcs += [(s + off_b, i, o, d + off_b) for s, i, o, d in b.arcs]
    arcs += [(f, EPSILON_ID, EPSILON_ID, b.start + off_b) for f in a.finals]
    finals = {f + off_b for f in b.finals}
    return Transducer(a.table, a.num_states + b.num_states, a.start, finals,
                      arcs)


def star(a: Transducer) -> Transducer:
    off = 1
    arcs = [(0, EPSILON_ID, EPSILON_ID, a.start + off)]
    arcs += [(s + off, i, o, d + off) for s, i, o, d in a.arcs]
    arcs += [(f + off, EPSILON_ID, EPSILON_ID, 0) for f in a.finals]
    return Transducer(a.table, a.num_states + 1, 0, {0}, arcs)


# ---------------------------------------------------------------------------
# structural operations


def invert(a: Transducer) -> Transducer:
    arcs = [(s, o, i, d) for s, i, o, d in a.arcs]
    return Transducer(a.table, a.num_states, a.start, a.finals, arcs)


def relabel(a: Transducer, mapping, side: str, keep=False) -> Transducer:
    """a with each arc whose label on side ("input" or "output") is a key
    of mapping, {symbol: [variants]}, put once per variant in its place
    (EPSILON_ID deletes it), and kept as it is too if keep.  That is a
    composed with a one-state map, the identity off the keys (or on the
    input side, that map inverted, composed before a), done arc by arc."""
    if side not in ("input", "output"):
        raise ValueError(f"bad relabel side {side!r}")
    at = 1 if side == "input" else 2
    arcs = []
    for arc in a.arcs:
        variants = mapping.get(arc[at])
        if variants is None or keep:
            arcs.append(arc)
        if variants:
            arcs += [arc[:at] + (v,) + arc[at + 1:] for v in variants]
    return Transducer(a.table, a.num_states, a.start, a.finals, arcs)


def project(a: Transducer, side: str) -> Transducer:
    if side not in ("input", "output"):
        raise ValueError(f"bad projection side {side!r}")
    arcs = []
    for s, i, o, d in a.arcs:
        lab = i if side == "input" else o
        arcs.append((s, lab, lab, d))
    return _trim(a.table, a.num_states, a.start, a.finals, arcs)


def expand_labels(a: Transducer, members) -> Transducer:
    """The acceptor a with each arc on label c put once per symbol of
    members[c] in its place, trimmed and numbered canonically.  With
    disjoint member lists a DFA stays a DFA, flagged as a is, and a
    minimal one stays minimal: states that a label tells apart, any of
    its symbols tells apart."""
    arcs = [(s, m, m, d) for s, c, _, d in a.arcs for m in members[c]]
    return _trim(a.table, a.num_states, a.start, a.finals, arcs,
                 a.deterministic)


# ---------------------------------------------------------------------------
# composition with the three-state epsilon filter


def compose(a: Transducer, b: Transducer) -> Transducer:
    """Exact relation composition; the epsilon filter guarantees each
    composed path is represented exactly once."""
    _check_tables(a, b)
    by_input = b.input_index()
    return _compose(a, b.start,
                    lambda s2, x: [arc[2:] for arc in by_input[s2].get(x, ())],
                    b.finals.__contains__)


def compose_through(a: Transducer, dfas, pairs) -> Transducer:
    """a composed with the transducer that the DFAs accept together over
    pair labels (Karttunen's intersecting composition): pairs maps each
    symbol x to its [(pair label, y)], and an output x of a becomes y
    where every DFA moves on the pair label; pairs[EPSILON_ID] holds the
    pairs that read nothing.  One lazy product of a, the DFAs and the
    epsilon filter, so the DFAs' intersection is never built.  With no
    DFAs every pair passes."""
    _check_tables(a, *dfas)
    steps = [determinize(d)._transitions() for d in dfas]
    finals = [d.finals for d in dfas]
    memo = {}  # product states that differ only in a's state share these

    def moves(key, x):
        out = memo.get((key, x))
        if out is not None:
            return out
        out = memo[key, x] = []
        for label, y in pairs.get(x, ()):
            nxt = []
            for step, q in zip(steps, key):
                t = step[q].get(label)
                if t is None:
                    break
                nxt.append(t)
            else:
                out.append((y, tuple(nxt)))
        return out

    return _compose(a, tuple(d.start for d in dfas), moves,
                    lambda key: all(q in f for q, f in zip(key, finals)))


def _compose(a, start, moves, is_final):
    """a composed with a machine given by its start key, moves(key, x),
    the [(output, next key)] of that machine's key on input x, and
    is_final(key); explored from (a's start, start, 0) and trimmed.

    The third member of a state is the three-state epsilon filter: 1
    after a moved alone on an epsilon output, 2 after the other machine
    moved alone on an epsilon input, 0 otherwise.  A lone move of the
    one may not follow a lone move of the other, and both move on
    epsilon together only from 0, so of the paths that differ only in
    how they interleave epsilon moves exactly one is kept."""
    by_input = a.input_index()

    def expand(key):
        s1, s2, f = key
        eps = moves(s2, EPSILON_ID)
        out = []
        for _, i1, o1, d1 in chain.from_iterable(by_input[s1].values()):
            if o1 != EPSILON_ID:
                out += [(i1, o2, (d1, d2, 0)) for o2, d2 in moves(s2, o1)]
            else:
                if f != 2:
                    out.append((i1, EPSILON_ID, (d1, s2, 1)))
                if f == 0:
                    out += [(i1, o2, (d1, d2, 0)) for o2, d2 in eps]
        if f != 1:
            out += [(EPSILON_ID, o2, (s1, d2, 2)) for o2, d2 in eps]
        return s1 in a.finals and is_final(s2), out

    n, finals, arcs = _explore((a.start, start, 0), expand)
    return _trim(a.table, n, 0, finals, arcs)


# ---------------------------------------------------------------------------
# acceptor algebra


def determinize(a: Transducer) -> Transducer:
    """Subset construction; acceptors only (epsilon arcs are removed).
    A machine flagged deterministic is returned as it is.

    Each subset holds only the important states of its epsilon closure
    (finals and states with a non-epsilon arc): the others add no arc
    and no finality, and keeping them would split equivalent subsets.
    Subsets are bitmasks (see the module docstring): steps[q] holds, per
    label, the OR of the closure masks of q's targets on it."""
    if a.deterministic:  # an acceptor by construction: no arc scan
        return a
    if not a.is_acceptor():
        raise NotAnAcceptorError("operation requires an acceptor (in == out)")
    eps = [[] for _ in range(a.num_states)]
    for s, i, _, d in a.arcs:
        if i == EPSILON_ID:
            eps[s].append(d)
    important = set(a.finals)
    important.update(s for s, i, _, _ in a.arcs if i != EPSILON_ID)
    closure_of = {}  # state: mask of the important states of its closure

    def closure(s):
        mask = closure_of.get(s)
        if mask is None:
            mask = closure_of[s] = sum(
                1 << q for q in _reach((s,), eps.__getitem__) & important)
        return mask

    labels = sorted(a.input_labels())
    rank = {lab: k for k, lab in enumerate(labels)}
    steps = [{} for _ in range(a.num_states)]  # {label rank: mask}
    for s, i, _, d in a.arcs:
        if i != EPSILON_ID:
            k = rank[i]
            steps[s][k] = steps[s].get(k, 0) | closure(d)
    steps = [tuple(step.items()) for step in steps]
    final_mask = sum(1 << q for q in a.finals)

    def expand(mask):
        is_final = bool(mask & final_mask)
        moves = [0] * len(labels)
        while mask:  # one member per turn, lowest bit first
            low = mask & -mask
            for k, target in steps[low.bit_length() - 1]:
                moves[k] |= target
            mask ^= low
        return (is_final,
                [(labels[k], labels[k], m) for k, m in enumerate(moves) if m])

    n, finals, arcs = _explore(closure(a.start), expand)
    return _trim(a.table, n, 0, finals, arcs, deterministic=True)


def _minimal(table, start, finals, steps):
    """The minimal DFA of the reachable DFA with per-state {label: dst}
    maps steps, numbered by _trim; dead states go first (see the module
    docstring).

    Hopcroft refines the live states over the partial transition
    function (Valmari & Lehtinen 2008), reading predecessors from the
    maps.  A split block keeps the larger part and the smaller one is
    queued; if the block was queued already, both parts are now.  Only
    the smaller part gets a new block number, and a split builds no more
    than twice the states that hit the block, so it costs the size of
    the hit, not of the block."""
    preds = [{} for _ in steps]  # per state, {label: [predecessors]}
    for p, step in enumerate(steps):
        for c, q in step.items():
            into = preds[q]
            if c in into:
                into[c].append(p)
            else:
                into[c] = [p]
    live = _reach(finals, lambda q: chain.from_iterable(preds[q].values()))
    partition = [s for s in (set(finals), live - finals) if s]
    block_of = [-1] * len(steps)
    for b, block in enumerate(partition):
        for q in block:
            block_of[q] = b
    work = set(range(len(partition)))
    while work:
        by_label = {}
        for q in partition[work.pop()]:
            for c, ps in preds[q].items():
                if c in by_label:
                    by_label[c] += ps
                else:
                    by_label[c] = list(ps)
        for hits in by_label.values():
            touched = {}
            for p in hits:
                b = block_of[p]
                if b in touched:
                    touched[b].append(p)
                elif len(partition[b]) > 1:  # a singleton cannot split
                    touched[b] = [p]
            for b, hit in touched.items():
                block = partition[b]
                if len(hit) == len(block):
                    continue
                if 2 * len(hit) <= len(block):
                    small = set(hit)
                    block -= small
                else:
                    small = block.difference(hit)
                    partition[b] = set(hit)
                new_idx = len(partition)
                partition.append(small)
                for q in small:
                    block_of[q] = new_idx
                work.add(new_idx)

    if not partition:  # no final is reachable: the empty machine
        return _trim(table, 1, 0, (), (), deterministic=True)
    arcs = []
    for b, block in enumerate(partition):
        # any state of a block stands for it: their live arcs agree
        arcs += [(b, c, c, block_of[q])
                 for c, q in steps[next(iter(block))].items()
                 if block_of[q] >= 0]
    return _trim(table, len(partition), block_of[start],
                 {block_of[q] for q in finals}, arcs, deterministic=True)


def minimize(a: Transducer) -> Transducer:
    """The minimal DFA of the acceptor a: determinize, then refine
    (see _minimal)."""
    d = determinize(a)
    return _minimal(a.table, d.start, d.finals, d._transitions())


def encoded_minimize(a: Transducer) -> Transducer:
    """The minimal machine of a's paths read as strings of in:out pairs
    (Mohri 2000, minimization with the pairs encoded): each pair is one
    label, ε:ε is epsilon, and minimize runs on that acceptor before the
    labels are decoded.  A pair (i, o) is coded i * width + o, which
    sorts as the pair does, so the decoded arcs keep minimize's sorted
    order and BFS numbering: the result depends only on a's set of pair
    strings.  It is trimmed but not flagged deterministic."""
    width = 1 + max((o for _, _, o, _ in a.arcs), default=0)
    coded = Transducer(a.table, a.num_states, a.start, a.finals,
                       [(s, i * width + o, i * width + o, d)
                        for s, i, o, d in a.arcs])
    m = minimize(coded)
    arcs = [(s, *divmod(c, width), d) for s, c, _, d in m.arcs]
    return Transducer(a.table, m.num_states, m.start, m.finals, arcs)


def complement(a: Transducer, alphabet) -> Transducer:
    """Sigma* minus L(a), relative to an explicit closed alphabet: arcs
    of a on labels outside it are never followed."""
    alphabet = sorted(set(alphabet))
    if EPSILON_ID in alphabet:
        raise ValueError("epsilon cannot be a complement alphabet member")
    d = determinize(a)
    steps = d._transitions()
    sink = d.num_states  # a key that no state of d has

    def expand(q):
        step = steps[q] if q != sink else {}
        return (q not in d.finals,
                [(lab, lab, step.get(lab, sink)) for lab in alphabet])

    n, finals, arcs = _explore(d.start, expand)
    return _trim(d.table, n, 0, finals, arcs, deterministic=True)


def intersect(a: Transducer, b: Transducer) -> Transducer:
    """The minimal DFA of L(a) & L(b): the reachable pair product of
    their DFAs, refined by _minimal without being trimmed first.  A state
    pair (s1, s2) is keyed as one int, s1 * width + s2, and its moves are
    read off a's map, so the product is cheapest with the machine of
    fewest arcs per state first."""
    _check_tables(a, b)
    da, db = determinize(a), determinize(b)
    steps_a, steps_b = da._transitions(), db._transitions()
    width = db.num_states

    def expand(key):
        s1, s2 = divmod(key, width)
        step2 = steps_b[s2]
        return (s1 in da.finals and s2 in db.finals,
                [(i, i, t1 * width + step2[i])
                 for i, t1 in steps_a[s1].items() if i in step2])

    n, finals, arcs = _explore(da.start * width + db.start, expand)
    return _minimal(a.table, 0, finals, _step_maps(n, arcs))


def difference(a: Transducer, b: Transducer, alphabet) -> Transducer:
    return intersect(a, complement(b, alphabet))


# ---------------------------------------------------------------------------
# path enumeration and decision helpers


def enumerate_paths(a: Transducer, max_input_len: int, max_count: int) -> PathSet:
    """The (input, output) pairs with input length <= max_input_len,
    found by a depth-first search from the start state that takes each
    state's arcs in arc order, and returned sorted shortlex.  A cyclic
    machine is cut at the length bound or where an epsilon-input run
    repeats an arc, and sets truncated.  Once max_count pairs are found,
    the next new pair stops the search: the pairs kept are then the
    max_count that the search met first, not the shortlex-first ones."""
    if max_input_len < 0 or max_count <= 0:
        raise ValueError("enumeration bounds must be positive")
    index = a.input_index()
    found = set()
    truncated = False
    # stack entries: (state, input tuple, output tuple, eps_arcs_used)
    stack = [(a.start, (), (), frozenset())]
    while stack:
        state, inp, out, eps_used = stack.pop()
        if state in a.finals and (inp, out) not in found:
            if len(found) >= max_count:
                truncated = True
                break
            found.add((inp, out))
        # pushed last to first, so the arcs are taken in arc order
        for arc in reversed([*chain.from_iterable(index[state].values())]):
            _, i, o, d = arc
            if i == EPSILON_ID:
                # epsilon-input cycles give infinitely many outputs; cut
                # once a run of non-consuming arcs repeats an arc
                if arc in eps_used:
                    truncated = True
                    continue
                stack.append((d, inp, out + ((o,) if o else ()),
                              eps_used | {arc}))
            else:
                if len(inp) >= max_input_len:
                    truncated = True
                    continue
                stack.append((d, inp + (i,), out + ((o,) if o else ()),
                              frozenset()))
    pairs = sorted(found, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))
    return PathSet(pairs, truncated)


def _word_coreachable(a, index, ids):
    """(position, state) nodes of the word's lattice, reachable from
    (0, start), from which ids[position:] can be read to a final state:
    the states that trimming keeps in the string acceptor of ids
    composed with a."""
    n = len(ids)
    preds = {}

    def succ(node):  # records node as a predecessor of each successor
        k, q = node
        arcs = index[q]
        nxt = [(k, arc[3]) for arc in arcs.get(EPSILON_ID, ())]
        if k < n:
            nxt += [(k + 1, arc[3]) for arc in arcs.get(ids[k], ())]
        for m in nxt:
            preds.setdefault(m, []).append(node)
        return nxt

    seen = _reach(((0, a.start),), succ)
    return _reach([(n, q) for q in a.finals if (n, q) in seen],
                  lambda node: preds.get(node, ()))


def lookup_paths(a: Transducer, ids, max_count: int) -> PathSet:
    """The (ids, output) pairs of a, found by one walk from the start
    state over the input-label index, without composing.

    The bounds are those of enumerate_paths on the string acceptor of
    ids composed with a, with len(ids) as max_input_len: the word bounds
    the input, so only epsilon runs and max_count cut the walk.  A run
    of epsilon-input arcs is cut when it repeats an arc (the
    composition's epsilon filter lets the run's first arc come round
    once more); once max_count distinct pairs are found, the next
    accepting path with a pair not yet found stops the walk, while one
    with a pair already found is passed by.  A cut sets truncated only
    if a final state is still reachable past it, as in the trimmed
    composition.  Both give the same flag, and the same pairs unless
    max_count stops them: then each keeps the pairs its own search
    order found first."""
    if max_count <= 0:
        raise ValueError("max_count must be positive")
    ids = tuple(ids)
    if EPSILON_ID in ids:
        raise ValueError("lookup input cannot contain epsilon")
    n = len(ids)
    index = a.input_index()
    finals = a.finals
    coreachable = None

    def live(node):
        nonlocal coreachable
        if coreachable is None:
            coreachable = _word_coreachable(a, index, ids)
        return node in coreachable

    found = set()
    truncated = False
    # stack entries: (position, state, output, in an epsilon run,
    # epsilon arcs taken in the run after its first)
    stack = [(0, a.start, (), False, ())]
    while stack:
        k, q, out, in_run, used = stack.pop()
        if k == n and q in finals and out not in found:
            if len(found) >= max_count:
                truncated = True
                break
            found.add(out)
        arcs = index[q]
        for arc in arcs.get(EPSILON_ID, ()):
            o, d = arc[2], arc[3]
            if arc in used:
                truncated = truncated or live((k, d))
                continue
            stack.append((k, d, out + (o,) if o else out, True,
                          used + (arc,) if in_run else used))
        if k < n:
            for _, _, o, d in arcs.get(ids[k], ()):
                stack.append((k + 1, d, out + (o,) if o else out, False,
                              ()))
    pairs = sorted(found, key=lambda o: (len(o), o))
    return PathSet([(ids, o) for o in pairs], truncated)


def is_empty(a: Transducer) -> bool:
    """No final state is reachable from the start.  A machine flagged
    deterministic is trimmed, so only its finals need a look."""
    if a.deterministic or not a.finals:
        return not a.finals
    index = a.input_index()
    return a.finals.isdisjoint(_reach((a.start,), lambda q: [
        arc[3] for arc in chain.from_iterable(index[q].values())]))
