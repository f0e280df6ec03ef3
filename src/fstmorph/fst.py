"""Unweighted finite-state transducers and the algorithm suite.

Transducers are immutable after construction: every operation returns a
fresh, trimmed machine with deterministically ordered arcs and BFS state
numbering, so identical inputs give bit-identical results.  Arc labels
are symbol ids from one shared SymbolTable; id 0 is epsilon.

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

A flagged machine also has transition maps, one {label: dst} dict per
state, built from its arcs on first use and kept like the arcs_from
lists; intersect, complement and minimize read them.

_minimal is the one refine-and-number core.  It takes a reachable DFA
as per-state maps, drops the states that reach no final, refines the
rest with Hopcroft and numbers the quotient through _trim.  Dropping
dead states first is what makes refining a partial DFA exact: with no
sink state, a live state with an arc into a dead state would stay apart
from an equivalent state without that arc.  A missing arc counts in no
predecessor set, so the final and the nonfinal block each split states
the other cannot, and both start in Hopcroft's work set.  minimize is
determinize followed by _minimal.  intersect hands its raw reachable
pair product to _minimal without trimming it first, so it returns the
minimal DFA of the intersection; the minimal DFA is unique and _trim's
numbering canonical, so that is the machine minimize would make of any
DFA of the same language.

Every construction that explores its states lazily from a start key
goes through _explore: determinize (subsets), intersect (DFA state
pairs), compose (state pairs with an epsilon-filter state) and
complement (DFA states and a sink).  Each gives only expand(key), the
key's finality and moves; _explore numbers the reachable keys, and the
caller trims them with _trim or, in intersect, refines them with
_minimal.

_trim walks forward once.  It marks the states co-reachable over all
arcs, then renumbers by BFS from the start along arcs into marked
states only.  Every state on a path from the start to a final is
co-reachable, so that BFS reaches exactly the reachable and
co-reachable states, with no separate reachability walk.  Its arcs come
out sorted, so it builds its machine without sorting them again; any
other Transducer(...) sorts the arcs it is given.  Every machine checks
its state bounds once, in one pass over the arc targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import AlphabetMismatchError, NotAnAcceptorError
from .symbols import EPSILON_ID, SymbolTable


class Transducer:
    """States 0..num_states-1, arcs (src, in, out, dst), one start state."""

    __slots__ = ("table", "num_states", "start", "finals", "arcs",
                 "deterministic", "_adj", "_by_input", "_steps")

    def __init__(self, table, num_states, start, finals, arcs,
                 deterministic=False):
        self._fill(table, num_states, start, finals, sorted(arcs),
                   deterministic)

    @classmethod
    def _sorted(cls, table, num_states, start, finals, arcs, deterministic):
        """A machine from arcs already in sorted order, as _trim emits
        them; skips the sort that __init__ makes."""
        t = cls.__new__(cls)
        t._fill(table, num_states, start, finals, arcs, deterministic)
        return t

    def _fill(self, table, num_states, start, finals, arcs, deterministic):
        self.table = table
        self.num_states = num_states
        self.start = start
        self.finals = frozenset(finals)
        self.arcs = tuple(arcs)
        self.deterministic = deterministic
        self._adj = None
        self._by_input = None
        self._steps = None
        # the arcs are sorted, so the last one has the largest source
        assert start < num_states
        assert max(self.finals, default=0) < num_states
        assert not arcs or max(arcs[-1][0], max(map(itemgetter(3), arcs))) \
            < num_states

    def arcs_from(self, state):
        if self._adj is None:
            adj = [[] for _ in range(self.num_states)]
            for a in self.arcs:
                adj[a[0]].append(a)
            self._adj = adj
        return self._adj[state]

    def input_index(self):
        """{(state, input label): arcs} over every arc, in arc order;
        built on first use and kept, like the arcs_from lists."""
        if self._by_input is None:
            index = {}
            for a in self.arcs:
                index.setdefault((a[0], a[1]), []).append(a)
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

    def labels(self):
        return self.input_labels() | self.output_labels()

    def __repr__(self):
        return (
            f"<Transducer states={self.num_states} arcs={len(self.arcs)} "
            f"finals={len(self.finals)}>"
        )


@dataclass
class PathSet:
    """Deduplicated (input, output) symbol-id sequences, shortlex order."""

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
    coreach = set(finals)
    stack = list(coreach)
    while stack:
        for p in bwd[stack.pop()]:
            if p not in coreach:
                coreach.add(p)
                stack.append(p)
    order = {start: 0}  # alone if it reaches no final: the empty machine
    queue = [start]
    new_arcs = []
    for s in queue:  # grows while it is walked: BFS in new-id order
        src = order[s]
        run = []
        for _, i, o, d in sorted(out[s]):
            if d in coreach:
                new = order.get(d)
                if new is None:
                    new = order[d] = len(queue)
                    queue.append(d)
                run.append((src, i, o, new))
        run.sort()
        new_arcs += run
    new_finals = {order[s] for s in finals if s in order}
    return Transducer._sorted(table, len(order), 0, new_finals, new_arcs,
                              deterministic)


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


def string_pair(table, in_ids, out_ids) -> Transducer:
    """Single-path transducer mapping in_ids to out_ids.

    Unequal lengths are padded with epsilon on the shorter side,
    left-aligned (symbols consumed in lockstep from the start).
    """
    n = max(len(in_ids), len(out_ids))
    arcs = []
    for k in range(n):
        i = in_ids[k] if k < len(in_ids) else EPSILON_ID
        o = out_ids[k] if k < len(out_ids) else EPSILON_ID
        arcs.append((k, i, o, k + 1))
    return Transducer(table, n + 1, 0, {n}, arcs)


def string_acceptor(table, ids) -> Transducer:
    return string_pair(table, ids, ids)


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
    return _trim(a.table, 1 + a.num_states + b.num_states, 0, finals, arcs)


def concat(a: Transducer, b: Transducer) -> Transducer:
    _check_tables(a, b)
    off_b = a.num_states
    arcs = list(a.arcs)
    arcs += [(s + off_b, i, o, d + off_b) for s, i, o, d in b.arcs]
    arcs += [(f, EPSILON_ID, EPSILON_ID, b.start + off_b) for f in a.finals]
    finals = {f + off_b for f in b.finals}
    return _trim(a.table, a.num_states + b.num_states, 0, finals, arcs)


def star(a: Transducer) -> Transducer:
    off = 1
    arcs = [(0, EPSILON_ID, EPSILON_ID, a.start + off)]
    arcs += [(s + off, i, o, d + off) for s, i, o, d in a.arcs]
    arcs += [(f + off, EPSILON_ID, EPSILON_ID, 0) for f in a.finals]
    return _trim(a.table, a.num_states + 1, 0, {0}, arcs)


def plus(a: Transducer) -> Transducer:
    return concat(a, star(a))


def option(a: Transducer) -> Transducer:
    return union(a, epsilon_machine(a.table))


# ---------------------------------------------------------------------------
# structural operations


def invert(a: Transducer) -> Transducer:
    arcs = [(s, o, i, d) for s, i, o, d in a.arcs]
    return _trim(a.table, a.num_states, a.start, a.finals, arcs)


def reverse(a: Transducer) -> Transducer:
    off = 1  # fresh start state 0
    arcs = [(d + off, i, o, s + off) for s, i, o, d in a.arcs]
    arcs += [(0, EPSILON_ID, EPSILON_ID, f + off) for f in a.finals]
    return _trim(a.table, a.num_states + 1, 0, {a.start + off}, arcs)


def project(a: Transducer, side: str) -> Transducer:
    if side not in ("upper", "lower", "input", "output"):
        raise ValueError(f"bad projection side {side!r}")
    keep_input = side in ("upper", "input")
    arcs = []
    for s, i, o, d in a.arcs:
        lab = i if keep_input else o
        arcs.append((s, lab, lab, d))
    return _trim(a.table, a.num_states, a.start, a.finals, arcs)


# ---------------------------------------------------------------------------
# composition with the three-state epsilon filter


def compose(a: Transducer, b: Transducer) -> Transducer:
    """Exact relation composition; the epsilon filter guarantees each
    composed path is represented exactly once."""
    _check_tables(a, b)
    b_by_input = b.input_index()

    def expand(key):
        s1, s2, f = key
        moves = []
        for _, i1, o1, d1 in a.arcs_from(s1):
            if o1 != EPSILON_ID:
                for _, _, o2, d2 in b_by_input.get((s2, o1), ()):
                    moves.append((i1, o2, (d1, d2, 0)))
            else:
                # a moves alone on epsilon output: filter 0 or 1 -> 1
                if f in (0, 1):
                    moves.append((i1, EPSILON_ID, (d1, s2, 1)))
                # both move on epsilon: only from filter 0
                if f == 0:
                    for _, _, o2, d2 in b_by_input.get((s2, EPSILON_ID), ()):
                        moves.append((i1, o2, (d1, d2, 0)))
        # b moves alone on epsilon input: filter 0 or 2 -> 2
        if f in (0, 2):
            for _, _, o2, d2 in b_by_input.get((s2, EPSILON_ID), ()):
                moves.append((EPSILON_ID, o2, (s1, d2, 2)))
        return s1 in a.finals and s2 in b.finals, moves

    n, finals, arcs = _explore((a.start, b.start, 0), expand)
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
            seen = {s}
            stack = [s]
            while stack:
                for d in eps[stack.pop()]:
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            mask = closure_of[s] = sum(1 << q for q in seen & important)
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
        moves = [0] * len(labels)
        bits = bin(mask)[:1:-1]  # bit q of mask is bits[q]
        q = bits.find("1")
        while q >= 0:
            for k, target in steps[q]:
                moves[k] |= target
            q = bits.find("1", q + 1)
        return (bool(mask & final_mask),
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
    live = set(finals)
    stack = list(live)
    while stack:
        for ps in preds[stack.pop()].values():
            for p in ps:
                if p not in live:
                    live.add(p)
                    stack.append(p)
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
    their DFAs, refined by _minimal without being trimmed first."""
    _check_tables(a, b)
    da, db = determinize(a), determinize(b)
    steps_a, steps_b = da._transitions(), db._transitions()
    width = db.num_states  # the pair (s1, s2) is keyed s1 * width + s2

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
    """All (input, output) pairs with input length <= max_input_len,
    deterministic shortlex order; cyclic machines are truncated."""
    if max_input_len < 0 or max_count <= 0:
        raise ValueError("enumeration bounds must be positive")
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
        for arc in reversed(a.arcs_from(state)):
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
    start = (0, a.start)
    seen = {start}
    stack = [start]
    preds = {}
    while stack:
        node = stack.pop()
        k, q = node
        succ = [(k, arc[3]) for arc in index.get((q, EPSILON_ID), ())]
        if k < n:
            succ += [(k + 1, arc[3]) for arc in index.get((q, ids[k]), ())]
        for nxt in succ:
            preds.setdefault(nxt, []).append(node)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    live = {(k, q) for k, q in seen if k == n and q in a.finals}
    stack = list(live)
    while stack:
        for p in preds.get(stack.pop(), ()):
            if p not in live:
                live.add(p)
                stack.append(p)
    return live


def lookup_paths(a: Transducer, ids, max_len: int, max_count: int) -> PathSet:
    """The (ids, output) pairs of a, found by one walk from the start
    state over the input-label index, without composing.

    The bounds are those of enumerate_paths on the string acceptor of
    ids composed with a: reading past max_len input symbols is cut; a
    run of epsilon-input arcs is cut when it repeats an arc (the
    composition's epsilon filter lets the run's first arc come round
    once more); once max_count distinct pairs are found, the next
    accepting path with a pair not yet found stops the walk, while one
    with a pair already found is passed by.  A cut sets truncated only
    if a final state is still reachable past it, as in the trimmed
    composition.  Both give the same flag, and the same pairs unless
    max_count stops them: then each keeps the pairs its own search
    order found first."""
    if max_len < 0 or max_count <= 0:
        raise ValueError("enumeration bounds must be positive")
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
        for arc in index.get((q, EPSILON_ID), ()):
            o, d = arc[2], arc[3]
            if arc in used:
                truncated = truncated or live((k, d))
                continue
            stack.append((k, d, out + (o,) if o else out, True,
                          used + (arc,) if in_run else used))
        if k < n:
            for _, _, o, d in index.get((q, ids[k]), ()):
                if k >= max_len:
                    truncated = truncated or live((k + 1, d))
                    continue
                stack.append((k + 1, d, out + (o,) if o else out, False,
                              ()))
    pairs = sorted(found, key=lambda o: (len(o), o))
    return PathSet([(ids, o) for o in pairs], truncated)


def is_empty(a: Transducer) -> bool:
    # machines are trimmed on construction, so emptiness == no finals
    return len(a.finals) == 0
