"""Two-level rule parsing, semantics, and compilation.

Rules are parallel constraints over equal-length strings of feasible
lexical:surface pairs; epsilon is a real "0" member of a pair until
apply_rules reads each pair as a lexical and a surface symbol.

Context regexes parse to four node types, Atom, Seq, Alt and Star,
which are all that check_rule and compile_rule read: `x+` parses to
Seq((x, Star(x))), a glued `x?` to Alt((x, EPSILON_RE)), and a set
name in an atom to the frozenset of the set's members.

check_rule is the executable definition of rule semantics and is kept
independent of the acceptor compiler: it matches context regexes
directly on the pair string, while compile_rule goes through the
finite-state algebra.  Their agreement is the module's central test.

compile_rule builds every operator from in_context(X), the strings in
which some x of X stands where a context holds.  `=>` is generalized
restriction (Yli-Jyrä & Koskenniemi 2004): a center occurrence marked
on both sides, minus the marked strings in context, then unmarked (the
marker arcs become epsilon arcs).  The marker is never interned: the
table is written out as symbols.tsv, which must not depend on how the
rules compile.  Nor are the pair labels a compiled rule reads
(SymbolTable.pair_symbol): they count up from 1 apart from the symbol
ids, and no machine holds both, since compose_through reads a symbol,
steps the rule DFAs on a pair label and writes a symbol.

Each rule compiles over its own classes of feasible pairs, as foma
does with its "other" symbol (Hulden 2009): two pairs share a class
when each context atom, the center and the `<=` wrong set hold for
both or for neither.  A fixture rule has 3 to 7 classes of its 48
pairs.  The construction runs over one label per class, and the
minimal DFA it ends in has each class arc expanded to one arc per
member pair (fst.expand_labels).  That is the minimal DFA over the
pairs, numbered canonically: the classes refine every pair set the
construction reads, so the pair language is the class language with
each label read as any of its pairs, and a state pair told apart by a
class is told apart by each of its pairs.  Class labels, like the
marker, never leave compile_rule.

apply_rules builds the generator as one product of the lexicon and the
compiled rule DFAs (fst.compose_through), after Karttunen's
intersecting composition: the rules are never intersected with each
other.  combine_rules intersects them into one acceptor in pairwise
rounds; no build calls it, and it stays for the benchmark scripts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import fst
from .errors import ParseError, FstMorphError, SymbolError
from .symbols import (EPSILON_ID, SymbolTable, find_unescaped, lex_lines,
                      nfc, unescape)

OPERATORS = ("=>", "<=", "<=>", "/<=")

# Marks the center occurrence under test while `=>` is compiled; an id
# the symbol table never hands out (ids count up from 0, which is epsilon).
MARKER = -1


# ---------------------------------------------------------------------------
# regex AST over feasible pairs


@dataclass(frozen=True)
class Atom:
    """One pair-class: each side a symbol id, a frozenset of symbol ids
    (a set's members), or None (any).  Epsilon sides are the id 0."""

    left: object
    right: object


@dataclass(frozen=True)
class Seq:
    items: tuple


@dataclass(frozen=True)
class Alt:
    items: tuple


@dataclass(frozen=True)
class Star:
    item: object


EPSILON_RE = Seq(())


@dataclass
class FeasiblePairs:
    """Closed alphabet of declared lexical:surface pairs."""

    table: SymbolTable
    pairs: list  # of (lexical id, surface id), declaration order

    def __post_init__(self):
        if not self.pairs:
            raise FstMorphError("feasible-pair alphabet is empty")
        self._set = set(self.pairs)

    def __contains__(self, pair):
        return pair in self._set

    def pair_ids(self):
        return [self.table.pair_symbol(l, s) for l, s in self.pairs]

    def pair_id(self, l, s):
        if (l, s) not in self._set:
            raise FstMorphError(
                f"pair {self.table.resolve(l)}:{self.table.resolve(s)}"
                " is not in the feasible-pair alphabet"
            )
        return self.table.pair_symbol(l, s)


@dataclass
class TwolRule:
    name: str
    center: tuple  # (lexical id, surface id)
    op: str
    contexts: list  # of (left regex, right regex)
    line: int = 0


@dataclass
class RuleSet:
    alphabet: FeasiblePairs
    sets: dict  # name -> list of symbol ids
    rules: list

    @property
    def table(self):
        return self.alphabet.table


# ---------------------------------------------------------------------------
# source parser (the tokens come from symbols.lex_lines)

_SPECIALS = "()|*+?_;"


class _Parser:
    def __init__(self, source, table, filename=None):
        lines = lex_lines([(filename, source)], "rule name", _SPECIALS)
        self.toks = [tok for line in lines for tok in line]
        self.pos = 0
        self.end = len(self.toks)  # a context regex reads up to its '_' or ';'
        self.table = table
        self.filename = filename
        self.sets = {}
        self.pairs = []
        self.pair_set = set()

    def err(self, msg, tok=None):
        line = tok.line if tok is not None else (
            self.toks[self.pos - 1].line if self.toks and self.pos else None
        )
        raise ParseError(msg, filename=self.filename, line=line)

    def peek(self):
        return self.toks[self.pos] if self.pos < self.end else None

    def next(self):
        tok = self.peek()
        if tok is None:
            if self.end < len(self.toks):  # at the '_' or ';' of a context
                self.err("unexpected end of context regex",
                         self.toks[self.end])
            raise ParseError("unexpected end of rule file", filename=self.filename)
        self.pos += 1
        return tok

    def peek_op(self):
        """The next token's text if it can be an operator (it is there and
        not quoted), else None: a quoted token is always a symbol."""
        tok = self.peek()
        return None if tok is None or tok.quoted else tok.text

    def split_pair(self, tok):
        """Split a symbol token at the single unescaped ':' if present."""
        text = tok.text
        i = find_unescaped(text, ":".__eq__)
        if i == len(text):
            return text, None
        if find_unescaped(text, ":".__eq__, i + 1) < len(text):
            self.err(f"more than one ':' in pair {text!r}", tok)
        return text[:i], text[i + 1 :]

    def expect(self, text):
        tok = self.next()
        if tok.text != text or tok.quoted:
            self.err(f"expected {text!r}, got {tok.text!r}", tok)
        return tok

    # -- sections ----------------------------------------------------------

    def parse(self):
        self.expect("Alphabet")
        self.parse_alphabet()
        tok = self.peek()
        if tok and tok.text == "Sets" and not tok.quoted:
            self.next()
            self.parse_sets()
        rules = []
        if self.peek() is not None:
            self.expect("Rules")
            rules = self.parse_rules()
        alphabet = FeasiblePairs(self.table, self.pairs)
        return RuleSet(alphabet, self.sets, rules)

    def _symbol_or_eps(self, text, tok):
        if text == "" or text is None:
            self.err("empty symbol in pair", tok)
        if text == "0":
            return EPSILON_ID
        return self._symbol(text, tok)

    def _symbol(self, text, tok):
        try:
            return self.table.symbol_for(text).id
        except SymbolError as exc:
            self.err(str(exc), tok)

    def parse_alphabet(self):
        while True:
            tok = self.next()
            if tok.text == ";" and not tok.quoted:
                break
            l_txt, r_txt = self.split_pair(tok)
            l = self._symbol_or_eps(l_txt, tok)
            r = self._symbol_or_eps(r_txt, tok) if r_txt is not None else l
            if (l, r) == (EPSILON_ID, EPSILON_ID):
                self.err("0:0 is not a feasible pair", tok)
            if (l, r) not in self.pair_set:
                self.pair_set.add((l, r))
                self.pairs.append((l, r))
        if not self.pairs:
            self.err("Alphabet section declares no pairs")

    def parse_sets(self):
        while True:
            tok = self.peek()
            if tok is None:
                self.err("unexpected end of file in Sets section")
            if tok.text == "Rules" and not tok.quoted:
                return
            name = self.next()
            self.expect("=")
            members = []
            while True:
                t = self.next()
                if t.text == ";" and not t.quoted:
                    break
                members.append(self._symbol(t.text, t))
            if name.text in self.sets:
                self.err(f"duplicate set {name.text!r}", name)
            self.sets[name.text] = members

    def parse_rules(self):
        rules = []
        names = set()
        while self.peek() is not None:
            name_tok = self.next()
            if not name_tok.quoted:
                self.err(f"expected quoted rule name, got {name_tok.text!r}",
                         name_tok)
            if name_tok.text in names:
                self.err(f"duplicate rule name {name_tok.text!r}", name_tok)
            names.add(name_tok.text)
            center_tok = self.next()
            l_txt, r_txt = self.split_pair(center_tok)
            l = self._symbol_or_eps(l_txt, center_tok)
            r = (self._symbol_or_eps(r_txt, center_tok)
                 if r_txt is not None else l)
            op_tok = self.next()
            if op_tok.quoted or op_tok.text not in OPERATORS:
                self.err(f"expected rule operator, got {op_tok.text!r}", op_tok)
            contexts = []
            while self.peek() is not None and not self._rule_starts():
                contexts.append(self.parse_context())
            if not contexts:
                self.err(f"rule {name_tok.text!r} has no contexts", name_tok)
            rules.append(TwolRule(name_tok.text, (l, r), op_tok.text,
                                  contexts, name_tok.line))
        return rules

    def _rule_starts(self):
        """Does a rule open at the next token: a quoted name followed by
        a center and an unquoted rule operator?"""
        k = self.pos
        if k + 2 >= len(self.toks):
            return False
        name, op = self.toks[k], self.toks[k + 2]
        return name.quoted and not op.quoted and op.text in OPERATORS

    # -- context regexes ---------------------------------------------------

    def parse_context(self):
        start, slot = self.pos, None
        while True:
            tok = self.next()
            if tok.text == ";" and not tok.quoted:
                break
            if tok.text == "_" and not tok.quoted:
                if slot is not None:
                    self.err("more than one '_' in context", tok)
                slot = self.pos - 1
        if slot is None:
            self.err("context lacks '_' slot")
        semi = self.pos - 1
        sides = self._regex(start, slot), self._regex(slot + 1, semi)
        self.pos, self.end = semi + 1, len(self.toks)
        return sides

    def _regex(self, start, end):
        """The regex of the tokens start..end-1."""
        if start == end:
            return EPSILON_RE
        self.pos, self.end = start, end
        node = self._alt()
        if self.peek() is not None:
            self.err(f"unexpected {self.peek().text!r} in context regex",
                     self.peek())
        return node

    def _alt(self):
        branches = [self._seq()]
        while self.peek_op() == "|":
            self.next()
            branches.append(self._seq())
        return branches[0] if len(branches) == 1 else Alt(tuple(branches))

    def _seq(self):
        items = []
        while True:
            if self.peek() is None or self.peek_op() in (")", "|"):
                break
            items.append(self._factor())
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))

    def _factor(self):
        node = self._atom()
        while True:
            op = self.peek_op()
            if op == "*":
                self.next()
                node = Star(node)
            elif op == "+":
                self.next()
                node = Seq((node, Star(node)))
            elif op == "?" and self.peek().glued:
                self.next()
                node = Alt((node, EPSILON_RE))
            else:
                break
        return node

    def _atom(self):
        tok = self.next()
        op = None if tok.quoted else tok.text
        if op == "(":
            node = self._alt()
            close = self.next()
            if close.quoted or close.text != ")":
                self.err("unbalanced '(' in context regex", tok)
            return node
        if op == "?":
            return Atom(None, None)
        if op in ("*", "+", "|", ")"):
            self.err(f"misplaced {tok.text!r} in context regex", tok)
        l_txt, r_txt = self.split_pair(tok)
        return Atom(self._side_spec(l_txt, tok),
                    self._side_spec(r_txt if r_txt is not None else l_txt, tok))

    def _side_spec(self, text, tok):
        if text == "":
            return None  # "x:" / ":y" — open side
        if text == "0":
            return EPSILON_ID
        try:
            content = unescape(nfc(text))
        except SymbolError as exc:
            self.err(str(exc), tok)
        if content in self.sets or text in self.sets:
            return frozenset(self.sets[text if text in self.sets else content])
        sid = self.table.content_id(text)
        if sid is None:
            self.err(f"unknown set or symbol {text!r}", tok)
        return sid


def parse_twol(source: str, table: SymbolTable = None,
               filename: str = None) -> RuleSet:
    """Parse a rule file: Alphabet, optional Sets, then named rules."""
    if table is None:
        table = SymbolTable()
    ruleset = _Parser(source, table, filename).parse()
    _validate(ruleset, filename)
    return ruleset


def _validate(ruleset, filename=None):
    """Every rule center but a `<=` one must be a feasible pair."""
    for rule in ruleset.rules:
        if rule.op in ("=>", "<=>", "/<=") and \
                rule.center not in ruleset.alphabet:
            table = ruleset.table
            a, b = rule.center
            raise ParseError(
                f"rule {rule.name!r}: center pair "
                f"{table.render([a]) or '0'}:{table.render([b]) or '0'} "
                f"is not a feasible pair", filename, rule.line)


# ---------------------------------------------------------------------------
# semantics


def _side_matches(spec, sid):
    return spec is None or sid == spec or (
        isinstance(spec, frozenset) and sid in spec)


def _matches(atom, pair):
    return _side_matches(atom.left, pair[0]) and \
        _side_matches(atom.right, pair[1])


def _match_ends(node, seq, start):
    """End positions reachable by matching node on seq from start."""
    if isinstance(node, Atom):
        if start < len(seq) and _matches(node, seq[start]):
            return {start + 1}
        return set()
    if isinstance(node, Seq):
        ends = {start}
        for item in node.items:
            ends = {e for p in ends for e in _match_ends(item, seq, p)}
            if not ends:
                break
        return ends
    if isinstance(node, Alt):
        out = set()
        for item in node.items:
            out |= _match_ends(item, seq, start)
        return out
    if isinstance(node, Star):
        ends = {start}
        frontier = {start}
        while frontier:
            nxt = set()
            for p in frontier:
                nxt |= _match_ends(node.item, seq, p)
            frontier = nxt - ends
            ends |= nxt
        return ends
    raise TypeError(f"bad regex node {node!r}")


def _context_holds(rule_ctx, seq, i):
    left, right = rule_ctx
    left_ok = any(i in _match_ends(left, seq, j) for j in range(i + 1))
    if not left_ok:
        return False
    return bool(_match_ends(right, seq, i + 1))


def check_rule(rule: TwolRule, s, ruleset: RuleSet) -> bool:
    """Semantic oracle: does the feasible-pair string s satisfy the rule?

    A context (L, R) holds at i when some prefix s[0..i) ends in a match
    of L and some prefix of s[i+1..) matches R.
    """
    for pair in s:
        if pair not in ruleset.alphabet:
            raise FstMorphError(f"infeasible pair {pair!r} in rule string")
    a, b = rule.center
    for i, (l, r) in enumerate(s):
        any_holds = any(_context_holds(c, s, i) for c in rule.contexts)
        if rule.op == "=>":
            if (l, r) == (a, b) and not any_holds:
                return False
        elif rule.op == "<=":
            if l == a and any_holds and r != b:
                return False
        elif rule.op == "<=>":
            if (l, r) == (a, b) and not any_holds:
                return False
            if l == a and any_holds and r != b:
                return False
        elif rule.op == "/<=":
            if (l, r) == (a, b) and any_holds:
                return False
        else:
            raise ValueError(f"bad operator {rule.op!r}")
    return True


# ---------------------------------------------------------------------------
# compilation


def _atoms(node):
    """The Atoms of a context regex."""
    if isinstance(node, Atom):
        return {node}
    if isinstance(node, Star):
        return _atoms(node.item)
    if isinstance(node, (Seq, Alt)):
        return set().union(*map(_atoms, node.items))
    raise TypeError(f"bad regex node {node!r}")


def _pair_classes(rule, ruleset):
    """The rule's classes of feasible pairs, {first pair: [pair labels]} in
    declaration order.  Two pairs share a class when each context Atom
    matches both or neither, and so do the center and the `<=` wrong
    set (the center's lexical side with another surface side)."""
    a, b = rule.center
    atoms = set().union(*(_atoms(side) for ctx in rule.contexts
                          for side in ctx))
    classes = {}  # membership signature: (first pair, pair labels)
    for l, s in ruleset.alphabet.pairs:
        key = ((l, s) == (a, b), l == a and s != b,
               *(_matches(x, (l, s)) for x in atoms))
        classes.setdefault(key, ((l, s), []))[1].append(
            ruleset.alphabet.pair_id(l, s))
    return dict(classes.values())


def _regex_to_fst(node, table, labels):
    """The regex as an acceptor over class labels, labels being
    {first pair of a class: its label}."""
    if isinstance(node, Atom):
        ids = [c for pair, c in labels.items() if _matches(node, pair)]
        if not ids:
            return fst.empty(table)
        return fst.symbol_set_acceptor(table, ids)
    if isinstance(node, Seq):
        acc = fst.epsilon_machine(table)
        for item in node.items:
            acc = fst.concat(acc, _regex_to_fst(item, table, labels))
        return acc
    if isinstance(node, Alt):
        acc = fst.empty(table)
        for item in node.items:
            acc = fst.union(acc, _regex_to_fst(item, table, labels))
        return acc
    return fst.star(_regex_to_fst(node.item, table, labels))


def compile_rule(rule: TwolRule, ruleset: RuleSet) -> fst.Transducer:
    """Acceptor over pair labels: exactly the strings check_rule accepts.

    It is the complement of the violations: for `<=`, in_context(the
    center's lexical side with another surface side); for `/<=`,
    in_context(center); for `=>`, the unlicensed centers
    Σ*·M c M·Σ* − in_context(M c M) with M = MARKER, M then unmarked;
    for `<=>`, the union of `<=`'s and `=>`'s.

    Σ is the rule's classes of pairs (_pair_classes), labelled 1..k.
    The construction ends in the minimal DFA over them, and expanding
    each class arc to its member pairs gives the minimal DFA over the
    pairs (see the module docstring).
    """
    if rule.op not in OPERATORS:
        raise ValueError(f"bad operator {rule.op!r}")
    table = ruleset.table
    a, b = rule.center
    if rule.op != "<=" and (a, b) not in ruleset.alphabet:
        raise FstMorphError(f"rule {rule.name!r}: center pair is not feasible")
    classes = _pair_classes(rule, ruleset)
    labels = {pair: c for c, pair in enumerate(classes, 1)}
    sigma = list(labels.values())
    pi_star = fst.sigma_star(table, sigma)
    sides = [(fst.concat(pi_star, _regex_to_fst(left, table, labels)),
              fst.concat(_regex_to_fst(right, table, labels), pi_star))
             for left, right in rule.contexts]

    def in_context(center_fst):
        acc = fst.empty(table)
        for pre, suf in sides:
            acc = fst.union(acc, fst.concat(fst.concat(pre, center_fst), suf))
        return acc

    viol = fst.empty(table)
    if rule.op in ("=>", "<=>"):
        marked = fst.string_acceptor(table, [MARKER, labels[a, b], MARKER])
        unlicensed = fst.difference(
            fst.concat(fst.concat(pi_star, marked), pi_star),
            in_context(marked), sigma + [MARKER])
        viol = fst.Transducer(table, unlicensed.num_states, unlicensed.start,
                              unlicensed.finals,
                              [(src, EPSILON_ID, EPSILON_ID, dst)
                               if i == MARKER else (src, i, o, dst)
                               for src, i, o, dst in unlicensed.arcs])
    if rule.op in ("<=", "<=>"):
        wrong = [c for (l, s), c in labels.items() if l == a and s != b]
        viol = fst.union(
            viol, in_context(fst.symbol_set_acceptor(table, wrong)))
    if rule.op == "/<=":
        viol = in_context(fst.symbol_set_acceptor(table, [labels[a, b]]))
    return fst.expand_labels(fst.complement(viol, sigma),
                             dict(zip(sigma, classes.values())))


def combine_rules(ruleset: RuleSet,
                  strategy: str = "direct") -> fst.Transducer:
    """Intersection of all compiled rule acceptors over the pair alphabet.

    fst.intersect returns the minimal DFA of the intersection of the
    languages of its machines, numbered canonically, and a compiled rule
    is minimal already, so how the rules are grouped into intersects
    never changes the result, only the sizes of the machines in between
    and so the cost.  The rules are intersected in pairwise rounds,
    (r0 & r1), (r2 & r3), ..., then pairs of those.  Nothing bounds one
    product of all the rules: that of the first 17 fixture rules reaches
    35 377 state tuples for a minimal DFA of 1 248 states, and takes
    about 3 s where the rounds take about 0.2 s.  A left-to-right fold
    would intersect a product that grows towards the full result with
    one small rule at every step; in rounds, most intersections are of
    small machines, and the full-sized ones come last and few.

    Warns if the rules contradict.  No build calls this: apply_rules
    never builds the rules' intersection.

    strategy names the one combination there is, "direct"; any other
    value is a ValueError.  The parameter stays only for the benchmark
    scripts (bench/combine.py, bench/run.py), which call
    `combine_rules(ruleset, "direct")`."""
    if strategy != "direct":
        raise ValueError(f"bad combination strategy {strategy!r}")
    machines = [compile_rule(r, ruleset) for r in ruleset.rules]
    if not machines:
        return fst.sigma_star(ruleset.table, ruleset.alphabet.pair_ids())
    while len(machines) > 1:
        paired = [fst.intersect(x, y)
                  for x, y in zip(machines[::2], machines[1::2])]
        machines = paired + machines[2 * len(paired):]
    acc = machines[0]
    if fst.is_empty(acc):
        warnings.warn("rule set is contradictory: combined language is empty",
                      stacklevel=2)
    return acc


def apply_rules(lexicon: fst.Transducer, ruleset: RuleSet) -> fst.Transducer:
    """The generator: the lexicon composed through the compiled rules in
    one product (fst.compose_through).  Each lexical symbol that the
    lexicon writes becomes the surface side of a feasible pair over it,
    and insertion pairs stand anywhere, wherever every rule accepts the
    pair.  The product follows only the pair strings the lexicon reads,
    so it stays lexicon-sized, and the rules' intersection, which over
    all pair strings can explode, is never built."""
    by_lex = {}  # lexical symbol: [(pair label, surface symbol)]
    for (l, s), pid in zip(ruleset.alphabet.pairs,
                           ruleset.alphabet.pair_ids()):
        by_lex.setdefault(l, []).append((pid, s))
    rules = [compile_rule(r, ruleset) for r in ruleset.rules]
    return fst.compose_through(lexicon, rules, by_lex)
