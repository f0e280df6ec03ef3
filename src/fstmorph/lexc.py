"""Continuation-lexicon (lexc-subset) parsing and compilation.

Grammar:

    source      ::= { multichars | lexicon }
    multichars  ::= "Multichar_Symbols" symbol*        (until next keyword)
    lexicon     ::= "LEXICON" name entry*
    entry       ::= [ analysis [ ":" surface ] ] contlex [ '"' gloss '"' ] ";"

The source is read as symbols.lex_lines tokens: '!' starts a comment to
end of line, '%' escapes the next code point, and a '"' quote runs to
the next '"' on its line.  "#" is the end-of-word continuation, a lone
"0" field is epsilon.  Line breaks do not matter inside an entry: it is
the run of tokens up to the first unquoted one that ends in an
unescaped ';', and a quoted token in that run, wherever it stands, is
its gloss.  An entry is located at the file and line of its first
field.  "LEXICON" and "Multichar_Symbols" are keywords only as the first
unquoted token of a line; the rest of that line belongs to the section
they open, and an entry still open there is an error, as is a quoted
token among the Multichar_Symbols.  Several files compiled together
share one namespace: parse them as one list of (filename, text)
sources, read in order as if concatenated, with each error located in
its own file.  Every Multichar_Symbols block of every file is declared
before any entry is tokenized, so the order of the files, or of the
sections in a file, does not change how an entry reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from . import fst
from .errors import ParseError, SymbolError
from .symbols import SymbolTable, find_unescaped, lex_lines, split_lemma_pos

END = "#"

_KEYWORDS = ("Multichar_Symbols", "LEXICON")


@dataclass
class LexEntry:
    analysis: list  # symbol ids (lemma chars + tags)
    surface: list  # symbol ids (stem chars + triggers + archiphonemes)
    contlex: str
    gloss: str = None
    line: int = 0
    filename: str = None  # the source that line counts in


@dataclass
class LexiconAst:
    lexicons: dict  # name -> list of LexEntry, insertion order
    table: SymbolTable

    @property
    def root(self):
        return self.lexicons["Root"]


def _split_entry_pair(text):
    """Split analysis:surface at the first unescaped ':'."""
    i = find_unescaped(text, ":".__eq__)
    if i == len(text):
        return text, None
    return text[:i], text[i + 1 :]


def _ends_entry(field):
    """Whether the field's last code point is an unescaped ';'."""
    if not field.endswith(";"):  # spares most fields the escape scan
        return False
    i = -1
    while i < len(field) - 1:
        i = find_unescaped(field, ";".__eq__, i + 1)
    return i == len(field) - 1


def _entry(fields, gloss, start, table):
    """The LexEntry of an entry's fields, gloss token and first field."""
    if not fields:
        raise ParseError("empty entry", start.file, start.line)
    if len(fields) > 2:
        raise ParseError(f"too many fields in entry: {' '.join(fields)!r}",
                         start.file, start.line)
    ana_txt, sur_txt = (_split_entry_pair(fields[0]) if len(fields) == 2
                        else ("", None))
    try:
        analysis = table.tokenize(ana_txt) if ana_txt else []
        surface = table.tokenize(sur_txt) if sur_txt is not None else analysis
    except SymbolError as exc:
        raise ParseError(str(exc), start.file, start.line) from None
    return LexEntry([s.id for s in analysis], [s.id for s in surface],
                    fields[-1], gloss and gloss.text, start.line, start.file)


def parse_lexc(source, table: SymbolTable = None,
               filename: str = None) -> LexiconAst:
    """Parse one source text named filename, or a list of (filename,
    text) sources that share one namespace: the parse runs on from one
    source into the next, and line numbers count within each source."""
    sources = [(filename, source)] if isinstance(source, str) else source
    if table is None:
        table = SymbolTable()
    lexicons = {}
    entries = None  # the current LEXICON's
    pending = []  # (its LEXICON's entries, fields, gloss, first field)
    mode = None  # None | "multichar" | "lexicon"
    fields, gloss, start = [], None, None  # the open entry

    def unterminated():
        tok = start or gloss
        return ParseError("entry not terminated by ';'", tok.file, tok.line)

    for toks in lex_lines(sources, "gloss"):
        words = [tok for tok in toks if not tok.quoted]
        if words and words[0].text in _KEYWORDS:
            if fields or gloss:
                raise unterminated()
            mode, at = "multichar", (words[0].file, words[0].line)
            if words[0].text == "LEXICON":
                if len(words) < 2:
                    raise ParseError("LEXICON without a name", *at)
                name = words[1].text
                if name in lexicons:
                    raise ParseError(f"duplicate LEXICON {name!r}", *at)
                entries = lexicons[name] = []
                mode = "lexicon"
            # tokens compare by value, and only quoted ones stand before
            # these words, so remove takes the words themselves
            for word in words[:1 + (mode == "lexicon")]:
                toks.remove(word)
        for tok in toks:
            if mode == "multichar":
                if tok.quoted:
                    raise ParseError(f"quoted {tok.text!r} in "
                                     "Multichar_Symbols", tok.file, tok.line)
                try:
                    table.declare_multichar(tok.text)
                except SymbolError as exc:
                    raise ParseError(str(exc), tok.file, tok.line) from None
            elif tok.quoted:
                if gloss or "\t" in tok.text:  # glosses.tsv is tab-separated
                    raise ParseError("more than one gloss on entry" if gloss
                                     else "tab in gloss", tok.file, tok.line)
                gloss = tok
            elif mode is None:
                raise ParseError(f"unexpected {tok.text!r} before any section",
                                 tok.file, tok.line)
            else:
                start = start or tok
                if not _ends_entry(tok.text):
                    fields.append(tok.text)
                    continue
                if tok.text != ";":
                    fields.append(tok.text[:-1])
                pending.append((entries, fields, gloss, start))
                fields, gloss, start = [], None, None
    if fields or gloss:
        raise unterminated()
    for entries, fields, gloss, start in pending:
        entries.append(_entry(fields, gloss, start, table))

    ast = LexiconAst(lexicons, table)
    _validate(ast, [name for name, _ in sources])
    return ast


def _validate(ast, filenames):
    """filenames name the sources, for an error that no single entry
    locates: the one source is its location, and several are named."""
    if "Root" not in ast.lexicons:
        if len(filenames) == 1:
            raise ParseError("no LEXICON Root defined", filenames[0])
        named = ", ".join(str(f) for f in filenames if f is not None)
        raise ParseError("no LEXICON Root defined"
                         + (f" in {named}" if named else ""))
    for name, entries in ast.lexicons.items():
        for e in entries:
            if e.contlex != END and e.contlex not in ast.lexicons:
                raise ParseError(
                    f"undefined continuation lexicon {e.contlex!r}"
                    f" (referenced from {name})", e.filename, e.line)


def compile_lexicon(ast: LexiconAst) -> fst.Transducer:
    """The lexicon's analysis:surface relation as a minimal machine.

    Each lexicon has a fixed start state, and END is the one final
    state.  Between them a lexicon is a finite set of in:out pair
    strings, the shorter side of an entry padded with epsilon, each
    string followed by an epsilon arc into its continuation: acyclic,
    even where continuations make the whole lexicon cyclic.  So each
    lexicon is built as a trie over the pairs, rooted at its start
    state, whose nodes record the continuations their entries end in.
    Equal subtrees are merged bottom-up through one register keyed by a
    node's signature, its sorted arcs: (in, out, merged child), and an
    epsilon arc into each continuation (Revuz, TCS 1992; Daciuk et al.,
    Computational Linguistics 2000).  fst.encoded_minimize then finishes
    a machine that is already almost minimal."""
    eps = fst.EPSILON_ID
    state_of = {name: k for k, name in enumerate([*ast.lexicons, END])}
    # trie node k < len(ast.lexicons) is the root of the k-th lexicon
    children = [{} for _ in ast.lexicons]  # per node, {(in, out): node}
    conts = [set() for _ in ast.lexicons]  # per node, continuation states
    for root, entries in enumerate(ast.lexicons.values()):
        for e in entries:
            node = root
            for pair in zip_longest(e.analysis, e.surface, fillvalue=eps):
                nxt = children[node].get(pair)
                if nxt is None:
                    nxt = children[node][pair] = len(children)
                    children.append({})
                    conts.append(set())
                node = nxt
            conts[node].add(state_of[e.contlex])

    # a child is made after its parent, so walking the nodes backwards
    # meets every child first: a post-order with no recursion, which an
    # entry thousands of symbols long would overflow
    num_states = len(state_of)
    state = [None] * len(children)
    register = {}  # signature of a merged subtree: its state
    arcs = []
    for node in reversed(range(len(children))):
        sig = tuple(sorted(
            [(i, o, state[c]) for (i, o), c in children[node].items()]
            + [(eps, eps, t) for t in conts[node]]))
        if node < len(ast.lexicons):  # a start state is never merged
            state[node] = node
        elif sig in register:
            state[node] = register[sig]
            continue
        else:
            state[node] = register[sig] = num_states
            num_states += 1
        arcs += [(state[node], *arc) for arc in sig]
    return fst.encoded_minimize(fst.Transducer(
        ast.table, num_states, state_of["Root"], {state_of[END]}, arcs))


def extract_glosses(ast: LexiconAst) -> dict:
    """{(lemma text, POS tag): [gloss, ...]} for the entries that carry
    both a POS tag and a gloss."""
    table = ast.table
    rows = {}
    for entries in ast.lexicons.values():
        for e in entries:
            if e.gloss is None:
                continue
            lemma, pos = split_lemma_pos(e.analysis, table)
            if pos is None:
                continue
            rows.setdefault((lemma, pos), []).append(e.gloss)
    return rows
