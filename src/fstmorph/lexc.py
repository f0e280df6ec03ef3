"""Continuation-lexicon (lexc-subset) parsing and compilation.

Grammar:

    source      ::= { multichars | lexicon }
    multichars  ::= "Multichar_Symbols" symbol*        (until next keyword)
    lexicon     ::= "LEXICON" name entry*
    entry       ::= [ analysis [ ":" surface ] ] contlex [ '"' gloss '"' ] ";"

'!' starts a comment to end of line, '%' escapes the next code point,
"#" is the end-of-word continuation, a lone "0" field is epsilon.
Several files compiled together share one namespace: parse them as one
list of (filename, text) sources, read in order as if concatenated,
with each error located in its own file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fst
from .errors import ParseError, SymbolError
from .symbols import SymbolTable, find_unescaped, strip_comment

END = "#"

_KEYWORDS = ("Multichar_Symbols", "LEXICON")


@dataclass
class LexEntry:
    analysis: list  # symbol ids (lemma chars + tags)
    surface: list  # symbol ids (stem chars + triggers + archiphonemes)
    contlex: str
    gloss: str = None
    line: int = 0
    analysis_text: str = ""
    surface_text: str = None  # None when no ':' was given
    filename: str = None  # the source that line counts in


@dataclass
class LexiconAst:
    multichar_decls: list  # symbol texts, declaration order
    lexicons: dict  # name -> list of LexEntry, insertion order
    table: SymbolTable

    @property
    def root(self):
        return self.lexicons["Root"]


@dataclass
class GlossTable:
    rows: dict  # (lemma text, POS tag) -> list of gloss strings

    def lookup(self, lemma, pos):
        return self.rows.get((lemma, pos), [])


def _split_fields(line, lineno, filename):
    """Whitespace-split honoring '%' escapes and one quoted gloss."""
    fields = []
    gloss = None
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
        elif line[i] == '"':
            j = line.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated gloss quote", filename, lineno)
            if gloss is not None:
                raise ParseError("more than one gloss on entry", filename, lineno)
            gloss = line[i + 1 : j]
            if "\t" in gloss:  # glosses.tsv is tab-separated
                raise ParseError("tab in gloss", filename, lineno)
            i = j + 1
        else:
            j = find_unescaped(line, lambda c: c.isspace() or c == '"', i)
            fields.append(line[i:j])
            i = j
    return fields, gloss


def _split_entry_pair(text):
    """Split analysis:surface at the first unescaped ':'."""
    i = find_unescaped(text, ":".__eq__)
    if i == len(text):
        return text, None
    return text[:i], text[i + 1 :]


def _ends_entry(field):
    """Whether the field's last code point is an unescaped ';'."""
    i = -1
    while i < len(field) - 1:
        i = find_unescaped(field, ";".__eq__, i + 1)
    return i == len(field) - 1


def parse_lexc(source, table: SymbolTable = None,
               filename: str = None) -> LexiconAst:
    """Parse one source text named filename, or a list of (filename,
    text) sources that share one namespace: the parse runs on from one
    source into the next, and line numbers count within each source."""
    sources = [(filename, source)] if isinstance(source, str) else source
    if table is None:
        table = SymbolTable()
    multichar_decls = []
    lexicons = {}
    current = None  # (name, entries)
    mode = None  # None | "multichar" | "lexicon"
    pending = []  # raw entry fields awaiting ';' (entries may span lines)
    pending_gloss = None
    pending_line = 0
    pending_file = None

    def flush_entry():
        nonlocal pending, pending_gloss
        fields = pending
        gloss = pending_gloss
        pending = []
        pending_gloss = None
        if not fields:
            raise ParseError("empty entry", pending_file, pending_line)
        if current is None:
            raise ParseError("entry outside any LEXICON", pending_file,
                             pending_line)
        contlex = fields[-1]
        if len(fields) > 2:
            raise ParseError(
                f"too many fields in entry: {' '.join(fields)!r}",
                pending_file, pending_line)
        if len(fields) == 2:
            ana_txt, sur_txt = _split_entry_pair(fields[0])
        else:
            ana_txt, sur_txt = "", None
        try:
            analysis = table.tokenize(ana_txt) if ana_txt else []
            surface = (table.tokenize(sur_txt) if sur_txt is not None
                       else analysis)
        except SymbolError as exc:
            raise ParseError(str(exc), pending_file, pending_line) from None
        current[1].append(
            LexEntry(
                [s.id for s in analysis],
                [s.id for s in surface],
                contlex,
                gloss,
                pending_line,
                ana_txt,
                sur_txt,
                pending_file,
            )
        )

    lines = ((path, lineno, raw) for path, text in sources
             for lineno, raw in enumerate(text.splitlines(), 1))
    for filename, lineno, raw in lines:
        line = strip_comment(raw)
        if not line.strip():
            continue
        fields, gloss = _split_fields(line, lineno, filename)
        if fields and fields[0] == "Multichar_Symbols":
            mode = "multichar"
            fields = fields[1:]
        if fields and fields[0] == "LEXICON":
            if len(fields) < 2:
                raise ParseError("LEXICON without a name", filename, lineno)
            name = fields[1]
            if name in lexicons:
                raise ParseError(f"duplicate LEXICON {name!r}", filename, lineno)
            lexicons[name] = []
            current = (name, lexicons[name])
            mode = "lexicon"
            fields = fields[2:]
        if mode == "multichar":
            for f in fields:
                try:
                    table.declare_multichar(f)
                except SymbolError as exc:
                    raise ParseError(str(exc), filename, lineno) from None
                multichar_decls.append(f)
            continue
        if mode is None and fields:
            raise ParseError(
                f"unexpected {fields[0]!r} before any section", filename, lineno)
        # entry material, possibly continuing a previous line
        if gloss is not None:
            if pending_gloss is not None:
                raise ParseError("more than one gloss on entry", filename, lineno)
            pending_gloss = gloss
        for f in fields:
            if not pending:
                pending_file, pending_line = filename, lineno
            if not _ends_entry(f):
                pending.append(f)
                continue
            if f != ";":
                pending.append(f[:-1])
            flush_entry()
    if pending or pending_gloss is not None:
        raise ParseError("entry not terminated by ';'", pending_file,
                         pending_line)

    ast = LexiconAst(multichar_decls, lexicons, table)
    _validate(ast, sources[0][0] if len(sources) == 1 else None)
    return ast


def _validate(ast, filename=None):
    """filename names the one source, if there is one, for an error that
    no single entry locates."""
    if "Root" not in ast.lexicons:
        raise ParseError("no LEXICON Root defined", filename)
    for name, entries in ast.lexicons.items():
        for e in entries:
            if e.contlex != END and e.contlex not in ast.lexicons:
                raise ParseError(
                    f"undefined continuation lexicon {e.contlex!r}"
                    f" (referenced from {name})", e.filename, e.line)


def contlex_cycles(ast: LexiconAst) -> list:
    """Cycles in the continuation graph (legal: compounding), as name lists."""
    graph = {
        name: {e.contlex for e in entries if e.contlex != END}
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


def compile_lexicon(ast: LexiconAst) -> fst.Transducer:
    """One sub-network per lexicon; every entry is an analysis:surface
    arc chain ending in an epsilon transition into its continuation."""
    table = ast.table
    state_of = {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    for name in ast.lexicons:
        state_of[name] = fresh()
    final = fresh()
    state_of[END] = final

    arcs = []
    for name, entries in ast.lexicons.items():
        for e in entries:
            cur = state_of[name]
            n = max(len(e.analysis), len(e.surface))
            for k in range(n):
                i = e.analysis[k] if k < len(e.analysis) else fst.EPSILON_ID
                o = e.surface[k] if k < len(e.surface) else fst.EPSILON_ID
                nxt = fresh()
                arcs.append((cur, i, o, nxt))
                cur = nxt
            arcs.append((cur, fst.EPSILON_ID, fst.EPSILON_ID,
                         state_of[e.contlex]))
    return fst._trim(table, counter[0], state_of["Root"], {final}, arcs)


def extract_glosses(ast: LexiconAst) -> GlossTable:
    """Rows for entries that carry both a POS tag and a gloss."""
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
    return GlossTable(rows)


def split_lemma_pos(analysis_ids, table):
    """Lemma text and first tag of an analysis-side symbol sequence."""
    lemma = []
    pos = None
    for sid in analysis_ids:
        text = table.resolve(sid)
        if text.startswith("+"):
            pos = text
            break
        lemma.append(text)
    return "".join(lemma), pos


def pretty(ast: LexiconAst) -> str:
    """Canonical re-rendering; re-parsing yields an equivalent AST."""
    out = []
    if ast.multichar_decls:
        out.append("Multichar_Symbols")
        out.append("  " + " ".join(ast.multichar_decls))
        out.append("")
    for name, entries in ast.lexicons.items():
        out.append(f"LEXICON {name}")
        for e in entries:
            parts = []
            if e.analysis_text or e.surface_text is not None:
                if e.surface_text is not None:
                    parts.append(f"{e.analysis_text}:{e.surface_text}")
                else:
                    parts.append(e.analysis_text)
            parts.append(e.contlex)
            if e.gloss is not None:
                parts.append(f'"{e.gloss}"')
            parts.append(";")
            out.append("  " + " ".join(parts))
        out.append("")
    return "\n".join(out)
