"""End-to-end generator/analyzer assembly and apply-up/apply-down lookup.

The generator is the lexicon composed with the compiled rule transducer;
the analyzer is its inversion.  Two orthography modes are supported:

* pedagogical (default): surface forms keep the enriched spelling; the
  analyzer additionally accepts the normative spelling of each form.
* normative: the orthography filter is composed onto the surface side,
  so no pedagogical-only symbol ever surfaces.

A spell-relax transducer, when configured, lets analysis fall back to
orthographic variants; such readings carry relaxed=True.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fst, lexc, twol
from .errors import FstMorphError, PipelineError, SymbolError
from .symbols import EPSILON_ID, SymbolTable

MODES = ("pedagogical", "normative")


@dataclass
class Analysis:
    text: str
    relaxed: bool = False
    glosses: list = field(default_factory=list)

    def __str__(self):
        return self.text


@dataclass
class Pipeline:
    table: SymbolTable
    generator: fst.Transducer
    analyzer: fst.Transducer
    mode: str
    relax: fst.Transducer = None
    glosses: lexc.GlossTable = None
    _relaxed_analyzer: fst.Transducer = field(default=None, init=False,
                                              repr=False, compare=False)

    def relaxed_analyzer(self) -> fst.Transducer:
        """The analyzer read through the inverted relax map: surface
        variants in, analyses out.  Built on the first relaxed lookup and
        kept, so neither compile nor a cold start pays for it."""
        if self._relaxed_analyzer is None:
            self._relaxed_analyzer = fst.compose(fst.invert(self.relax),
                                                 self.analyzer)
        return self._relaxed_analyzer


def _mapping_transducer(table, alphabet_ids, mapping, keep_original):
    """One-state transducer: identity over alphabet_ids except that each
    key of mapping rewrites to its variants (and, if keep_original, may
    also stay put).  A variant of EPSILON_ID deletes the key."""
    arcs = []
    seen_keys = set()
    mapped = set()
    for key, variants in mapping:
        if key in seen_keys:
            raise FstMorphError(
                f"duplicate mapping for symbol {table.resolve(key)!r}")
        seen_keys.add(key)
        for v in variants:
            arcs.append((0, key, v, 0))
            mapped.add(v)
        if keep_original:
            arcs.append((0, key, key, 0))
    for sid in set(alphabet_ids) | mapped:
        if sid != EPSILON_ID and sid not in seen_keys:
            arcs.append((0, sid, sid, 0))
    return fst._trim(table, 1, 0, {0}, arcs)


def build_orthography_filter(table, mapping, alphabet_ids) -> fst.Transducer:
    """Strict pedagogical→normative rewriting, identity elsewhere.

    mapping: list of (pedagogical symbol id, normative symbol id).
    """
    if not mapping:
        raise FstMorphError("orthography mapping is empty")
    keys = {k for k, _ in mapping}
    for _, v in mapping:
        if v in keys:
            raise FstMorphError(
                f"normative symbol {table.resolve(v)!r} is also a "
                "pedagogical key")
    return _mapping_transducer(
        table, alphabet_ids, [(k, [v]) for k, v in mapping],
        keep_original=False)


def build_relax(table, spec, alphabet_ids) -> fst.Transducer:
    """Surface→surface transducer reading each strict symbol also from
    its accepted variants (EPSILON_ID variant: the symbol may be absent).

    spec: list of (strict symbol id, list of variant ids).
    """
    return _mapping_transducer(table, alphabet_ids, spec, keep_original=True)


def _check_leaks(generator, table):
    leaked = sorted(
        table.resolve(o) for o in generator.output_labels()
        if table.is_multichar(o))
    if leaked:
        raise PipelineError(
            "trigger or archiphoneme symbols leak to the surface: "
            + ", ".join(leaked)
            + " (no rule realizes them; check the rule file's Alphabet)")


def _sample_path(machine, max_len=40):
    paths = fst.enumerate_paths(machine, max_len, 1)
    return paths.pairs[0] if paths.pairs else None


def _restricted_rules(lexicon, ruleset):
    """Rule transducer restricted to the lexicon's stem-side strings.

    Intersecting the full rule set over the whole pair alphabet can
    explode; constraining the pair strings to those whose lexical
    projection the lexicon actually emits (with insertion pairs allowed
    anywhere) keeps every intermediate automaton lexicon-sized while
    leaving the composed generator unchanged.
    """
    table = ruleset.table
    stems = fst.minimize(fst.project(lexicon, side="output"))
    by_lex = {}
    insertions = []
    for pid in ruleset.alphabet.pair_ids():
        l, _ = table.pair_parts(pid)
        if l == EPSILON_ID:
            insertions.append(pid)
        else:
            by_lex.setdefault(l, []).append(pid)
    arcs = []
    for src, i, _, dst in stems.arcs:
        for pid in by_lex.get(i, ()):
            arcs.append((src, pid, pid, dst))
    for q in range(stems.num_states):
        for pid in insertions:
            arcs.append((q, pid, pid, q))
    domain = fst._trim(table, stems.num_states, stems.start, stems.finals,
                       arcs)
    return twol.pairs_to_transducer(
        twol.combine_rules(ruleset, domain=domain), table)


def build_pipeline(lexicon_ast: lexc.LexiconAst, ruleset: twol.RuleSet,
                   mode: str = "pedagogical", orthography=None,
                   relax_spec=None) -> Pipeline:
    """Assemble generator and analyzer from parsed lexicon and rules.

    orthography: list of (pedagogical id, normative id); required in
    normative mode, used for accept-both analysis in pedagogical mode.
    relax_spec: list of (strict id, [variant ids]) or None.
    """
    if mode not in MODES:
        raise FstMorphError(f"unknown mode {mode!r}")
    table = lexicon_ast.table
    lexicon = lexc.compile_lexicon(lexicon_ast)
    rules = _restricted_rules(lexicon, ruleset)
    generator = fst.compose(lexicon, rules)
    if fst.is_empty(generator):
        sample = _sample_path(lexicon)
        hint = ""
        if sample is not None:
            hint = (" (example lexicon string with no rule-conforming "
                    f"realization: {table.render(sample[0])!r})")
        raise PipelineError("generator relation is empty: no lexicon "
                            "string passes the rules" + hint)
    _check_leaks(generator, table)

    surf = generator.output_labels()
    analyzer_source = generator
    if mode == "normative":
        if not orthography:
            raise FstMorphError("normative mode requires an orthography "
                                "mapping")
        filt = build_orthography_filter(table, orthography, surf)
        generator = fst.compose(generator, filt)
        analyzer_source = generator
    elif orthography:
        # Accept the normative spelling of every form as well.
        opt = _mapping_transducer(
            table, surf, [(k, [v]) for k, v in orthography],
            keep_original=True)
        analyzer_source = fst.compose(generator, opt)

    analyzer = fst.invert(analyzer_source)
    relax = None
    if relax_spec:
        relax = build_relax(table, relax_spec,
                            analyzer_source.output_labels())
    return Pipeline(table, generator, analyzer, mode, relax,
                    lexc.extract_glosses(lexicon_ast))


def _tokenize_strict(table, text):
    return [s.id for s in table.tokenize(text, intern_new=False)]


def _output_texts(table, paths):
    return sorted({table.render(out) for _, out in paths.pairs})


def generate(pipeline: Pipeline, analysis: str, max_count: int = 100,
             max_len: int = 200) -> list:
    """Apply-down: analysis string → surface forms."""
    ids = _tokenize_strict(pipeline.table, analysis)
    paths = fst.lookup_paths(pipeline.generator, ids, max_len, max_count)
    return _output_texts(pipeline.table, paths)


def _analyses(pipeline, paths, relaxed):
    """One Analysis per distinct output text, its glosses found from the
    lemma and POS of the output symbols (the text is never re-read)."""
    table = pipeline.table
    outputs = {}
    for _, out in paths.pairs:
        outputs.setdefault(table.render(out), out)
    result = []
    for text, out in sorted(outputs.items()):
        glosses = []
        if pipeline.glosses is not None:
            lemma, pos = lexc.split_lemma_pos(out, table)
            if pos is not None:
                glosses = pipeline.glosses.lookup(lemma, pos)
        result.append(Analysis(text, relaxed, glosses))
    return result


def analyze(pipeline: Pipeline, surface: str, max_count: int = 100,
            max_len: int = 200) -> list:
    """Apply-up: surface form → analyses; falls back to spell-relaxed
    readings (relaxed=True) only when the strict analysis is empty."""
    ids = _tokenize_strict(pipeline.table, surface)
    strict = fst.lookup_paths(pipeline.analyzer, ids, max_len, max_count)
    if strict.pairs:
        return _analyses(pipeline, strict, False)
    if pipeline.relax is None:
        return []
    return _analyses(pipeline, fst.lookup_paths(
        pipeline.relaxed_analyzer(), ids, max_len, max_count), True)


def load_pipeline(lexc_texts, twol_text, mode: str = "pedagogical",
                  orthography_text=None, relax_text=None) -> Pipeline:
    """Parse lexicon and rule sources into one shared symbol table and
    assemble the pipeline.  Multiple lexicon files share a namespace."""
    table = SymbolTable()
    ast = lexc.parse_lexc([(None, text) for text in lexc_texts], table)
    ruleset = twol.parse_twol(twol_text, table)
    orthography = None
    if orthography_text is not None:
        orthography = parse_orthography_file(orthography_text, table)
    relax_spec = None
    if relax_text is not None:
        relax_spec = parse_mapping_file(relax_text, table)
    return build_pipeline(ast, ruleset, mode, orthography, relax_spec)


def _mapping_rows(text, table, filename):
    """(line number, symbol id, variant id) of each row of a two-column
    TSV of symbol → variant; '0' in column 2 is EPSILON_ID."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise FstMorphError(
                f"{filename or '<mapping>'}:{lineno}: expected two "
                f"tab-separated columns, got {raw!r}")
        try:
            key = table.symbol_for(cols[0]).id
            variant = (EPSILON_ID if cols[1] == "0"
                       else table.symbol_for(cols[1]).id)
        except SymbolError as exc:
            raise FstMorphError(
                f"{filename or '<mapping>'}:{lineno}: {exc}") from None
        yield lineno, key, variant


def parse_mapping_file(text, table, filename=None):
    """Two-column TSV of symbol → variant; '0' in column 2 means the
    symbol may be absent.  Returns list of (symbol id, [variant ids])."""
    rows = {}
    for _, key, variant in _mapping_rows(text, table, filename):
        rows.setdefault(key, []).append(variant)
    return list(rows.items())


def parse_orthography_file(text, table, filename=None):
    """A mapping file read as pedagogical → normative spelling, one row
    per pedagogical symbol.  Returns list of (pedagogical id, normative
    id); a second row for one symbol is an error located at that row."""
    mapping, line_of = [], {}
    for lineno, key, variant in _mapping_rows(text, table, filename):
        if key in line_of:
            raise FstMorphError(
                f"{filename or '<mapping>'}:{lineno}: second normative "
                f"spelling for {table.resolve(key)!r} (first on line "
                f"{line_of[key]})")
        line_of[key] = lineno
        mapping.append((key, variant))
    return mapping


def format_mapping_file(spec, table) -> str:
    """Canonical text of a mapping, one sorted row per (symbol, variant),
    that parse_mapping_file reads back to the same mapping."""
    def cell(sid):
        if sid == EPSILON_ID:
            return "0"
        text = table.resolve(sid)
        return ("%" + text if text in ("0", "%") or text.startswith("#")
                else text)

    rows = sorted((cell(k), cell(v)) for k, variants in spec
                  for v in variants)
    return "".join(f"{k}\t{v}\n" for k, v in rows)
