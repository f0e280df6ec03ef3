"""End-to-end generator/analyzer assembly and apply-up/apply-down lookup.

The generator is the lexicon with the two-level rules applied
(twol.apply_rules); the analyzer is its inversion.  Two orthography
modes are supported:

* pedagogical (default): surface forms keep the enriched spelling; the
  analyzer additionally accepts the normative spelling of each form.
* normative: the generator's surface side is relabelled by the
  orthography map, so no pedagogical-only symbol ever surfaces.

Each map relabels the arcs of one side of a machine (fst.relabel).  A
Pipeline holds what an artifact directory stores: the generator, the
orthography and relax maps, and the glosses.  Its analyzer and relaxed
analyzer are derived from those on first use.

A spell-relax map, when configured, lets analysis fall back to
orthographic variants; such readings carry relaxed=True.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """What an artifact directory stores, and the two analyzers derived
    from it, each built on first use: compile, generation and cold starts
    skip them."""
    table: SymbolTable
    generator: fst.Transducer
    orthography: dict = field(default_factory=dict)  # {ped. id: [norm. id]}
    relax: dict = field(default_factory=dict)  # {strict id: [variant ids]}
    glosses: dict = field(default_factory=dict)  # as lexc.extract_glosses

    @cached_property
    def analyzer(self) -> fst.Transducer:
        """The inverted generator, also reading the normative spelling of
        each symbol that the orthography maps: no arc of a normative
        generator writes one."""
        analyzer = fst.invert(self.generator)
        if self.orthography:
            analyzer = fst.relabel(analyzer, self.orthography, "input",
                                   keep=True)
        return analyzer

    @cached_property
    def relaxed_analyzer(self) -> fst.Transducer:
        """The analyzer with its input side relabelled by the relax map,
        the strict arcs kept, so that it also reads each variant."""
        return fst.relabel(self.analyzer, self.relax, "input", keep=True)


def _check_leaks(generator, table):
    leaked = sorted(
        table.resolve(o) for o in generator.output_labels()
        if table.is_multichar(o))
    if leaked:
        raise PipelineError(
            "trigger or archiphoneme symbols leak to the surface: "
            + ", ".join(leaked)
            + " (no rule realizes them; check the rule file's Alphabet)")


def build_pipeline(lexicon_ast: lexc.LexiconAst, ruleset: twol.RuleSet,
                   mode: str = "pedagogical", orthography=None,
                   relax_spec=None) -> Pipeline:
    """Assemble generator and analyzer from parsed lexicon and rules.

    orthography: {pedagogical id: [normative id]}; required in normative
    mode, used for accept-both analysis in pedagogical mode.
    relax_spec: {strict id: [variant ids]} or None.
    """
    if mode not in MODES:
        raise FstMorphError(f"unknown mode {mode!r}")
    table = lexicon_ast.table
    lexicon = lexc.compile_lexicon(lexicon_ast)
    generator = twol.apply_rules(lexicon, ruleset)
    if fst.is_empty(generator):
        sample = fst.enumerate_paths(lexicon, 40, 1).pairs
        hint = ""
        if sample:
            hint = (" (example lexicon string with no rule-conforming "
                    f"realization: {table.render(sample[0][0])!r})")
        raise PipelineError("generator relation is empty: no lexicon "
                            "string passes the rules" + hint)
    _check_leaks(generator, table)

    if mode == "normative":
        if not orthography:
            raise FstMorphError("normative mode requires an orthography "
                                "mapping")
        generator = fst.relabel(generator, orthography, "output")
    generator = fst.encoded_minimize(generator)
    return Pipeline(table, generator, orthography or {}, relax_spec or {},
                    lexc.extract_glosses(lexicon_ast))


def _tokenize_strict(table, text):
    return [s.id for s in table.tokenize(text, intern_new=False)]


def generate(pipeline: Pipeline, analysis: str, max_count: int = 100) -> list:
    """Apply-down: analysis string → surface forms."""
    ids = _tokenize_strict(pipeline.table, analysis)
    paths = fst.lookup_paths(pipeline.generator, ids, max_count)
    return sorted({pipeline.table.render(out) for _, out in paths.pairs})


def _analyses(pipeline, paths, relaxed):
    """One Analysis per distinct output text, its glosses found from the
    lemma and POS of the output symbols (the text is never re-read)."""
    table = pipeline.table
    outputs = {}
    for _, out in paths.pairs:
        outputs.setdefault(table.render(out), out)
    result = []
    for text, out in sorted(outputs.items()):
        lemma, pos = lexc.split_lemma_pos(out, table)
        glosses = pipeline.glosses.get((lemma, pos), [])
        result.append(Analysis(text, relaxed, glosses))
    return result


def analyze(pipeline: Pipeline, surface: str, max_count: int = 100) -> list:
    """Apply-up: surface form → analyses; falls back to spell-relaxed
    readings (relaxed=True) only when the strict analysis is empty."""
    ids = _tokenize_strict(pipeline.table, surface)
    strict = fst.lookup_paths(pipeline.analyzer, ids, max_count)
    if strict.pairs:
        return _analyses(pipeline, strict, False)
    if not pipeline.relax:
        return []
    return _analyses(pipeline, fst.lookup_paths(
        pipeline.relaxed_analyzer, ids, max_count), True)


def load_pipeline(lexc_texts, twol_text, mode: str = "pedagogical",
                  orthography_text=None, relax_text=None) -> Pipeline:
    """Parse lexicon and rule sources into one shared symbol table and
    assemble the pipeline.  Multiple lexicon files share a namespace."""
    table = SymbolTable()
    ast = lexc.parse_lexc([(None, text) for text in lexc_texts], table)
    ruleset = twol.parse_twol(twol_text, table)
    orthography = (None if orthography_text is None
                   else parse_orthography_file(orthography_text, table))
    relax_spec = (None if relax_text is None
                  else parse_mapping_file(relax_text, table))
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
    symbol may be absent.  Returns {symbol id: [variant ids]}."""
    rows = {}
    for _, key, variant in _mapping_rows(text, table, filename):
        rows.setdefault(key, []).append(variant)
    return rows


def parse_orthography_file(text, table, filename=None):
    """A mapping file read as pedagogical → normative spelling, one row
    per pedagogical symbol.  Returns {pedagogical id: [normative id]}.
    A second row for one symbol, or a symbol that is both a
    normative spelling and a pedagogical key, is an error located at the
    later of the two rows."""
    mapping, line_of, normative = {}, {}, {}
    for lineno, key, variant in _mapping_rows(text, table, filename):
        where = f"{filename or '<mapping>'}:{lineno}"
        if key in line_of:
            raise FstMorphError(
                f"{where}: second normative spelling for "
                f"{table.resolve(key)!r} (first on line {line_of[key]})")
        line_of[key] = lineno
        normative.setdefault(variant, lineno)
        for sym in (key, variant):
            if sym in line_of and sym in normative:
                raise FstMorphError(
                    f"{where}: normative symbol {table.resolve(sym)!r} is "
                    "also a pedagogical key (on line "
                    f"{min(line_of[sym], normative[sym])})")
        mapping[key] = [variant]
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

    rows = sorted((cell(k), cell(v)) for k, variants in spec.items()
                  for v in variants)
    return "".join(f"{k}\t{v}\n" for k, v in rows)
