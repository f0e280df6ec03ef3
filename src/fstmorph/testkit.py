"""Regression-suite runner and coverage statistics.

Suite format, one case per line:

    analysis: surface
    analysis: [form1, form2]
    # comment, on a line of its own

A bracketed right-hand side lists several accepted forms.  Duplicate
analysis keys merge their surface sets.  Generation must match
the expected set exactly (over-generation fails); analysis only needs to
contain the expected reading among its results (homonyms are fine).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import fst, lexc, lookup
from .errors import ParseError
from .symbols import UnknownSymbolError

DIRECTIONS = ("gen", "ana", "both")


@dataclass
class TestCase:
    analysis: str
    expected_surfaces: set
    line: int = 0


@dataclass
class CaseResult:
    direction: str
    analysis: str
    expected: list
    got: list
    status: str  # "pass" | "fail"


@dataclass
class TestReport:
    results: list = field(default_factory=list)

    @property
    def totals(self):
        out = {}
        for r in self.results:
            bucket = out.setdefault(r.direction, {"pass": 0, "fail": 0})
            bucket[r.status] += 1
        return out

    @property
    def all_passed(self):
        return all(r.status == "pass" for r in self.results)

    def to_text(self):
        lines = []
        for r in self.results:
            if r.status == "pass":
                lines.append(f"PASS {r.direction} {r.analysis}")
            else:
                lines.append(
                    f"FAIL {r.direction} {r.analysis}: expected "
                    f"{r.expected}, got {r.got}")
        for direction in sorted(self.totals):
            t = self.totals[direction]
            lines.append(
                f"{direction}: {t['pass']} passed, {t['fail']} failed")
        return "\n".join(lines) + "\n"

    def to_json_lines(self):
        lines = []
        for r in self.results:
            lines.append(json.dumps(
                {"direction": r.direction, "analysis": r.analysis,
                 "expected": r.expected, "got": r.got, "status": r.status},
                ensure_ascii=False, sort_keys=True))
        return "\n".join(lines) + "\n"


def parse_suite(source: str, filename: str = None) -> list:
    cases = []
    by_analysis = {}
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.split("#", 1)[0].strip() if raw.lstrip().startswith("#") \
            else raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'analysis: surface'", filename, lineno)
        analysis, _, rhs = line.partition(":")
        analysis = analysis.strip()
        rhs = rhs.strip()
        if not analysis or not rhs:
            raise ParseError("empty analysis or surface", filename, lineno)
        if rhs.startswith("["):
            if not rhs.endswith("]"):
                raise ParseError("surface list lacks its closing ']'",
                                 filename, lineno)
            forms = {f.strip() for f in rhs[1:-1].split(",") if f.strip()}
        else:
            forms = {rhs}
        if not forms:
            raise ParseError("empty surface list", filename, lineno)
        case = by_analysis.get(analysis)
        if case is None:
            case = TestCase(analysis, set(), lineno)
            by_analysis[analysis] = case
            cases.append(case)
        case.expected_surfaces |= forms
    return cases


def run_suite(pipeline: lookup.Pipeline, cases,
              directions: str = "both") -> TestReport:
    if directions not in DIRECTIONS:
        raise ValueError(f"bad direction {directions!r}")
    report = TestReport()
    for case in cases:
        expected = sorted(case.expected_surfaces)
        if directions in ("gen", "both"):
            try:
                got = lookup.generate(pipeline, case.analysis)
            except UnknownSymbolError:
                got = []
            status = "pass" if set(got) == case.expected_surfaces else "fail"
            report.results.append(
                CaseResult("gen", case.analysis, expected, got, status))
        if directions in ("ana", "both"):
            got = []
            ok = True
            for surface in expected:
                try:
                    readings = [a.text
                                for a in lookup.analyze(pipeline, surface)]
                except UnknownSymbolError:
                    readings = []
                got.extend(readings)
                if case.analysis not in readings:
                    ok = False
            report.results.append(
                CaseResult("ana", case.analysis, expected, sorted(set(got)),
                           "pass" if ok else "fail"))
    return report


# ---------------------------------------------------------------------------
# coverage statistics

STATS_COLUMNS = ("Word Class", "glossed", "unglossed", "inflections",
                 "derivations")
DERIVATION_TAGS = frozenset({"+Dimin"})


@dataclass
class PosStats:
    pos: str
    lemmas: int = 0
    glossed: int = 0
    unglossed: int = 0
    inflections: int = 0
    derivations: int = 0
    truncated: bool = False


@dataclass
class CoverageStats:
    per_pos: dict  # POS tag -> PosStats
    forms: int = 0  # bounded path count through the generator
    forms_truncated: bool = False

    def to_table(self):
        rows = [list(STATS_COLUMNS)]
        for pos in sorted(self.per_pos):
            s = self.per_pos[pos]
            mark = "+" if s.truncated else ""
            rows.append([pos.lstrip("+"), str(s.glossed), str(s.unglossed),
                         str(s.inflections) + mark,
                         str(s.derivations) + mark])
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = []
        for r in rows:
            lines.append("  ".join(cell.ljust(w)
                                   for cell, w in zip(r, widths)).rstrip())
        mark = "+" if self.forms_truncated else ""
        lines.append(f"forms (bounded count): {self.forms}{mark}")
        return "\n".join(lines) + "\n"


def _tag_sequences_by_pos(pipeline, max_len, max_count):
    """Distinct post-POS tag sequences on the generator's analysis side,
    as {POS tag: sequences}, and whether the enumeration was cut short."""
    analyses = fst.enumerate_paths(
        fst.project(pipeline.generator, "input"), max_len, max_count)
    table = pipeline.table
    by_pos = {}
    for ids, _ in analyses.pairs:
        texts = [table.resolve(i) for i in ids]
        tags = [t for t in texts if t.startswith("+")]
        if tags:
            by_pos.setdefault(tags[0], set()).add(tuple(tags[1:]))
    return by_pos, analyses.truncated


def coverage_stats(lexicon_ast: lexc.LexiconAst, pipeline: lookup.Pipeline,
                   max_len: int = 100, max_count: int = 10000) -> CoverageStats:
    table = lexicon_ast.table
    per_pos = {}
    seen_lemmas = set()
    for entry in lexicon_ast.root:
        lemma, pos = lexc.split_lemma_pos(entry.analysis, table)
        if pos is None or (lemma, pos) in seen_lemmas:
            continue
        seen_lemmas.add((lemma, pos))
        stats = per_pos.setdefault(pos, PosStats(pos))
        stats.lemmas += 1
        if (lemma, pos) in pipeline.glosses:
            stats.glossed += 1
        else:
            stats.unglossed += 1
    by_pos, truncated = _tag_sequences_by_pos(pipeline, max_len, max_count)
    for pos, stats in per_pos.items():
        seqs = by_pos.get(pos, set())
        stats.truncated = truncated
        stats.inflections = sum(
            1 for s in seqs if not DERIVATION_TAGS & set(s))
        stats.derivations = len(seqs) - stats.inflections
    paths = fst.enumerate_paths(pipeline.generator, max_len, max_count)
    return CoverageStats(per_pos, len(paths.pairs), paths.truncated)


def tag_sequence_oracle(lexicon_ast: lexc.LexiconAst, pos: str,
                        max_depth: int = 20) -> set:
    """Post-POS tag sequences computed by walking the lexicon AST's
    continuation graph directly, independent of any transducer."""
    table = lexicon_ast.table

    def texts(ids):
        return [table.resolve(i) for i in ids]

    seqs = set()

    def walk(lexname, tags, depth):
        if depth > max_depth:
            return
        if lexname == lexc.END:
            seqs.add(tuple(tags))
            return
        for entry in lexicon_ast.lexicons[lexname]:
            more = [t for t in texts(entry.analysis) if t.startswith("+")]
            walk(entry.contlex, tags + more, depth + 1)

    for entry in lexicon_ast.root:
        tags = [t for t in texts(entry.analysis) if t.startswith("+")]
        if tags and tags[0] == pos:
            walk(entry.contlex, tags[1:], 0)
    return seqs
