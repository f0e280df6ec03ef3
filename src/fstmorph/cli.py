"""Command-line entry point.

Subcommands:

    compile     lexicon + rule sources -> artifact directory
    lookup      apply-up / apply-down over stdin lines
    test        run a regression suite against compiled sources
    stats       coverage table for compiled sources
    export-att  print an artifact transducer in AT&T text format
    import-att  validate an AT&T file and re-emit it canonically

Exit codes: 0 success / all tests pass; 1 semantic failure (test
failures, empty pipeline); 2 usage, I/O, or parse errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import att, fst, lexc, lookup, testkit, twol
from .errors import FstMorphError, ParseError, PipelineError
from .symbols import SymbolTable

GENERATOR_ATT = "generator.att"
ANALYZER_ATT = "analyzer.att"
SYMBOLS_TSV = "symbols.tsv"
GLOSSES_TSV = "glosses.tsv"
RELAX_TSV = "relax.tsv"
MANIFEST_JSON = "manifest.json"


def _read(path):
    return pathlib.Path(path).read_text(encoding="utf-8")


def _build(args):
    table = SymbolTable()
    ast = lexc.parse_lexc([(p, _read(p)) for p in args.lexicon], table)
    ruleset = twol.parse_twol(_read(args.rules), table, filename=args.rules)
    orthography = None
    if args.orthography:
        orthography = lookup.parse_orthography_file(
            _read(args.orthography), table, args.orthography)
    relax_spec = None
    if args.relax:
        relax_spec = lookup.parse_mapping_file(
            _read(args.relax), table, args.relax)
    pipeline = lookup.build_pipeline(ast, ruleset, args.mode, orthography,
                                     relax_spec)
    return ast, pipeline, relax_spec


def cmd_compile(args):
    _, pipeline, relax_spec = _build(args)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = pipeline.table
    (out / GENERATOR_ATT).write_text(
        att.export_att(pipeline.generator, table), encoding="utf-8")
    (out / ANALYZER_ATT).write_text(
        att.export_att(pipeline.analyzer, table), encoding="utf-8")
    (out / SYMBOLS_TSV).write_text(
        att.export_symbols(table), encoding="utf-8")
    gloss_lines = []
    for (lemma, pos), glosses in sorted(pipeline.glosses.rows.items()):
        for g in glosses:
            gloss_lines.append(f"{lemma}\t{pos}\t{g}")
    (out / GLOSSES_TSV).write_text(
        "\n".join(gloss_lines) + "\n", encoding="utf-8")
    files = [GENERATOR_ATT, ANALYZER_ATT, SYMBOLS_TSV, GLOSSES_TSV]
    if relax_spec:
        (out / RELAX_TSV).write_text(
            lookup.format_mapping_file(relax_spec, table), encoding="utf-8")
        files.append(RELAX_TSV)
    manifest = {"mode": args.mode, "files": files}
    (out / MANIFEST_JSON).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {out}/{{{','.join(files + [MANIFEST_JSON])}}}")
    return 0


def _load_artifacts(artifact_dir):
    base = pathlib.Path(artifact_dir)
    table = att.import_symbols(_read(base / SYMBOLS_TSV))
    table.freeze()
    generator = att.import_att(_read(base / GENERATOR_ATT), table)
    analyzer = att.import_att(_read(base / ANALYZER_ATT), table)
    rows = {}
    gloss_path = base / GLOSSES_TSV
    if gloss_path.exists():
        for lineno, line in enumerate(_read(gloss_path).splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 tab-separated fields: {line!r}",
                                 filename=str(gloss_path), line=lineno)
            lemma, pos, gloss = fields
            rows.setdefault((lemma, pos), []).append(gloss)
    manifest = json.loads(_read(base / MANIFEST_JSON))
    relax = None
    if RELAX_TSV in manifest.get("files", ()):
        spec = lookup.parse_mapping_file(
            _read(base / RELAX_TSV), table, str(base / RELAX_TSV))
        relax = lookup.build_relax(table, spec, analyzer.input_labels())
    return lookup.Pipeline(table, generator, analyzer, manifest.get("mode"),
                           relax, lexc.GlossTable(rows))


def cmd_lookup(args):
    pipeline = _load_artifacts(args.artifacts)
    for raw in sys.stdin:
        word = raw.rstrip("\n")
        if not word:
            continue
        try:
            if args.direction == "down":
                results = lookup.generate(pipeline, word,
                                          max_count=args.max_count,
                                          max_len=args.max_len)
            else:
                results = [a.text for a in lookup.analyze(
                    pipeline, word, max_count=args.max_count,
                    max_len=args.max_len)]
        except FstMorphError:
            results = []
        if results:
            for r in results:
                print(f"{word}\t{r}")
        else:
            print(f"{word}\t+?")
    return 0


def cmd_test(args):
    _, pipeline, _ = _build(args)
    cases = testkit.parse_suite(_read(args.suite), filename=args.suite)
    report = testkit.run_suite(pipeline, cases, args.direction)
    sys.stdout.write(report.to_json_lines() if args.json
                     else report.to_text())
    return 0 if report.all_passed else 1


def cmd_stats(args):
    ast, pipeline, _ = _build(args)
    stats = testkit.coverage_stats(ast, pipeline, max_len=args.max_len,
                                   max_count=args.max_count)
    if args.json:
        payload = {
            pos.lstrip("+"): {
                "lemmas": s.lemmas, "glossed": s.glossed,
                "unglossed": s.unglossed, "inflections": s.inflections,
                "derivations": s.derivations, "truncated": s.truncated}
            for pos, s in sorted(stats.per_pos.items())}
        payload["forms"] = stats.forms
        payload["forms_truncated"] = stats.forms_truncated
        print(json.dumps(payload, ensure_ascii=False, indent=2,
                         sort_keys=True))
    else:
        sys.stdout.write(stats.to_table())
    return 0


def cmd_export_att(args):
    pipeline = _load_artifacts(args.artifacts)
    machine = (pipeline.generator if args.which == "generator"
               else pipeline.analyzer)
    sys.stdout.write(att.export_att(machine, pipeline.table))
    return 0


def cmd_import_att(args):
    table = att.import_symbols(_read(args.symbols))
    machine = att.import_att(_read(args.att_file), table)
    sys.stdout.write(att.export_att(machine, table))
    return 0


def _add_build_args(p):
    p.add_argument("lexicon", nargs="+",
                   help="lexicon source files (shared namespace)")
    p.add_argument("--rules", required=True, help="two-level rule file")
    p.add_argument("--mode", choices=lookup.MODES, default="pedagogical")
    p.add_argument("--orthography",
                   help="pedagogical→normative symbol map (TSV)")
    p.add_argument("--relax", help="spell-relax symbol map (TSV)")


def _add_bounds(p):
    p.add_argument("--max-len", type=int, default=200)
    p.add_argument("--max-count", type=int, default=10000)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fstmorph",
        description="Finite-state morphology toolkit: compile lexicons "
                    "and two-level rules, look up, test, report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile sources to an artifact dir")
    _add_build_args(p)
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("lookup", help="apply transducers to stdin lines")
    p.add_argument("artifacts", help="artifact directory from 'compile'")
    p.add_argument("--direction", choices=("up", "down"), default="up")
    _add_bounds(p)
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("test", help="run a regression suite")
    _add_build_args(p)
    p.add_argument("--suite", required=True, help="suite file")
    p.add_argument("--direction", choices=testkit.DIRECTIONS,
                   default="both")
    p.add_argument("--json", action="store_true",
                   help="JSON-lines report instead of text")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("stats", help="coverage statistics table")
    _add_build_args(p)
    _add_bounds(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-att", help="print artifact in AT&T format")
    p.add_argument("artifacts")
    p.add_argument("--which", choices=("generator", "analyzer"),
                   default="generator")
    p.set_defaults(func=cmd_export_att)

    p = sub.add_parser("import-att", help="validate and re-emit AT&T")
    p.add_argument("att_file")
    p.add_argument("--symbols", required=True, help="symbol sidecar TSV")
    p.set_defaults(func=cmd_import_att)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FstMorphError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
