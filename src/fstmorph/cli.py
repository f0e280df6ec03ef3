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

from . import att, lexc, lookup, testkit, twol
from .errors import FstMorphError, ParseError, PipelineError
from .symbols import SymbolTable

try:  # built in; hashlib loads OpenSSL, 3.5 MB and 4 ms a process
    from _sha256 import sha256
except ImportError:  # Python 3.12 and later name it _sha2
    from hashlib import sha256

GENERATOR_ATT = "generator.att"
SYMBOLS_TSV = "symbols.tsv"
GLOSSES_TSV = "glosses.tsv"
ORTHOGRAPHY_TSV = "orthography.tsv"
RELAX_TSV = "relax.tsv"
MANIFEST_JSON = "manifest.json"
ARTIFACT_FILES = {GENERATOR_ATT, SYMBOLS_TSV, GLOSSES_TSV, ORTHOGRAPHY_TSV,
                  RELAX_TSV}
FORMAT = 2


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
    return ast, pipeline


def cmd_compile(args):
    _, pipeline = _build(args)
    table = pipeline.table
    glosses = "\n".join(f"{lemma}\t{pos}\t{g}" for (lemma, pos), gs
                        in sorted(pipeline.glosses.items()) for g in gs)
    texts = {GENERATOR_ATT: att.export_att(pipeline.generator, table),
             SYMBOLS_TSV: att.export_symbols(table),
             GLOSSES_TSV: glosses + "\n"}
    if pipeline.orthography:
        texts[ORTHOGRAPHY_TSV] = lookup.format_mapping_file(
            pipeline.orthography, table)
    if pipeline.relax:
        texts[RELAX_TSV] = lookup.format_mapping_file(pipeline.relax, table)
    digests = {name: sha256(text.encode("utf-8")).hexdigest()
               for name, text in texts.items()}
    texts[MANIFEST_JSON] = json.dumps(
        {"format": FORMAT, "mode": args.mode, "files": digests},
        indent=2, sort_keys=True) + "\n"
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():  # untranslated, as digested above
        (out / name).write_text(text, encoding="utf-8", newline="")
    print(f"wrote {out}/{{{','.join(texts)}}}")
    return 0


def _artifact_texts(base, manifest):
    """{name: text} of each file that manifest.json lists.  The manifest
    maps each name to the SHA-256 of its bytes; a file that is missing or
    differs, a name that is not one of ARTIFACT_FILES, or a manifest of
    another format, is refused, the names before any file is read.  A
    directory from before format 2 has no format key: compile its
    sources again."""
    where = base / MANIFEST_JSON
    manifest = manifest if isinstance(manifest, dict) else {}
    form, files = manifest.get("format"), manifest.get("files")
    if form != FORMAT:
        raise FstMorphError(f"{where}: unknown format {form!r}, expected "
                            f"{FORMAT}")
    files = files if isinstance(files, dict) else {}
    for name in sorted({GENERATOR_ATT, SYMBOLS_TSV, *files}):
        if name not in files:
            raise FstMorphError(f"{where}: files lacks {name}")
        if name not in ARTIFACT_FILES:
            raise FstMorphError(f"{where}: {name!r} is not an artifact file")
    texts = {}
    for name in sorted(files):
        path = base / name
        if not path.is_file():
            raise FstMorphError(f"{path}: listed in {where} but missing")
        data = path.read_bytes()
        if sha256(data).hexdigest() != files[name]:
            raise FstMorphError(f"{path}: SHA-256 differs from the one "
                                f"{where} lists")
        texts[name] = data.decode("utf-8")
    return texts


def _load_artifacts(artifact_dir):
    """The pipeline of an artifact directory: the same five fields that
    compile built in memory, its analyzers derived from them on use."""
    base = pathlib.Path(artifact_dir)
    where = base / MANIFEST_JSON
    try:
        manifest = json.loads(_read(where))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, str(where), exc.lineno) from None
    texts = _artifact_texts(base, manifest)
    table = att.import_symbols(texts[SYMBOLS_TSV], str(base / SYMBOLS_TSV))
    table.freeze()
    generator = att.import_att(texts[GENERATOR_ATT], table,
                               str(base / GENERATOR_ATT))

    def read_map(name, parse):
        if name not in texts:
            return {}
        return parse(texts[name], table, str(base / name))

    orthography = read_map(ORTHOGRAPHY_TSV, lookup.parse_orthography_file)
    rows = {}
    for lineno, line in enumerate(texts.get(GLOSSES_TSV, "").splitlines(),
                                  1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields: {line!r}",
                             filename=str(base / GLOSSES_TSV), line=lineno)
        lemma, pos, gloss = fields
        rows.setdefault((lemma, pos), []).append(gloss)
    return lookup.Pipeline(table, generator, orthography,
                           read_map(RELAX_TSV, lookup.parse_mapping_file),
                           rows)


def cmd_lookup(args):
    pipeline = _load_artifacts(args.artifacts)
    for raw in sys.stdin:
        word = raw.rstrip("\r\n")
        if not word:
            continue
        try:
            if args.direction == "down":
                results = lookup.generate(pipeline, word,
                                          max_count=args.max_count)
            else:
                results = [a.text for a in lookup.analyze(
                    pipeline, word, max_count=args.max_count)]
        except FstMorphError:
            results = []
        if results:
            for r in results:
                print(f"{word}\t{r}")
        else:
            print(f"{word}\t+?")
    return 0


def cmd_test(args):
    _, pipeline = _build(args)
    cases = testkit.parse_suite(_read(args.suite), filename=args.suite)
    report = testkit.run_suite(pipeline, cases, args.direction)
    sys.stdout.write(report.to_json_lines() if args.json
                     else report.to_text())
    return 0 if report.all_passed else 1


def cmd_stats(args):
    ast, pipeline = _build(args)
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
    table = att.import_symbols(_read(args.symbols), args.symbols)
    machine = att.import_att(_read(args.att_file), table, args.att_file)
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
    p.add_argument("--max-count", type=int, default=10000)
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
    p.add_argument("--max-len", type=int, default=200)
    p.add_argument("--max-count", type=int, default=10000)
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
