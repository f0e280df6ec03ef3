"""A seeded fuzz of malformed inputs: every one builds, or fails with a
located error.

Each source mutant (a token inserted or deleted, or a line duplicated, in
one of the fixture's lexc and twol files) either builds, or fails with a
ParseError that names its file and line, or with a PipelineError.  A
missing LEXICON Root in several lexicon files has no one file or line, so
there the message naming the files locates it.  Each artifact mutant (the
same edits in one file of a compiled directory, its digest rewritten into
the manifest) either loads and looks words up, or exits 2 with a message
that names a file of the directory.  No other exception is allowed.  A
byte that is not UTF-8, in a source or an artifact file, exits 2 with
its file and line.
"""

import hashlib
import io
import json
import random

from fstmorph import cli, lexc, lookup, twol
from fstmorph.errors import ParseError, PipelineError
from fstmorph.symbols import SymbolTable

from conftest import FIXTURE_DIR, read_fixture

SEED = 1717
SOURCE_MUTANTS = 120
ARTIFACT_MUTANTS = 200

# tokens with a meaning in some source or artifact format
SPECIALS = [";", ":", "%", "#", "!", '"', "0", "=>", "<=>", "_", "?*",
            "LEXICON", "Root", "Multichar_Symbols", "Alphabet", "Rules",
            "Sets", "[", "]", "(", ")", "|", "-1", "x"]


def mutate(text, rng, sep):
    """text with one token inserted or deleted, or one line duplicated; a
    line's tokens are split on whitespace and joined again with sep."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    kind = rng.random()
    if kind < 0.2:
        lines.insert(k, lines[k])
        return "\n".join(lines)
    tokens = lines[k].split()
    if kind < 0.5 and tokens:
        del tokens[rng.randrange(len(tokens))]
    else:
        pool = SPECIALS + text.split()
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(pool))
    lines[k] = sep.join(tokens)
    return "\n".join(lines)


def is_located(exc):
    if isinstance(exc, PipelineError):
        return True
    if exc.filename is not None and exc.line is not None:
        return True
    return str(exc).startswith("no LEXICON Root defined in ")


def test_every_source_mutant_builds_or_fails_located():
    rng = random.Random(SEED)
    names = ["roots.lexc", "affixes.lexc", "phonology.twol"]
    originals = {name: read_fixture(name) for name in names}
    outcomes = {"built": 0, "located": 0}
    for _ in range(SOURCE_MUTANTS):
        texts = dict(originals)
        name = rng.choice(names)
        texts[name] = mutate(texts[name], rng, " ")
        table = SymbolTable()
        try:
            ast = lexc.parse_lexc([(n, texts[n]) for n in names[:2]], table)
            ruleset = twol.parse_twol(texts[names[2]], table,
                                      filename=names[2])
            lookup.build_pipeline(ast, ruleset)
        except (ParseError, PipelineError) as exc:
            assert is_located(exc), (name, texts[name], str(exc))
            outcomes["located"] += 1
        else:
            outcomes["built"] += 1
    assert min(outcomes.values()) > SOURCE_MUTANTS // 5, outcomes


def rewrite(directory, name, data):
    """Write the bytes data into directory as name, and their SHA-256
    into its manifest."""
    (directory / name).write_bytes(data)
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"][name] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest))


def test_every_artifact_mutant_loads_or_names_a_file(tmp_path, capsys,
                                                      monkeypatch):
    compiled = tmp_path / "compiled"
    assert cli.main([
        "compile", str(FIXTURE_DIR / "roots.lexc"),
        str(FIXTURE_DIR / "affixes.lexc"),
        "--rules", str(FIXTURE_DIR / "phonology.twol"),
        "--orthography", str(FIXTURE_DIR / "orthography.tsv"),
        "--relax", str(FIXTURE_DIR / "relax.tsv"),
        "--out", str(compiled)]) == 0
    files = sorted(json.loads(
        (compiled / "manifest.json").read_text())["files"])
    originals = {name: (compiled / name).read_text(encoding="utf-8")
                 for name in files}
    broken = tmp_path / "broken"
    broken.mkdir()
    rng = random.Random(SEED)
    outcomes = {0: 0, 2: 0}
    for _ in range(ARTIFACT_MUTANTS):
        for name in [*files, "manifest.json"]:
            (broken / name).write_bytes((compiled / name).read_bytes())
        name = rng.choice(files)
        text = mutate(originals[name], rng, "\t")
        rewrite(broken, name, text.encode("utf-8"))
        monkeypatch.setattr("sys.stdin", io.StringIO("radio\nviirdi\n"))
        capsys.readouterr()
        code = cli.main(["lookup", str(broken)])
        err = capsys.readouterr().err
        assert code in outcomes, (name, text, err)
        if code == 2:
            assert err.startswith(f"error: {broken}/"), (name, text, err)
        outcomes[code] += 1
    assert min(outcomes.values()) > ARTIFACT_MUTANTS // 20, outcomes


def test_a_byte_that_is_not_utf8_is_located(tmp_path, capsys, monkeypatch):
    """A stray 0xff byte in a source file, or in an artifact file whose
    digest the manifest lists, exits 2 with the file and its line."""
    compiled = tmp_path / "compiled"

    def compile_with(roots):
        return cli.main(["compile", str(roots),
                         str(FIXTURE_DIR / "affixes.lexc"),
                         "--rules", str(FIXTURE_DIR / "phonology.twol"),
                         "--out", str(compiled)])

    roots = tmp_path / "roots.lexc"
    data = (FIXTURE_DIR / "roots.lexc").read_bytes() + b"\xff\n"
    roots.write_bytes(data)
    line = data.count(b"\n")  # the 0xff byte's own line
    assert compile_with(roots) == 2
    assert capsys.readouterr().err.startswith(f"error: {roots}:{line}: ")

    assert compile_with(FIXTURE_DIR / "roots.lexc") == 0
    symbols = compiled / "symbols.tsv"
    lines = symbols.read_bytes().splitlines(keepends=True)
    rewrite(compiled, "symbols.tsv", b"".join([*lines[:2], b"\xff\n",
                                               *lines[2:]]))
    monkeypatch.setattr("sys.stdin", io.StringIO("radio\n"))
    capsys.readouterr()
    assert cli.main(["lookup", str(compiled)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {symbols}:3: ")
