import hashlib
import io
import json
import pathlib
import sys

import pytest

from fstmorph import cli, fst, testkit

from conftest import FIXTURE_DIR, LONG_ROOT, long_root_roots

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))

import inputs  # noqa: E402


def fixture_args():
    return [str(FIXTURE_DIR / "roots.lexc"), str(FIXTURE_DIR / "affixes.lexc"),
            "--rules", str(FIXTURE_DIR / "phonology.twol")]


def full_args():
    return fixture_args() + [
        "--orthography", str(FIXTURE_DIR / "orthography.tsv"),
        "--relax", str(FIXTURE_DIR / "relax.tsv")]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = cli.main(["compile", *full_args(), "--out", str(out)])
    assert code == 0
    return out


def run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return cli.main(argv)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_compile_writes_artifacts(artifacts):
    names = {p.name for p in artifacts.iterdir()}
    assert names == {"generator.att", "symbols.tsv", "glosses.tsv",
                     "orthography.tsv", "relax.tsv", "manifest.json"}
    manifest = json.loads((artifacts / "manifest.json").read_text())
    assert manifest == {"format": 2, "mode": "pedagogical",
                        "files": {name: sha256(artifacts / name)
                                  for name in names - {"manifest.json"}}}
    assert (artifacts / "relax.tsv").read_text(encoding="utf-8") == \
        "g\t0\nʹ\t0\nẹ\te\n"
    assert (artifacts / "orthography.tsv").read_text(encoding="utf-8") == \
        "ẹ\te\n"


def test_compile_without_relax_writes_no_relax_map(tmp_path):
    out = tmp_path / "plain"
    assert cli.main(["compile", *fixture_args(), "--out", str(out)]) == 0
    assert not (out / "relax.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "relax.tsv" not in manifest["files"]


def test_compile_deterministic(artifacts, tmp_path):
    again = tmp_path / "again"
    assert cli.main(["compile", *full_args(), "--out", str(again)]) == 0
    for name in ("generator.att", "symbols.tsv", "glosses.tsv",
                 "orthography.tsv", "relax.tsv", "manifest.json"):
        assert (again / name).read_bytes() == (artifacts / name).read_bytes()


# SHA-256 of the fixture artifacts built with --orthography and --relax
ARTIFACT_DIGESTS = {
    "generator.att":
        "abac9940b8bb6f6c0af63d23ba593487f8d5f82c3d3bfdeb011e9931055f435a",
}

# SHA-256 of the artifacts of the benchmark's seed-1 synthetic grammar
# (bench/inputs.py), built with its orthography and relax map
SYNTH_DIGESTS = {
    "generator.att":
        "a4b38b76cd4964a54624527cb785939870faeb4a9eea7d64ec07b84c44083616",
}

# SHA-256 of the normative-mode generator.att of the same two builds
NORMATIVE_DIGESTS = {
    "fixture":
        "f25ee2fa84f461c858b67b4eba0ee98aa90780bfbc4b8a9395b01370da53e270",
    "synth":
        "13abf4c122a2237d5937280bfaa5f5319e91ed4a027754a1b4857414a578dbcc",
}

# SHA-256 of generator.att of the fixture with compounding (+Cmp back to
# Root under N_RADIO, so the lexicon is cyclic), built as ARTIFACT_DIGESTS
COMPOUNDING_DIGEST = \
    "92118552b386de24ca7b05630a4de7fb12ecc4e5b60293916c2f223e71b7da97"

# SHA-256 of `fstmorph export-att DIR --which analyzer` on those builds:
# the analyzer.att that compile wrote into DIR before format 2
ANALYZER_DIGESTS = {
    ("fixture", "pedagogical"):
        "541bb5de7c6abe73e76e16e6b41ee2265c82ede740e03470f9259385a4c2c179",
    ("synth", "pedagogical"):
        "fc09e5c8ec081ea00f07ea57c32621ae6817bf0a42222891d900156012bdb296",
    ("fixture", "normative"):
        "a5e6e069e8c43d9c54f8d06b3f7b53487e2bc5c00a4ac795fe2712be46964132",
    ("synth", "normative"):
        "3e5b14b701630f69dbd561bdf710e234518a3fe99b5f534ad651ab1770d019fc",
}


def analyzer_digest(out, capsys):
    capsys.readouterr()
    assert cli.main(["export-att", str(out), "--which", "analyzer"]) == 0
    return hashlib.sha256(
        capsys.readouterr().out.encode("utf-8")).hexdigest()


def synth_args(tmp_path):
    files = inputs.write_synth_grammar(1, tmp_path / "grammar").files
    return [str(files["roots.lexc"]), str(files["affixes.lexc"]),
            "--rules", str(files["phonology.twol"]),
            "--orthography", str(files["orthography.tsv"]),
            "--relax", str(files["relax.tsv"])]


def test_fixture_artifacts_are_pinned(artifacts, capsys):
    for name, digest in ARTIFACT_DIGESTS.items():
        assert sha256(artifacts / name) == digest, name
    assert analyzer_digest(artifacts, capsys) == \
        ANALYZER_DIGESTS["fixture", "pedagogical"]


def test_synthetic_artifacts_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["compile", *synth_args(tmp_path), "--out", str(out)]) \
        == 0
    for name, digest in SYNTH_DIGESTS.items():
        assert sha256(out / name) == digest, name
    assert analyzer_digest(out, capsys) == \
        ANALYZER_DIGESTS["synth", "pedagogical"]


def test_normative_artifacts_are_pinned(tmp_path, capsys):
    for grammar, args in [("fixture", full_args()),
                          ("synth", synth_args(tmp_path))]:
        out = tmp_path / grammar
        assert cli.main(["compile", *args, "--mode", "normative",
                         "--out", str(out)]) == 0
        assert sha256(out / "generator.att") == NORMATIVE_DIGESTS[grammar]
        assert analyzer_digest(out, capsys) == \
            ANALYZER_DIGESTS[grammar, "normative"]


def test_compounding_artifacts_are_pinned(tmp_path):
    affixes = (FIXTURE_DIR / "affixes.lexc").read_text(encoding="utf-8")
    compounding = affixes.replace("LEXICON N_RADIO\n",
                                  "LEXICON N_RADIO\n+Cmp: Root ;\n")
    assert compounding != affixes
    (tmp_path / "affixes.lexc").write_text(compounding, encoding="utf-8")
    args = full_args()
    args[1] = str(tmp_path / "affixes.lexc")
    out = tmp_path / "out"
    assert cli.main(["compile", *args, "--out", str(out)]) == 0
    assert sha256(out / "generator.att") == COMPOUNDING_DIGEST


def copy_dir(src, dest):
    dest.mkdir()
    for p in src.iterdir():
        (dest / p.name).write_bytes(p.read_bytes())
    return dest


def rewrite_artifact(directory, name, text):
    """Write name into directory and its SHA-256 into the manifest, as
    compile would have."""
    data = text.encode("utf-8")
    (directory / name).write_bytes(data)
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"][name] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage, message", [
    ("format", "manifest.json: unknown format 3, expected 2"),
    ("missing", "orthography.tsv: listed in "),
    ("digest", "generator.att: SHA-256 differs from the one "),
    ("before-format-2", "manifest.json: unknown format None, expected 2"),
    ("outside", "manifest.json: '../outside.txt' is not an artifact file"),
])
def test_a_damaged_directory_is_refused(artifacts, tmp_path, capsys,
                                        monkeypatch, damage, message):
    """A directory from before format 2, whose manifest has no format key
    and lists its files without digests, is refused as well: compile its
    sources again."""
    broken = copy_dir(artifacts, tmp_path / "broken")
    manifest = json.loads((broken / "manifest.json").read_text())
    if damage == "format":
        (broken / "manifest.json").write_text(
            json.dumps(dict(manifest, format=3)))
    elif damage == "before-format-2":
        (broken / "manifest.json").write_text(json.dumps(
            {"files": sorted(manifest["files"]), "mode": "pedagogical"}))
    elif damage == "missing":
        (broken / "orthography.tsv").unlink()
    elif damage == "outside":  # a file outside the directory, digest right
        (tmp_path / "outside.txt").write_text("x\n")
        rewrite_artifact(broken, "../outside.txt", "x\n")
    else:
        with open(broken / "generator.att", "a", encoding="utf-8") as f:
            f.write("0\n")
    for argv in (["lookup", str(broken)], ["export-att", str(broken)]):
        assert run(argv, "radio\n", monkeypatch) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, text, message", [
    ("generator.att", "0\t1\tZZZ\tZZZ\n1\n",
     "generator.att:1: symbol 'ZZZ' is not in the symbol table"),
    ("symbols.tsv", "1\ta\t?\n",
     "symbols.tsv:1: bad multichar flag '?'"),
], ids=["generator.att", "symbols.tsv"])
def test_a_bad_artifact_file_is_named(artifacts, tmp_path, capsys,
                                      monkeypatch, name, text, message):
    broken = copy_dir(artifacts, tmp_path / "broken")
    rewrite_artifact(broken, name, text)
    assert run(["lookup", str(broken)], "radio\n", monkeypatch) == 2
    assert f"error: {broken / message}" in capsys.readouterr().err


def test_a_malformed_manifest_is_named(artifacts, tmp_path, capsys,
                                       monkeypatch):
    broken = copy_dir(artifacts, tmp_path / "broken")
    (broken / "manifest.json").write_text("{\n")
    assert run(["lookup", str(broken)], "radio\n", monkeypatch) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {broken / 'manifest.json'}:2: ")


def test_a_second_orthography_row_for_one_symbol_fails_compile(tmp_path,
                                                                capsys):
    ortho = tmp_path / "orthography.tsv"
    rows = (FIXTURE_DIR / "orthography.tsv").read_text(encoding="utf-8")
    ortho.write_text(rows + "ẹ\ta\n", encoding="utf-8")
    line = rows.count("\n") + 1
    out = tmp_path / "o"
    code = cli.main(["compile", *fixture_args(), "--mode", "normative",
                     "--orthography", str(ortho), "--out", str(out)])
    assert code == 2
    assert f"error: {ortho}:{line}: second normative spelling for 'ẹ'" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["pedagogical", "normative"])
def test_a_clashing_orthography_fails_compile_in_both_modes(tmp_path, capsys,
                                                            mode):
    # 'b' is the normative spelling of 'a' and a pedagogical key itself
    (tmp_path / "r.lexc").write_text("LEXICON Root\nab # ;\nbc # ;\n")
    (tmp_path / "r.twol").write_text("Alphabet\n a b c ;\n")
    ortho = tmp_path / "orthography.tsv"
    ortho.write_text("a\tb\nb\tc\n")
    out = tmp_path / "o"
    code = cli.main(["compile", str(tmp_path / "r.lexc"),
                     "--rules", str(tmp_path / "r.twol"), "--mode", mode,
                     "--orthography", str(ortho), "--out", str(out)])
    assert code == 2
    assert (f"error: {ortho}:2: normative symbol 'b' is also a pedagogical "
            "key (on line 1)") in capsys.readouterr().err
    assert not out.exists()


def test_lookup_down(artifacts, capsys, monkeypatch):
    code = run(["lookup", str(artifacts), "--direction", "down"],
               "algg+N+Sg+Gen\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "algg+N+Sg+Gen\taalǥ\n"


def test_lookup_up_and_unknown(artifacts, capsys, monkeypatch):
    code = run(["lookup", str(artifacts), "--direction", "up"],
               "radio\nzzzz\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "radio\tradio+N+Sg+Nom\nzzzz\t+?\n"


def test_lookup_reads_crlf_line_ends(artifacts, capsys, monkeypatch):
    code = run(["lookup", str(artifacts), "--direction", "up"],
               "radio\r\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "radio\tradio+N+Sg+Nom\n"


def test_lookup_up_relaxed(artifacts, capsys, monkeypatch):
    code = run(["lookup", str(artifacts)], "viirdi\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "viirdi\tveʹrdd+N+Pl+Gen\n"


def test_an_analyzer_is_built_once_on_the_first_analysis(tmp_path, capsys,
                                                        monkeypatch):
    """compile and generation build no analyzer.  A lookup run inverts
    the generator once, and relabels the input side once for the
    accept-both analyzer and once more for the relaxed one, only when a
    word needs it."""
    calls = []
    invert, relabel = fst.invert, fst.relabel

    def counted_invert(machine):
        calls.append("invert")
        return invert(machine)

    def counted_relabel(machine, mapping, side, keep=False):
        calls.append(f"relabel {side}")
        return relabel(machine, mapping, side, keep)

    monkeypatch.setattr(fst, "invert", counted_invert)
    monkeypatch.setattr(fst, "relabel", counted_relabel)
    for mode in ("pedagogical", "normative"):
        out = tmp_path / mode
        assert cli.main(["compile", *full_args(), "--mode", mode,
                         "--out", str(out)]) == 0
        assert "invert" not in calls and "relabel input" not in calls
    out = tmp_path / "pedagogical"
    for direction, words, want in [
            ("down", "algg+N+Sg+Gen\nradio+N+Sg+Nom\n", []),
            ("up", "radio\naalǥ\nzzzz\n", ["invert", "relabel input"]),
            ("up", "radio\nviirdi\naalǥ\nviirdi\n",
             ["invert", "relabel input", "relabel input"])]:
        calls.clear()
        assert run(["lookup", str(out), "--direction", direction], words,
                   monkeypatch) == 0
        assert calls == want, direction
    assert "viirdi\tveʹrdd+N+Pl+Gen\n" in capsys.readouterr().out


def test_lookup_reads_a_word_of_any_length(tmp_path, capsys, monkeypatch):
    roots = tmp_path / "roots.lexc"
    roots.write_text(long_root_roots(), encoding="utf-8")
    out = tmp_path / "out"
    args = [str(roots), *full_args()[1:]]  # in place of the fixture's
    assert cli.main(["compile", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    analysis = LONG_ROOT + "+N+Sg+Nom"
    for direction, word, result in [("down", analysis, LONG_ROOT),
                                    ("up", LONG_ROOT, analysis)]:
        assert run(["lookup", str(out), "--direction", direction],
                   word + "\n", monkeypatch) == 0
        assert capsys.readouterr().out == f"{word}\t{result}\n"


def test_lookup_takes_no_input_length_bound(artifacts, capsys, monkeypatch):
    with pytest.raises(SystemExit) as info:
        run(["lookup", str(artifacts), "--max-len", "5"], "", monkeypatch)
    assert info.value.code == 2
    assert "--max-len" in capsys.readouterr().err


def test_relax_map_with_unknown_symbol_is_usage_error(artifacts, tmp_path,
                                                      capsys, monkeypatch):
    broken = copy_dir(artifacts, tmp_path / "broken")
    rewrite_artifact(broken, "relax.tsv", "q\t0\n")
    assert run(["lookup", str(broken)], "", monkeypatch) == 2
    assert "relax.tsv:1: " in capsys.readouterr().err


def test_test_command_passes(capsys):
    code = cli.main(["test", *full_args(),
                     "--suite", str(FIXTURE_DIR / "suite.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "gen: 16 passed, 0 failed" in out
    assert "ana: 16 passed, 0 failed" in out


def test_test_command_passes_with_the_lexicon_files_swapped(tmp_path,
                                                             capsys):
    """affixes.lexc uses +Sg and %^V2VV before roots.lexc declares
    them."""
    args = full_args()
    args[:2] = args[1::-1]
    assert cli.main(["compile", *args, "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["test", *args,
                     "--suite", str(FIXTURE_DIR / "suite.txt")]) == 0
    out = capsys.readouterr().out
    assert "gen: 16 passed, 0 failed" in out
    assert "ana: 16 passed, 0 failed" in out


def test_test_command_json(capsys):
    code = cli.main(["test", *full_args(), "--json",
                     "--suite", str(FIXTURE_DIR / "suite.txt")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in rows)
    assert {r["direction"] for r in rows} == {"gen", "ana"}


def test_test_command_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("algg+N+Sg+Gen: wrong\n", encoding="utf-8")
    assert cli.main(["test", *full_args(), "--suite", str(bad)]) == 1


def test_missing_file_is_usage_error(capsys):
    code = cli.main(["test", "missing.lexc", "--rules", "x.twol",
                     "--suite", "s.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_is_usage_error(tmp_path, capsys):
    broken = tmp_path / "broken.lexc"
    broken.write_text("LEXICON Root\nfoo UNDEFINED ;\n", encoding="utf-8")
    code = cli.main(["compile", str(broken),
                     "--rules", str(FIXTURE_DIR / "phonology.twol"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "UNDEFINED" in capsys.readouterr().err


def test_lexc_errors_name_their_file_and_line(tmp_path, capsys):
    rules = ["--rules", str(FIXTURE_DIR / "phonology.twol"),
             "--out", str(tmp_path / "o")]
    affixes = (FIXTURE_DIR / "affixes.lexc").read_text(encoding="utf-8")
    copy = tmp_path / "affixes.lexc"
    copy.write_text(affixes + "LEXICON Extra\nfoo UNDEFINED_X ;\n",
                    encoding="utf-8")
    line = affixes.count("\n") + 2
    code = cli.main(["compile", str(FIXTURE_DIR / "roots.lexc"), str(copy),
                     *rules])
    assert code == 2
    assert f"error: {copy}:{line}: undefined continuation lexicon " \
        "'UNDEFINED_X'" in capsys.readouterr().err
    alone = tmp_path / "alone.lexc"
    alone.write_text("LEXICON Root\nfoo UNDEFINED ;\n", encoding="utf-8")
    assert cli.main(["compile", str(alone), *rules]) == 2
    assert f"error: {alone}:2: " in capsys.readouterr().err


def test_lexc_symbol_errors_name_their_file_and_line(tmp_path, capsys):
    lexicon = tmp_path / "bad.lexc"
    lexicon.write_text("LEXICON Root\nbad%\n # ;\n", encoding="utf-8")
    code = cli.main(["compile", str(lexicon),
                     "--rules", str(FIXTURE_DIR / "phonology.twol"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {lexicon}:2: dangling '%' escape" \
        in capsys.readouterr().err


def test_twol_symbol_errors_name_their_file_and_line(tmp_path, capsys):
    lexicon = tmp_path / "a.lexc"
    lexicon.write_text("LEXICON Root\na # ;\n", encoding="utf-8")
    rules = tmp_path / "bad.twol"
    for text, message in [
            ("Alphabet\n a\n q%\n ;\n", "3: dangling '%' escape"),
            ('Alphabet\n a b ;\nRules\n"R" a:b => _ ;\n',
             "4: rule 'R': center pair a:b is not a feasible pair")]:
        rules.write_text(text, encoding="utf-8")
        code = cli.main(["compile", str(lexicon), "--rules", str(rules),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {rules}:{message}" in capsys.readouterr().err


def test_percent_symbol_compiles_and_looks_up(tmp_path, capsys,
                                              monkeypatch):
    lexicon = tmp_path / "pct.lexc"
    lexicon.write_text("LEXICON Root\npct%% # ;\n", encoding="utf-8")
    rules = tmp_path / "pct.twol"
    rules.write_text("Alphabet\n p c t %% ;\n", encoding="utf-8")
    relax = tmp_path / "relax.tsv"
    relax.write_text("t\t%%\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["compile", str(lexicon), "--rules", str(rules),
                     "--relax", str(relax), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["lookup", str(out), "--direction", "down"], "pct%%\n",
               monkeypatch) == 0
    assert capsys.readouterr().out == "pct%%\tpct%\n"


def test_tab_in_gloss_fails_compile_before_writing(tmp_path, capsys):
    roots = (FIXTURE_DIR / "roots.lexc").read_text(encoding="utf-8")
    assert '"flow, stream"' in roots
    broken = tmp_path / "roots.lexc"
    broken.write_text(roots.replace('"flow, stream"', '"flow,\tstream"'),
                      encoding="utf-8")
    out = tmp_path / "o"
    code = cli.main(["compile", str(broken),
                     str(FIXTURE_DIR / "affixes.lexc"),
                     "--rules", str(FIXTURE_DIR / "phonology.twol"),
                     "--out", str(out)])
    assert code == 2
    line = roots[:roots.index('"flow, stream"')].count("\n") + 1
    assert f"{line}: tab in gloss" in capsys.readouterr().err
    assert not (out / "glosses.tsv").exists()


def test_tab_in_a_symbol_fails_compile_before_writing(tmp_path, capsys):
    """An escaped tab in a lexc entry or a twol alphabet is refused where
    it is read: symbols.tsv and generator.att are tab-separated."""
    lexicon = tmp_path / "a.lexc"
    rules = tmp_path / "a.twol"
    out = tmp_path / "o"
    for lexc_text, twol_text, where in [
            ("LEXICON Root\na%\tb # ;\n", "Alphabet a b ;\n", lexicon),
            ("LEXICON Root\nab # ;\n", "Alphabet a b %\t ;\n", rules)]:
        lexicon.write_text(lexc_text, encoding="utf-8")
        rules.write_text(twol_text, encoding="utf-8")
        code = cli.main(["compile", str(lexicon), "--rules", str(rules),
                         "--out", str(out)])
        assert code == 2
        line = 2 if where == lexicon else 1
        assert f"error: {where}:{line}: symbol '\\t' holds a tab" \
            in capsys.readouterr().err
        assert not out.exists()


def test_stats_matches_library(capsys, fixture_parsed, pipeline):
    assert cli.main(["stats", *full_args()]) == 0
    out = capsys.readouterr().out
    _, ast, _ = fixture_parsed
    assert out == testkit.coverage_stats(ast, pipeline).to_table()


def test_att_export_import_round_trip(artifacts, tmp_path, capsys):
    assert cli.main(["export-att", str(artifacts)]) == 0
    first = capsys.readouterr().out
    att_file = tmp_path / "g.att"
    att_file.write_text(first, encoding="utf-8")
    assert cli.main(["import-att", str(att_file),
                     "--symbols", str(artifacts / "symbols.tsv")]) == 0
    assert capsys.readouterr().out == first


def test_import_att_rejects_unknown_symbol(artifacts, tmp_path, capsys):
    att_file = tmp_path / "bad.att"
    att_file.write_text("0\t1\ta\ta\n1\t2\tZZZ\tZZZ\n2\n",
                        encoding="utf-8")
    assert cli.main(["import-att", str(att_file),
                     "--symbols", str(artifacts / "symbols.tsv")]) == 2
    err = capsys.readouterr().err
    assert "2: " in err and "ZZZ" in err


def test_malformed_glosses_is_usage_error(artifacts, tmp_path, capsys,
                                          monkeypatch):
    broken = copy_dir(artifacts, tmp_path / "broken")
    glosses = (broken / "glosses.tsv").read_text(encoding="utf-8")
    rewrite_artifact(broken, "glosses.tsv", glosses + "stray line\n")
    line = len(glosses.splitlines()) + 1
    assert run(["lookup", str(broken)], "radio\n", monkeypatch) == 2
    assert f"glosses.tsv:{line}: " in capsys.readouterr().err


def test_import_att_rejects_a_signed_state_number(artifacts, tmp_path,
                                                  capsys):
    att_file = tmp_path / "bad.att"
    att_file.write_text("0\t+1\ta\ta\n 1\n", encoding="utf-8")
    assert cli.main(["import-att", str(att_file),
                     "--symbols", str(artifacts / "symbols.tsv")]) == 2
    assert "1: bad state number" in capsys.readouterr().err


def test_lookup_up_of_a_percent_symbol(tmp_path, capsys, monkeypatch):
    lexicon = tmp_path / "pct.lexc"
    lexicon.write_text("LEXICON Root\npct%% # ;\n", encoding="utf-8")
    rules = tmp_path / "pct.twol"
    rules.write_text("Alphabet\n p c t %% ;\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["compile", str(lexicon), "--rules", str(rules),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["lookup", str(out), "--direction", "up"], "pct%%\n",
               monkeypatch) == 0
    assert capsys.readouterr().out == "pct%%\tpct%\n"
