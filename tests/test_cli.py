import hashlib
import io
import json
import pathlib
import sys

import pytest

from fstmorph import cli, testkit

from conftest import FIXTURE_DIR

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


def test_compile_writes_artifacts(artifacts):
    names = {p.name for p in artifacts.iterdir()}
    assert names == {"generator.att", "analyzer.att", "symbols.tsv",
                     "glosses.tsv", "relax.tsv", "manifest.json"}
    manifest = json.loads((artifacts / "manifest.json").read_text())
    assert manifest["files"] == ["generator.att", "analyzer.att",
                                 "symbols.tsv", "glosses.tsv", "relax.tsv"]
    assert (artifacts / "relax.tsv").read_text(encoding="utf-8") == \
        "g\t0\nʹ\t0\nẹ\te\n"


def test_compile_without_relax_writes_no_relax_map(tmp_path):
    out = tmp_path / "plain"
    assert cli.main(["compile", *fixture_args(), "--out", str(out)]) == 0
    assert not (out / "relax.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "relax.tsv" not in manifest["files"]


def test_compile_deterministic(artifacts, tmp_path):
    again = tmp_path / "again"
    assert cli.main(["compile", *full_args(), "--out", str(again)]) == 0
    for name in ("generator.att", "analyzer.att", "symbols.tsv",
                 "glosses.tsv", "relax.tsv", "manifest.json"):
        assert (again / name).read_bytes() == (artifacts / name).read_bytes()


# SHA-256 of the fixture artifacts built with --orthography and --relax
ARTIFACT_DIGESTS = {
    "generator.att":
        "1e95cc681d4b317e0369fd807fd9bb55eba5e5372294b458380479e3200af4ab",
    "analyzer.att":
        "eb08ae9346cfc28053f135ce580e58b67efdb61fde16d42514718d308b5f8254",
}


def test_fixture_artifacts_are_pinned(artifacts):
    for name, digest in ARTIFACT_DIGESTS.items():
        assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() \
            == digest, name


# SHA-256 of the artifacts of the benchmark's seed-1 synthetic grammar
# (bench/inputs.py), built with its orthography and relax map
SYNTH_DIGESTS = {
    "generator.att":
        "540c1cd7e0d293e057dae20e07d1b11206775aea9660172a82d4bf32772fa4ae",
    "analyzer.att":
        "8ddc85a76c991ab7460ea8e81ff8f1e936288ae099af011b11763652ad11401f",
}


def test_synthetic_artifacts_are_pinned(tmp_path):
    files = inputs.write_synth_grammar(1, tmp_path / "grammar").files
    sources = [str(files["roots.lexc"]), str(files["affixes.lexc"]),
               "--rules", str(files["phonology.twol"]),
               "--orthography", str(files["orthography.tsv"]),
               "--relax", str(files["relax.tsv"])]
    out = tmp_path / "out"
    assert cli.main(["compile", *sources, "--out", str(out)]) == 0
    for name, digest in SYNTH_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
            == digest, name


def test_a_manifest_from_before_still_loads(artifacts, tmp_path, capsys,
                                            monkeypatch):
    """A fresh manifest holds only files and mode.  Directories written
    when compile also recorded "strategy": "direct" load, and look words
    up as a fresh build does."""
    manifest = json.loads((artifacts / "manifest.json").read_text())
    assert set(manifest) == {"files", "mode"}
    old = tmp_path / "old"
    old.mkdir()
    for p in artifacts.iterdir():
        (old / p.name).write_bytes(p.read_bytes())
    (old / "manifest.json").write_text(json.dumps(
        dict(manifest, strategy="direct"), indent=2, sort_keys=True) + "\n")
    for direction, words in [
            ("down", "algg+N+Sg+Loc+PxSg1\nveʹrdd+N+Pl+Gen\nnope+N\n"),
            ("up", "aalǥ\nviirdi\nkueʹtt\nzzzz\n")]:
        outputs = []
        for out in (artifacts, old):
            assert run(["lookup", str(out), "--direction", direction],
                       words, monkeypatch) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\t+?") == 1, outputs[0]


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


def test_lookup_up_relaxed(artifacts, capsys, monkeypatch):
    code = run(["lookup", str(artifacts)], "viirdi\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "viirdi\tveʹrdd+N+Pl+Gen\n"


def test_relax_map_with_unknown_symbol_is_usage_error(artifacts, tmp_path,
                                                      capsys, monkeypatch):
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in artifacts.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    (broken / "relax.tsv").write_text("q\t0\n", encoding="utf-8")
    assert run(["lookup", str(broken)], "", monkeypatch) == 2
    assert "relax.tsv:1: " in capsys.readouterr().err


def test_test_command_passes(capsys):
    code = cli.main(["test", *full_args(),
                     "--suite", str(FIXTURE_DIR / "suite.txt")])
    assert code == 0
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
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in artifacts.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    glosses = (broken / "glosses.tsv").read_text(encoding="utf-8")
    (broken / "glosses.tsv").write_text(glosses + "stray line\n",
                                        encoding="utf-8")
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
