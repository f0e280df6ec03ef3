"""Differential tests of fst.lookup_paths, the walk behind lookup.

The oracle is the composition path lookup used before the walk: compose
the string acceptor of the word with the whole machine and enumerate the
result's paths, the input bounded by the word's length.  When max_count
cuts the result, each keeps the pairs its own search order found first,
so under a cut only the truncated flag is compared.
"""

import pathlib
import random
import sys
from functools import partial

import pytest

from fstmorph import cli, fst, lookup
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import FIXTURE_DIR, composed_relabel

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))

import inputs  # noqa: E402

BIG = 10**6


def compose_lookup(machine, ids, max_count):
    acceptor = fst.string_acceptor(machine.table, ids)
    return fst.enumerate_paths(fst.compose(acceptor, machine), len(ids),
                               max_count)


def relaxed_compose_lookup(pipeline, ids, max_count):
    acceptor = fst.string_acceptor(pipeline.table, ids)
    chain = fst.compose(acceptor, composed_relabel(
        pipeline.analyzer, pipeline.relax, "input", keep=True))
    return fst.enumerate_paths(chain, len(ids), max_count)


def assert_agree(walk, oracle, ids, what):
    """walk and oracle: (ids, max_count) -> PathSet."""
    for max_count in (100, 1):
        got = walk(ids, max_count)
        want = oracle(ids, max_count)
        assert got.truncated == want.truncated, (what, ids, max_count)
        if max_count > 1:
            assert got.pairs == want.pairs, (what, ids)


def input_strings(machine):
    paths = fst.enumerate_paths(machine, 60, 5000)
    assert not paths.truncated
    return sorted({ins for ins, _ in paths.pairs})


def misspellings(pipeline):
    """Every string made by one relax substitution in one surface."""
    out = set()
    for ids in input_strings(pipeline.analyzer):
        for key, variants in pipeline.relax.items():
            for k, sid in enumerate(ids):
                if sid != key:
                    continue
                for v in variants:
                    middle = () if v == EPSILON_ID else (v,)
                    out.add(ids[:k] + middle + ids[k + 1:])
    return sorted(out)


# ---------------------------------------------------------------------------
# random machines


def random_machine(table, syms, rng):
    """At most two epsilon-input arcs: the cycle cuts are exercised, and
    the oracle's enumeration of epsilon runs stays small."""
    n = rng.randint(1, 5)
    arcs = [(rng.randrange(n), rng.choice(syms),
             rng.choice(syms + [EPSILON_ID]), rng.randrange(n))
            for _ in range(rng.randint(1, 10))]
    arcs += [(rng.randrange(n), EPSILON_ID, rng.choice(syms + [EPSILON_ID]),
              rng.randrange(n))
             for _ in range(rng.randint(0, 2))]
    finals = {q for q in range(n) if rng.random() < 0.5}
    return fst._trim(table, n, 0, finals, arcs)


def test_walk_matches_oracle_on_random_machines():
    rng = random.Random(20040)
    flagged = 0
    for _ in range(300):
        table = SymbolTable()
        syms = [table.intern(c).id for c in "abc"]
        machine = random_machine(table, syms, rng)
        for _ in range(3):
            ids = [rng.choice(syms) for _ in range(rng.randint(0, 3))]
            for max_count in (BIG, 1, 2, 3):
                got = fst.lookup_paths(machine, ids, max_count)
                want = compose_lookup(machine, ids, max_count)
                assert got.truncated == want.truncated, \
                    (machine.arcs, machine.finals, ids, max_count)
                if max_count == BIG:
                    assert got.pairs == want.pairs
                flagged += got.truncated
    assert flagged > 100  # the cuts were reached, not just the easy cases


def test_walk_bounds():
    table = SymbolTable()
    a, b = (table.intern(c).id for c in "ab")
    # a:b followed by a loop that writes b for ever without reading
    loop = fst._trim(table, 2, 0, {1},
                     [(0, a, b, 1), (1, EPSILON_ID, b, 1)])
    paths = fst.lookup_paths(loop, [a], 100)
    # the epsilon filter lets the run's first arc come round once more
    assert paths.pairs == [((a,), (b,)), ((a,), (b, b)), ((a,), (b, b, b))]
    assert paths.truncated
    word = fst.string_acceptor(table, [a, a, a])
    assert fst.lookup_paths(word, [a, a, a], 100) == \
        fst.PathSet([((a, a, a), (a, a, a))], False)
    assert fst.lookup_paths(word, [a, a, b], 100) == fst.PathSet([], False)
    with pytest.raises(ValueError):
        fst.lookup_paths(word, [a], 0)
    with pytest.raises(ValueError):
        fst.lookup_paths(word, [a, EPSILON_ID], 1)


# ---------------------------------------------------------------------------
# the fixture pipelines


@pytest.mark.parametrize("which", ["pipeline", "normative_pipeline"])
def test_walk_matches_oracle_on_every_path(request, which):
    pipe = request.getfixturevalue(which)
    for machine in (pipe.generator, pipe.analyzer):
        strings = input_strings(machine)
        assert strings
        for ids in strings:
            assert_agree(partial(fst.lookup_paths, machine),
                         partial(compose_lookup, machine), ids, which)


def test_walk_matches_oracle_on_misspellings(pipeline):
    words = misspellings(pipeline)
    assert len(words) > 10
    walk = partial(fst.lookup_paths, pipeline.relaxed_analyzer)
    for ids in words:
        assert_agree(walk, partial(relaxed_compose_lookup, pipeline), ids,
                     "relaxed")
        assert walk(ids, 100).pairs


def test_walk_matches_oracle_on_random_strings(pipeline):
    rng = random.Random(2009)
    cases = [
        (pipeline.generator, partial(compose_lookup, pipeline.generator)),
        (pipeline.analyzer, partial(compose_lookup, pipeline.analyzer)),
        (pipeline.relaxed_analyzer,
         partial(relaxed_compose_lookup, pipeline)),
    ]
    for machine, oracle in cases:
        alphabet = sorted(machine.input_labels())
        for _ in range(200):
            ids = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            assert_agree(partial(fst.lookup_paths, machine), oracle, ids,
                         "random")


def test_relaxed_analyzer_is_built_once_on_first_need(fixture_sources):
    pipe = lookup.load_pipeline(
        fixture_sources["lexc"], fixture_sources["twol"],
        orthography_text=fixture_sources["orthography"],
        relax_text=fixture_sources["relax"])
    assert "analyzer" not in vars(pipe)  # cached_property: built on use
    assert pipe.analyzer._by_input is None  # the index is lazy as well
    lookup.analyze(pipe, "algg")
    assert pipe.analyzer._by_input is not None
    assert "relaxed_analyzer" not in vars(pipe)
    lookup.analyze(pipe, "alg")
    built = vars(pipe)["relaxed_analyzer"]
    lookup.analyze(pipe, "kuett")
    assert pipe.relaxed_analyzer is built


# ---------------------------------------------------------------------------
# artifact-loaded vs in-memory


def both_pipelines(files, mode, out):
    """The in-memory pipeline of the sources in files, and the one
    loaded from what compile writes of them into out."""
    def read(name):
        return files[name].read_text(encoding="utf-8")

    mem = lookup.load_pipeline(
        [read("roots.lexc"), read("affixes.lexc")], read("phonology.twol"),
        mode=mode, orthography_text=read("orthography.tsv"),
        relax_text=read("relax.tsv"))
    args = [str(files["roots.lexc"]), str(files["affixes.lexc"]),
            "--rules", str(files["phonology.twol"]), "--mode", mode,
            "--orthography", str(files["orthography.tsv"]),
            "--relax", str(files["relax.tsv"])]
    assert cli.main(["compile", *args, "--out", str(out)]) == 0
    return mem, cli._load_artifacts(out)


@pytest.fixture(scope="module")
def pipeline_pairs(tmp_path_factory):
    """(grammar, mode, in-memory pipeline, loaded pipeline) in both modes,
    on the fixture and on the benchmark's seed-1 synthetic grammar."""
    tmp_path = tmp_path_factory.mktemp("pairs")
    fixture = {name: FIXTURE_DIR / name for name in inputs.SOURCE_FILES}
    synthetic = inputs.write_synth_grammar(1, tmp_path / "synth").files
    return [(grammar, mode,
             *both_pipelines(files, mode, tmp_path / f"{grammar}-{mode}"))
            for grammar, files in [("fixture", fixture),
                                   ("synth", synthetic)]
            for mode in lookup.MODES]


def test_a_loaded_pipeline_is_the_in_memory_one_field_for_field(
        pipeline_pairs):
    for grammar, mode, mem, disk in pipeline_pairs:
        where = (grammar, mode)
        for name in ("start", "finals", "arcs"):
            assert getattr(disk.generator, name) == \
                getattr(mem.generator, name), where
        assert disk.orthography == mem.orthography != {}, where
        assert disk.relax == mem.relax != {}, where
        assert disk.glosses == mem.glosses != {}, where
        assert [s.text for s in disk.table.symbols()] == \
            [s.text for s in mem.table.symbols()], where


def test_artifacts_answer_like_the_in_memory_pipeline(pipeline_pairs):
    """In both modes, on the fixture and on the benchmark's seed-1
    synthetic grammar: every analysis, surface and one-substitution
    misspelling looks up the same in memory and from the artifacts."""
    for grammar, mode, mem, disk in pipeline_pairs:
        for ids in input_strings(mem.generator):
            analysis = mem.table.render(ids)
            assert lookup.generate(disk, analysis) == \
                lookup.generate(mem, analysis), (grammar, mode)
        surfaces = (input_strings(mem.analyzer)
                    + misspellings(mem))
        relaxed = 0
        for ids in surfaces:
            surface = mem.table.render(ids)
            readings = lookup.analyze(disk, surface)
            assert readings == lookup.analyze(mem, surface), \
                (grammar, mode, surface)
            relaxed += any(a.relaxed for a in readings)
        assert relaxed > 10, (grammar, mode)
