import random

import pytest

from fstmorph import fst, lexc, lookup, twol
from fstmorph.errors import (FstMorphError, ParseError, PipelineError,
                             UnknownSymbolError)
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import GOLD_FORMS, LONG_ROOT, long_root_roots


def test_generates_all_gold_forms(pipeline):
    for analysis, expected in GOLD_FORMS.items():
        assert set(lookup.generate(pipeline, analysis)) == expected, analysis


def test_a_max_count_cut_keeps_the_form_the_walk_meets_first(pipeline):
    """Pins the walk's order under a cut: of the two forms of this word
    it meets alǥstan first, which is also the shortlex-first one."""
    assert lookup.generate(pipeline, "algg+N+Sg+Loc+PxSg1",
                           max_count=1) == ["alǥstan"]


def test_generator_relation_is_exactly_gold(pipeline):
    """No over-generation anywhere: the full relation is the gold table
    plus the one deliberately unglossed lemma."""
    paths = fst.enumerate_paths(pipeline.generator, 60, 1000)
    assert not paths.truncated
    rel = {}
    for ana_ids, surf_ids in paths.pairs:
        rel.setdefault(pipeline.table.render(ana_ids), set()).add(
            pipeline.table.render(surf_ids))
    expected = dict(GOLD_FORMS)
    expected["biografia+N+Sg+Nom"] = {"biografia"}
    assert rel == expected


def test_analyze_round_trip(pipeline):
    for analysis, surfaces in GOLD_FORMS.items():
        for surface in surfaces:
            readings = [a.text for a in lookup.analyze(pipeline, surface)]
            assert analysis in readings, (analysis, surface)


def test_glosses_attached(pipeline):
    (reading,) = lookup.analyze(pipeline, "radio")
    assert reading.glosses == ["radio"]
    (reading,) = lookup.analyze(pipeline, "biografia")
    assert reading.glosses == []


def test_the_word_alone_bounds_its_lookup(fixture_sources):
    pipe = lookup.load_pipeline(
        [long_root_roots(), fixture_sources["lexc"][1]],
        fixture_sources["twol"],
        orthography_text=fixture_sources["orthography"],
        relax_text=fixture_sources["relax"])
    analysis = LONG_ROOT + "+N+Sg+Nom"
    assert lookup.generate(pipe, analysis) == [LONG_ROOT]
    assert [a.text for a in lookup.analyze(pipe, LONG_ROOT)] == [analysis]


def test_strict_analysis_not_flagged(pipeline):
    assert all(not a.relaxed for a in lookup.analyze(pipeline, "algg"))


def test_relaxed_analysis_only_as_fallback(pipeline):
    readings = lookup.analyze(pipeline, "alg")
    assert [(a.text, a.relaxed) for a in readings] == \
        [("algg+N+Sg+Nom", True)]
    readings = lookup.analyze(pipeline, "kuett")
    assert ("kueʹtt+N+Sg+Nom", True) in \
        [(a.text, a.relaxed) for a in readings]


def test_no_relax_no_fallback(fixture_sources):
    pipe = lookup.load_pipeline(
        fixture_sources["lexc"], fixture_sources["twol"],
        orthography_text=fixture_sources["orthography"])
    assert lookup.analyze(pipe, "alg") == []


def test_unknown_symbol_raises(pipeline):
    with pytest.raises(UnknownSymbolError):
        lookup.analyze(pipeline, "algg©")


def test_pedagogical_analyzer_accepts_both_spellings(pipeline):
    pedagogic = [a.text for a in lookup.analyze(pipeline, "kuẹʹtt")]
    normative = [a.text for a in lookup.analyze(pipeline, "kueʹtt")]
    assert pedagogic == normative == ["kueʹtt+N+Sg+Nom"]
    assert all(not a.relaxed for a in lookup.analyze(pipeline, "kueʹtt"))


def test_normative_mode_has_no_pedagogical_symbols(normative_pipeline):
    table = normative_pipeline.table
    marked = table.id_of("ẹ")
    paths = fst.enumerate_paths(normative_pipeline.generator, 60, 1000)
    assert not paths.truncated
    for _, surf_ids in paths.pairs:
        assert marked not in surf_ids
    assert lookup.generate(normative_pipeline, "kueʹtt+N+Sg+Nom") == \
        ["kueʹtt"]


def test_unknown_strategy_is_a_value_error():
    ruleset = twol.parse_twol("Alphabet\n a ;\n")
    for strategy in ("sideways", "reversed"):
        with pytest.raises(ValueError, match=f"strategy {strategy!r}"):
            twol.combine_rules(ruleset, strategy)


def test_a_second_orthography_row_for_one_symbol_is_located():
    """Each pedagogical symbol has one normative spelling; a second row
    for it is an error at that row, whichever the row order."""
    for rows, line in [("a\tb\na\tc\n", 2), ("a\tc\n# note\na\tb\n", 3)]:
        with pytest.raises(FstMorphError,
                           match=rf"^<mapping>:{line}: second normative "
                                 r"spelling for 'a' \(first on line 1\)"):
            lookup.load_pipeline(["LEXICON Root\nab # ;\n"],
                                 "Alphabet\n a b c ;\n", mode="normative",
                                 orthography_text=rows)


def test_a_normative_symbol_that_is_also_a_key_is_located():
    """No symbol is both a normative spelling and a pedagogical key, in
    either mode; the error stands at the later of the two rows."""
    for rows, line, sym, first in [("a\tb\nb\tc\n", 2, "b", 1),
                                   ("b\tc\n# note\na\tb\n", 3, "b", 1),
                                   ("c\tb\na\ta\n", 2, "a", 2)]:
        for mode in ("pedagogical", "normative"):
            with pytest.raises(FstMorphError,
                               match=rf"^<mapping>:{line}: normative symbol "
                                     rf"'{sym}' is also a pedagogical key "
                                     rf"\(on line {first}\)"):
                lookup.load_pipeline(["LEXICON Root\nab # ;\nbc # ;\n"],
                                     "Alphabet\n a b c ;\n", mode=mode,
                                     orthography_text=rows)


# ---------------------------------------------------------------------------
# the orthography and relax maps as relabels, in isolation

@pytest.fixture
def small_table():
    t = SymbolTable()
    for c in "aeẹk":
        t.intern(c)
    return t


def identity(table):
    return fst.sigma_star(table, [table.id_of(c) for c in "aeẹk"])


def apply_filter(machine, table, text):
    ids = [s.id for s in table.tokenize(text, intern_new=False)]
    out = fst.compose(fst.string_acceptor(table, ids), machine)
    return {table.render(p[1])
            for p in fst.enumerate_paths(out, 50, 100).pairs}


def test_orthography_filter_maps_and_passes_through(small_table):
    mapping = {small_table.id_of("ẹ"): [small_table.id_of("e")]}
    filt = fst.relabel(identity(small_table), mapping, "output")
    assert apply_filter(filt, small_table, "kẹ") == {"ke"}
    assert apply_filter(filt, small_table, "ka") == {"ka"}  # identity


def test_orthography_filter_idempotent(small_table):
    mapping = {small_table.id_of("ẹ"): [small_table.id_of("e")]}
    filt = fst.relabel(identity(small_table), mapping, "output")
    twice = fst.relabel(filt, mapping, "output")
    assert twice.arcs == filt.arcs  # no normative symbol is a key
    for text in ("kẹ", "ke", "aek"):
        assert apply_filter(twice, small_table, text) == \
            apply_filter(filt, small_table, text)


def test_orthography_filter_rejects_bad_mappings():
    """The maps are checked where they are read: an empty orthography in
    normative mode, and a normative symbol that is also a key."""
    lexicon, rules = ["LEXICON Root\nae # ;\n"], "Alphabet\n a e k ;\n"
    with pytest.raises(FstMorphError, match="requires an orthography"):
        lookup.load_pipeline(lexicon, rules, mode="normative",
                             orthography_text="# no rows\n")
    with pytest.raises(FstMorphError, match="also a pedagogical key"):
        lookup.load_pipeline(lexicon, rules, orthography_text="a\te\ne\tk\n")
    with pytest.raises(ValueError, match="side"):
        fst.relabel(fst.sigma_star(SymbolTable(), []), {}, "both")


def test_relax_reads_variants(small_table):
    k = small_table.id_of("k")
    relax = fst.relabel(identity(small_table), {k: [EPSILON_ID]}, "output",
                        keep=True)
    # strict k may also be absent on the relaxed side
    assert apply_filter(relax, small_table, "ke") == {"ke", "e"}
    assert apply_filter(relax, small_table, "ae") == {"ae"}
    # on the input side the variant is read in the key's place
    e = small_table.id_of("e")
    reads_e = fst.relabel(identity(small_table), {k: [e]}, "input")
    assert apply_filter(reads_e, small_table, "ea") == {"ea", "ka"}
    assert apply_filter(reads_e, small_table, "ka") == set()


def test_mapping_file_round_trip():
    table = SymbolTable()
    zero, hash_, a = (table.intern(c).id for c in ("0", "#", "a"))
    table.declare_multichar("%^X")
    spec = {hash_: [zero, EPSILON_ID], a: [table.id_of("%^X")]}
    text = lookup.format_mapping_file(spec, table)
    assert text == "%#\t%0\n%#\t0\na\t%^X\n"
    assert lookup.parse_mapping_file(text, table) == spec
    assert len(table) == 5  # nothing new was interned


def test_empty_pipeline_is_an_error():
    table = SymbolTable()
    ast = lexc.parse_lexc("LEXICON Root\nq # ;\n", table)
    ruleset = twol.parse_twol("Alphabet\n a ;\n", table)  # no pair for q
    with pytest.raises(PipelineError, match="empty"):
        lookup.build_pipeline(ast, ruleset)


def test_trigger_leak_is_an_error():
    table = SymbolTable()
    ast = lexc.parse_lexc(
        "Multichar_Symbols %^T\nLEXICON Root\na%^T # ;\n", table)
    # %^T:%^T feasible: the trigger would survive to the surface
    ruleset = twol.parse_twol("Alphabet\n a %^T ;\n", table)
    with pytest.raises(PipelineError, match="leak"):
        lookup.build_pipeline(ast, ruleset)


def rendered_relation(pipe):
    """The generator's pairs, each side the texts of its symbols."""
    paths = fst.enumerate_paths(pipe.generator, 60, 10**6)
    assert not paths.truncated
    texts = pipe.table.resolve
    return {(tuple(map(texts, i)), tuple(map(texts, o)))
            for i, o in paths.pairs}


def test_every_order_of_the_lexicon_files_gives_one_relation(
        fixture_sources):
    roots, affixes = fixture_sources["lexc"]
    usual, swapped = (
        rendered_relation(lookup.load_pipeline(texts, fixture_sources["twol"]))
        for texts in ([roots, affixes], [affixes, roots]))
    assert usual == swapped
    assert len(usual) > 10


def cut(lines, starts):
    """The texts of lines cut before each of the sorted line indices."""
    bounds = [0, *starts, len(lines)]
    return ["".join(lines[a:b]) for a, b in zip(bounds, bounds[1:])]


def test_random_splits_of_the_lexicon_give_one_relation(fixture_sources):
    """The fixture's lexc text cut into two to five files at random line
    boundaries, in order, and at random LEXICON and Multichar_Symbols
    lines, in a random order, reads as the usual two files do."""
    roots, affixes = fixture_sources["lexc"]
    rules = fixture_sources["twol"]
    usual = rendered_relation(lookup.load_pipeline([roots, affixes], rules))
    lines = (roots + affixes).splitlines(keepends=True)
    sections = [k for k, line in enumerate(lines) if k and line.split()[:1]
                in (["LEXICON"], ["Multichar_Symbols"])]
    rng = random.Random(1616)
    for _ in range(10):
        texts = cut(lines, sorted(rng.sample(range(1, len(lines)),
                                             rng.randint(1, 4))))
        assert rendered_relation(lookup.load_pipeline(texts, rules)) == \
            usual, texts
        texts = cut(lines, sorted(rng.sample(sections, rng.randint(1, 4))))
        rng.shuffle(texts)
        assert rendered_relation(lookup.load_pipeline(texts, rules)) == \
            usual, texts


def test_a_multichar_declared_in_a_later_file_is_one_symbol():
    """The lexicon uses ^ before a later file declares %^: in both orders
    the entry reads the one declared symbol, which leaks when the rule
    alphabet lets it surface and is deleted when it says ^:0."""
    texts = ["LEXICON Root\na^b # ;\n", "Multichar_Symbols\n%^\n"]
    for order in (texts, texts[::-1]):
        with pytest.raises(PipelineError, match=r"to the surface: %\^ "):
            lookup.load_pipeline(order, "Alphabet\n a b a:b ^ ;\n")
        pipe = lookup.load_pipeline(order, "Alphabet\n a b a:b ^:0 ;\n")
        assert lookup.generate(pipe, "a^b") == ["ab", "bb"]


def test_load_pipeline_counts_lines_within_each_text(fixture_sources):
    roots, affixes = fixture_sources["lexc"]
    extra = affixes + "LEXICON Extra\nfoo UNDEFINED_X ;\n"
    line = affixes.count("\n") + 2
    with pytest.raises(ParseError, match=rf"^{line}: undefined .*UNDEFINED_X"):
        lookup.load_pipeline([roots, extra], fixture_sources["twol"])


def test_percent_symbol_in_lexicon_and_mapping():
    pipe = lookup.load_pipeline(["LEXICON Root\npct%% # ;\n"],
                                "Alphabet\n p c t %% ;\n",
                                relax_text="t\t%%\n")
    assert lookup.generate(pipe, "pct%%") == ["pct%"]
    table = pipe.table
    spec = lookup.parse_mapping_file("t\t%%\n", table)
    assert spec == {table.id_of("t"): [table.id_of("%")]}
    text = lookup.format_mapping_file(spec, table)
    assert lookup.parse_mapping_file(text, table) == spec


def test_analysis_holding_a_percent_symbol_gets_its_glosses():
    pipe = lookup.load_pipeline(["LEXICON Root\npct%% # ;\n"],
                                "Alphabet\n p c t %% ;\n")
    assert [a.text for a in lookup.analyze(pipe, "pct%%")] == ["pct%"]
    pipe = lookup.load_pipeline(
        ['Multichar_Symbols +N\nLEXICON Root\npct%%+N:pct%% # "per" ;\n'],
        "Alphabet\n p c t %% +N:0 ;\n")
    (analysis,) = lookup.analyze(pipe, "pct%%")
    assert (analysis.text, analysis.glosses) == ("pct%+N", ["per"])


@pytest.mark.parametrize("mode", lookup.MODES)
def test_building_interns_no_symbol(fixture_sources, mode):
    """Every symbol comes from a source: building the fixture's pipeline
    from its parsed sources adds nothing to the table, so symbols.tsv
    does not depend on how the rules compile."""
    table = SymbolTable()
    ast = lexc.parse_lexc([(None, t) for t in fixture_sources["lexc"]],
                          table)
    ruleset = twol.parse_twol(fixture_sources["twol"], table)
    orthography = lookup.parse_orthography_file(
        fixture_sources["orthography"], table)
    relax = lookup.parse_mapping_file(fixture_sources["relax"], table)
    parsed = len(table)
    lookup.build_pipeline(ast, ruleset, mode, orthography, relax)
    assert len(table) == parsed
