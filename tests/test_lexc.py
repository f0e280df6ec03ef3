import pytest

from fstmorph import fst, lexc
from fstmorph.errors import ParseError
from fstmorph.symbols import SymbolTable

BASIC = """
Multichar_Symbols +N +Sg +Nom %^TRIG

LEXICON Root
radio+N:radio N_RADIO "radio" ;
K ;                      ! epsilon entry: only a continuation

LEXICON K
kala+N:kala N_RADIO ;

LEXICON N_RADIO
+Sg+Nom:%^TRIG # ;
"""


def strings(ast):
    net = lexc.compile_lexicon(ast)
    paths = fst.enumerate_paths(net, 30, 100)
    table = ast.table
    return {(table.render(p[0]), table.render(p[1])) for p in paths.pairs}


def test_parse_and_compile_basic():
    ast = lexc.parse_lexc(BASIC)
    assert set(ast.lexicons) == {"Root", "K", "N_RADIO"}
    assert strings(ast) == {
        ("radio+N+Sg+Nom", "radio%^TRIG"),
        ("kala+N+Sg+Nom", "kala%^TRIG"),
    }


def test_entry_without_surface_side():
    # "ana CONTLEX ;" uses the analysis string on both sides
    ast = lexc.parse_lexc(
        "LEXICON Root\nab X ;\nLEXICON X\n# ;\n")
    assert strings(ast) == {("ab", "ab")}


def test_epsilon_surface_field():
    # a lone 0 on one side is the empty string
    ast = lexc.parse_lexc(
        "Multichar_Symbols +X\nLEXICON Root\n+X:0 E ;\nLEXICON E\n# ;\n")
    assert strings(ast) == {("+X", "")}


def test_gloss_extraction():
    ast = lexc.parse_lexc(BASIC)
    glosses = lexc.extract_glosses(ast)
    assert glosses.lookup("radio", "+N") == ["radio"]
    assert glosses.lookup("kala", "+N") == []


def test_undefined_contlex_reports_line():
    with pytest.raises(ParseError) as info:
        lexc.parse_lexc("LEXICON Root\nfoo BAD ;\n")
    assert "BAD" in str(info.value)
    assert "2" in str(info.value)


def test_missing_root():
    with pytest.raises(ParseError, match="Root"):
        lexc.parse_lexc("LEXICON A\nfoo # ;\n")


def test_duplicate_lexicon():
    with pytest.raises(ParseError, match="duplicate"):
        lexc.parse_lexc("LEXICON Root\nx # ;\nLEXICON Root\ny # ;\n")


def test_unterminated_gloss():
    with pytest.raises(ParseError, match="gloss"):
        lexc.parse_lexc('LEXICON Root\nfoo # "no end ;\n')


def test_tab_in_gloss_is_located():
    # glosses.tsv is tab-separated, so a gloss cannot hold a tab
    with pytest.raises(ParseError, match="2: tab in gloss"):
        lexc.parse_lexc('LEXICON Root\nfoo # "flow,\tstream" ;\n')


def test_unterminated_entry():
    with pytest.raises(ParseError, match="';'"):
        lexc.parse_lexc("LEXICON Root\nfoo #\n")


def test_shared_namespace_across_sources():
    table = SymbolTable()
    src1 = "LEXICON Root\nab NEXT ;\n"
    src2 = "LEXICON NEXT\ncd # ;\n"
    ast = lexc.parse_lexc(src1 + src2, table)
    assert strings(ast) == {("abcd", "abcd")}


def test_named_sources_parse_as_one_and_locate_their_errors():
    src1 = "LEXICON Root\nab NEXT ;\ncd\n"  # cd's entry ends in b.lexc
    src2 = "NEXT ;\nLEXICON NEXT\nef # ;\n"
    ast = lexc.parse_lexc([("a.lexc", src1), ("b.lexc", src2)])
    assert strings(ast) == strings(lexc.parse_lexc(src1 + src2))
    assert [(e.filename, e.line) for e in ast.root] == [
        ("a.lexc", 2), ("a.lexc", 3)]
    assert [(e.filename, e.line) for e in ast.lexicons["NEXT"]] == [
        ("b.lexc", 3)]
    with pytest.raises(ParseError, match=r"^b\.lexc:3: undefined .*'BAD'"):
        lexc.parse_lexc([("a.lexc", src1),
                         ("b.lexc", "NEXT ;\nLEXICON NEXT\nef BAD ;\n")])


def test_contlex_cycle_detection():
    cyclic = ("LEXICON Root\na Step ;\n"
              "LEXICON Step\nb Root ;\nc # ;\n")
    ast = lexc.parse_lexc(cyclic)
    cycles = lexc.contlex_cycles(ast)
    assert cycles and set(cycles[0]) >= {"Root", "Step"}
    assert lexc.contlex_cycles(lexc.parse_lexc(BASIC)) == []


def test_pretty_round_trip():
    ast = lexc.parse_lexc(BASIC)
    again = lexc.parse_lexc(lexc.pretty(ast))
    assert strings(again) == strings(ast)
    assert lexc.pretty(again) == lexc.pretty(ast)


def test_escaped_specials_in_stems():
    src = ("Multichar_Symbols %{ie%}\n"
           "LEXICON Root\nt%{ie%}t:t%{ie%}t X ;\nLEXICON X\n# ;\n")
    ast = lexc.parse_lexc(src)
    (pair,) = strings(ast)
    assert pair == ("t%{ie%}t", "t%{ie%}t")
    # three symbols on each side: t, {ie}, t
    assert len(ast.root[0].analysis) == 3


def test_escaped_percent_before_the_terminator_ends_the_entry():
    ast = lexc.parse_lexc("LEXICON Root\na Pct%%;\nb # ;\n"
                          "LEXICON Pct%%\n# ;\n")
    assert [e.contlex for e in ast.root] == ["Pct%%", "#"]
    assert strings(ast) == {("a", "a"), ("b", "b")}
    # an escaped ';' is part of its field and ends nothing
    with pytest.raises(ParseError, match="';'"):
        lexc.parse_lexc("LEXICON Root\na # b%;\n")


def test_escaped_percent_entry():
    assert strings(lexc.parse_lexc("LEXICON Root\npct%% # ;\n")) == {
        ("pct%", "pct%")}


def test_bad_escapes_are_located():
    with pytest.raises(ParseError, match=r"^x\.lexc:2: dangling '%'"):
        lexc.parse_lexc("LEXICON Root\nbad%\n # ;\n", filename="x.lexc")
    with pytest.raises(ParseError, match=r"^1: dangling '%'"):
        lexc.parse_lexc("Multichar_Symbols +N %\nLEXICON Root\n# ;\n")
