import random

import pytest

from fstmorph import fst, lexc
from fstmorph.errors import ParseError
from fstmorph.symbols import SymbolTable

from conftest import chain_lexicon, contlex_cycles, same_machine

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
    assert lexc.extract_glosses(ast) == {("radio", "+N"): ["radio"]}


def test_undefined_contlex_reports_line():
    with pytest.raises(ParseError) as info:
        lexc.parse_lexc("LEXICON Root\nfoo BAD ;\n")
    assert "BAD" in str(info.value)
    assert "2" in str(info.value)


def test_missing_root():
    with pytest.raises(ParseError, match="Root"):
        lexc.parse_lexc("LEXICON A\nfoo # ;\n")


def test_missing_root_names_the_lexicon_files():
    with pytest.raises(ParseError, match=r"^a\.lexc: no LEXICON Root"):
        lexc.parse_lexc([("a.lexc", "LEXICON A\nfoo # ;\n")])
    with pytest.raises(ParseError, match=r"^no LEXICON Root defined in "
                                         r"a\.lexc, b\.lexc$") as info:
        lexc.parse_lexc([("a.lexc", "LEXICON A\nfoo # ;\n"),
                         ("b.lexc", "LEXICON B\nbar # ;\n")])
    assert (info.value.filename, info.value.line) == (None, None)


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


def test_multichars_declared_later_read_every_entry():
    """A Multichar_Symbols block in a later file, or after a LEXICON in
    the same file, applies to the entries before it: both orders give
    the same strings over the same symbols."""
    declare = "Multichar_Symbols\n+N %^T\n"
    entries = "LEXICON Root\na+N:a%^T # ;\n"
    for later in ([entries, declare], [entries + declare]):
        ast = lexc.parse_lexc([(None, text) for text in later])
        first = lexc.parse_lexc(declare + entries)
        assert strings(ast) == strings(first) == {("a+N", "a%^T")}
        assert [e.analysis for e in ast.root] == \
            [e.analysis for e in first.root]
        assert len(ast.root[0].surface) == 2


def test_contlex_cycle_detection():
    cyclic = ("LEXICON Root\na Step ;\n"
              "LEXICON Step\nb Root ;\nc # ;\n")
    ast = lexc.parse_lexc(cyclic)
    cycles = contlex_cycles(ast)
    assert cycles and set(cycles[0]) >= {"Root", "Step"}
    assert contlex_cycles(lexc.parse_lexc(BASIC)) == []


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


def entries(ast):
    return {name: [(ast.table.render(e.analysis), e.contlex, e.gloss, e.line)
                   for e in es] for name, es in ast.lexicons.items()}


def test_gloss_belongs_to_the_entry_it_stands_in():
    ast = lexc.parse_lexc('LEXICON Root\na # ; b # "g" ;')
    assert entries(ast) == {"Root": [("a", "#", None, 2), ("b", "#", "g", 2)]}


def test_entries_on_one_line_each_keep_their_gloss():
    ast = lexc.parse_lexc('LEXICON Root\na # "g1" ; b # "g2" ;')
    assert [e.gloss for e in ast.root] == ["g1", "g2"]


def test_entry_open_at_a_keyword_is_an_error():
    with pytest.raises(ParseError, match=r"^2: entry not terminated by ';'"):
        lexc.parse_lexc("LEXICON Root\na\nLEXICON B\n# ;")
    with pytest.raises(ParseError, match=r"^3: entry not terminated by ';'"):
        lexc.parse_lexc('LEXICON Root\na # ;\n"g"\nMultichar_Symbols +N\n')


def test_quoted_multichar_symbol_is_an_error():
    with pytest.raises(ParseError, match=r"^1: quoted 'foo' in Multichar_"):
        lexc.parse_lexc('Multichar_Symbols "foo" +N\nLEXICON Root\n# ;\n')


def test_gloss_after_the_last_terminator_is_an_open_entry():
    with pytest.raises(ParseError, match=r"^x:2: entry not terminated"):
        lexc.parse_lexc('LEXICON Root\na # ; "g"\n', filename="x")


_MULTICHARS = ["+N", "+Sg", "%^X", "%{ie%}", "+Pl%;"]
_GLOSSES = ["g", "two words", "semi;colon", "bang%", ""]


def _random_lexicon(r):
    """Multichar declarations and lexicons of token lists, one list per
    entry, each a valid entry with an optional gloss anywhere in it."""
    multis = r.sample(_MULTICHARS, r.randint(1, len(_MULTICHARS)))
    names = ["Root"] + r.sample(["A", "B", "C"], r.randint(0, 3))

    def side():
        atoms = list("abc") + multis + ["%%", "%;", "%!", "% ", '%"', "%:"]
        return "".join(r.choice(atoms) for _ in range(r.randint(1, 3)))

    lexicons = []
    for name in names:
        body = []
        for _ in range(r.randint(1, 4)):
            toks = []
            if r.random() < 0.8:
                toks.append(side() + (":" + side() if r.random() < 0.5
                                      else ""))
            toks.append(r.choice(names + ["#"]))
            if r.random() < 0.5:
                toks.insert(r.randint(0, len(toks)),
                            '"' + r.choice(_GLOSSES) + '"')
            if r.random() < 0.5 and not toks[-1].startswith('"'):
                toks[-1] += ";"
            else:
                toks.append(";")
            body.append(toks)
        lexicons.append((name, body))
    return multis, lexicons


def _layout(r, multis, lexicons, canonical):
    def sep():
        if canonical:
            return " "
        return r.choice([" ", "  ", "\t", "\n", "\n\n", " ! a \"; b\n",
                         "\n  \t"])

    lines = ["Multichar_Symbols " + "".join(m + sep() for m in multis)]
    for name, body in lexicons:
        lines.append(f"\nLEXICON {name}\n")
        for toks in body:
            text = ""
            for i, tok in enumerate(toks):
                glue = (tok.startswith('"') or toks[i - 1].startswith('"')
                        ) and not canonical and r.random() < 0.3
                text += ("" if i == 0 or glue else sep()) + tok
            lines.append(text + ("\n" if canonical else sep()))
    return "".join(lines)


def _split(r, text):
    lines = text.split("\n")
    cuts = sorted(r.sample(range(1, len(lines)), r.randint(0, 2)))
    bounds = [0] + cuts + [len(lines)]
    return [(f"s{k}.lexc", "\n".join(lines[a:b]) + "\n")
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def test_layout_does_not_change_the_parse():
    # entries may break anywhere between tokens and run across sources;
    # they parse to the entries of the one-entry-per-line layout
    def parsed(sources):
        ast = lexc.parse_lexc(sources)
        table = ast.table
        return ({name: [(e.analysis, e.surface, e.contlex, e.gloss)
                         for e in es]
                 for name, es in ast.lexicons.items()},
                [(s.text, table.is_multichar(s.id))
                 for s in table.symbols()])

    r = random.Random(20261018)
    for _ in range(200):
        multis, lexicons = _random_lexicon(r)
        canonical = parsed([(None, _layout(r, multis, lexicons, True))])
        assert sum(map(len, canonical[0].values())) == sum(
            len(body) for _, body in lexicons)
        assert parsed(_split(r, _layout(r, multis, lexicons, False))) \
            == canonical


def _random_lexc(r):
    """A lexc source of one to four lexicons whose entries share stems
    and endings: epsilon-padded pairs, empty entries, duplicates, entries
    that differ only in their continuation, and continuations that may
    lead back to any lexicon, Root and the entry's own included."""
    names = ["Root"] + r.sample(["A", "B", "C"], r.randint(0, 3))
    stems = ["".join(r.choice("ab") for _ in range(r.randint(0, 3)))
             for _ in range(3)]
    ends = ["", "c", "+N", "c+N"]

    def side():
        return r.choice(stems) + r.choice(ends) or "0"

    lines = ["Multichar_Symbols +N"]
    for name in names:
        lines.append(f"LEXICON {name}")
        entries = []  # (pairs field or None, continuation)
        for _ in range(r.randint(1, 6)):
            pick = r.random()
            cont = r.choice(names + ["#", "#"])
            if entries and pick < 0.15:  # a duplicate
                entries.append(r.choice(entries))
            elif entries and pick < 0.3:  # same pairs, other continuation
                entries.append((r.choice(entries)[0], cont))
            elif pick < 0.4:  # an empty entry
                entries.append((None, cont))
            elif pick < 0.6:  # one side for both
                entries.append((side(), cont))
            else:
                entries.append((f"{side()}:{side()}", cont))
        lines += [f"{field or ''} {cont} ;" for field, cont in entries]
    return "\n".join(lines) + "\n"


def test_compile_lexicon_is_the_minimized_chain_reference():
    r = random.Random(2025)
    cyclic = 0
    for _ in range(150):
        ast = lexc.parse_lexc(_random_lexc(r))
        cyclic += bool(contlex_cycles(ast))
        assert same_machine(lexc.compile_lexicon(ast),
                            fst.encoded_minimize(chain_lexicon(ast)))
    assert cyclic >= 30


def test_an_entry_of_5000_symbols_compiles_as_its_reference():
    # the subtree merge runs without recursion, however long an entry
    ast = lexc.parse_lexc(f"LEXICON Root\n{'ab' * 2500}:{'ba' * 2500} # ;\n")
    assert same_machine(lexc.compile_lexicon(ast),
                        fst.encoded_minimize(chain_lexicon(ast)))


def _prefixed_lexicon(r, count):
    """count nouns and verbs, each a random consonant prefix on one of a
    few roots, over three shared continuation lexicons."""
    roots = ["algg", "verdd", "radio", "kuett", "tietted"]
    words = set()
    while len(words) < count:
        words.add("".join(r.choice("bfjklnrsv")
                          for _ in range(r.randint(1, 4))) + r.choice(roots))
    lines = ["Multichar_Symbols +N +V +Sg +Pl +Nom +Gen +Inf",
             "LEXICON Root"]
    for w in sorted(words):
        cont = r.choice(["N", "N2", "V"])
        lines.append(f"{w}{'+V' if cont == 'V' else '+N'}:{w} {cont} ;")
    lines += ["LEXICON N", "+Sg+Nom:0 # ;", "+Sg+Gen:n # ;", "+Pl+Nom:t # ;",
              "LEXICON N2", "+Sg+Nom:0 # ;", "+Sg+Gen:en # ;",
              "LEXICON V", "+Inf:ed # ;"]
    return "\n".join(lines) + "\n"


def test_the_minimizer_receives_an_almost_minimal_lexicon(monkeypatch):
    # counted work, not time: one arc chain per entry handed
    # encoded_minimize 9 226 states for a 511-state result here
    received = []
    minimize = fst.encoded_minimize
    monkeypatch.setattr(fst, "encoded_minimize",
                        lambda a: received.append(a) or minimize(a))
    ast = lexc.parse_lexc(_prefixed_lexicon(random.Random(1000), 1000))
    assert len(ast.root) == 1000
    result = lexc.compile_lexicon(ast)
    assert [a.num_states for a in received] == [received[0].num_states]
    assert received[0].num_states <= 1.1 * result.num_states
