import unicodedata

import pytest

from fstmorph.errors import SymbolError, UnknownSymbolError
from fstmorph.symbols import (EPSILON_ID, EPSILON_TEXT, SymbolTable,
                              find_unescaped)


def test_epsilon_is_id_zero():
    table = SymbolTable()
    assert table.resolve(EPSILON_ID) == EPSILON_TEXT


def test_nfc_normalization_unifies_spellings():
    table = SymbolTable()
    combining = unicodedata.normalize("NFD", "ẹ")  # e + U+0323
    precomposed = "ẹ"
    assert combining != precomposed
    a = table.intern(combining)
    b = table.intern(precomposed)
    assert a.id == b.id


def test_multichar_content_canonical():
    table = SymbolTable()
    a = table.declare_multichar("%^V2VV")
    b = table.symbol_for("^V2VV")
    assert a.id == b.id
    # canonical text keeps the first-declared (escaped) spelling
    assert table.resolve(a.id) == "%^V2VV"


def test_tokenize_longest_match():
    table = SymbolTable()
    table.declare_multichar("+Sg")
    table.declare_multichar("+SgNom")  # longer symbol wins
    toks = [s.text for s in table.tokenize("ab+SgNom")]
    assert toks == ["a", "b", "+SgNom"]


def test_tokenize_escapes():
    table = SymbolTable()
    # a lone bare '0' is epsilon; elsewhere '0' is the literal digit
    assert table.tokenize("0") == []
    toks = table.tokenize("%00")
    assert [s.text for s in toks] == ["0", "0"]


def test_tokenize_strict_rejects_unknown():
    table = SymbolTable()
    table.intern("a")
    with pytest.raises(UnknownSymbolError):
        table.tokenize("ab", intern_new=False)


def test_tokenize_archiphoneme():
    table = SymbolTable()
    table.declare_multichar("%{ie%}")
    toks = [s.text for s in table.tokenize("t%{ie%}t")]
    assert toks == ["t", "%{ie%}", "t"]


def test_pair_symbol_rendering():
    table = SymbolTable()
    a = table.intern("a").id
    pair = table.pair_symbol(a, EPSILON_ID)
    assert pair.text == "a:0"
    assert table.pair_parts(pair.id) == (a, EPSILON_ID)
    assert table.is_pair_symbol(pair.id)
    assert not table.is_pair_symbol(a)


def test_render_round_trip():
    table = SymbolTable()
    table.declare_multichar("+N")
    ids = [s.id for s in table.tokenize("algg+N")]
    assert table.render(ids) == "algg+N"


def test_find_unescaped_skips_escape_pairs():
    assert find_unescaped("a%!b!c", "!".__eq__) == 4
    assert find_unescaped("%%!", "!".__eq__) == 2
    assert find_unescaped("a b c", str.isspace, 2) == 3
    assert find_unescaped("a%:", ":".__eq__) == 3  # none: len(text)
    # a lone '%' at the end is a literal code point
    assert find_unescaped("ab%", "%".__eq__) == 2


def test_escaped_percent_is_a_symbol():
    table = SymbolTable()
    pct = table.symbol_for("%%")
    assert pct.text == "%"
    assert not table.is_multichar(pct.id)
    assert [s.id for s in table.tokenize("a%%")] == [table.id_of("a"), pct.id]
    with pytest.raises(SymbolError, match="dangling"):
        table.tokenize("a%")
