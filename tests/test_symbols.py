import random
import unicodedata
from collections import Counter

import pytest

from fstmorph.errors import SymbolError, UnknownSymbolError
from fstmorph.symbols import (EPSILON_ID, EPSILON_TEXT, SymbolTable,
                              find_unescaped)

from conftest import reference_tokenize


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


def test_a_plain_symbol_declared_later_keeps_its_id():
    table = SymbolTable()
    plain = table.intern("^")
    declared = table.declare_multichar("%^")
    assert declared.id == plain.id and table.is_multichar(plain.id)
    assert table.content_id("^") == table.content_id("%^") == plain.id
    assert table.symbol_for("%^").id == table.symbol_for("^").id == plain.id
    assert [s.id for s in table.tokenize("^%^")] == [plain.id, plain.id]
    assert len(table) == 2


def test_a_symbol_cannot_hold_a_tab():
    """symbols.tsv and the AT&T files are tab-separated, so a symbol with
    a tab in it could not be read back."""
    table = SymbolTable()
    for intern in (table.intern, table.declare_multichar):
        for text in ("\t", "a\tb", "%\t"):
            with pytest.raises(SymbolError, match="holds a tab"):
                intern(text)
    assert len(table) == 1


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
    """A pair label counts up from 1 in first-use order, apart from the
    symbol ids: it adds no symbol to the table."""
    table = SymbolTable()
    a = table.intern("a").id
    b = table.intern("b").id
    assert table.pair_symbol(a, EPSILON_ID) == 1
    assert table.pair_symbol(b, a) == 2
    assert table.pair_symbol(a, EPSILON_ID) == 1
    assert table.pair_parts(1) == (a, EPSILON_ID)
    assert table.pair_parts(2) == (b, a)
    assert len(table) == 3
    for label in (0, 3):
        with pytest.raises(SymbolError, match="is not a pair label"):
            table.pair_parts(label)


def test_render_round_trip():
    table = SymbolTable()
    table.declare_multichar("+N")
    ids = [s.id for s in table.tokenize("algg+N")]
    assert table.render(ids) == "algg+N"


def test_render_rejects_ids_outside_the_table():
    table = SymbolTable()
    a = table.intern("a").id
    assert table.render(iter([a, EPSILON_ID, a])) == "aa"
    for bad in (-1, len(table)):
        with pytest.raises(SymbolError, match="unknown symbol id"):
            table.render([a, bad])


# code points of the random tables: '%' and '0' need escapes, '^' is
# declared alone as "%^", and e + U+0323 is the NFD spelling of "ẹ"
LETTERS = ["a", "b", "^", "+", "%", "0", "e", "\u0323", "ẹ"]


def random_spelling(rng, content):
    return "".join("%" + c if c in "%0" or rng.random() < 0.3 else c
                   for c in content)


def random_table_ops(rng):
    """(single code points to intern, multichar spellings to declare)."""
    singles = rng.sample(LETTERS, rng.randint(0, len(LETTERS)))
    contents = []
    for _ in range(rng.randint(0, 6)):
        content = "".join(rng.choice(LETTERS)
                          for _ in range(rng.randint(1, 4)))
        if contents and rng.random() < 0.5:
            # an earlier content grown or cut: prefixes of each other
            content = (rng.choice(contents) + content)[:rng.randint(1, 5)]
        contents.append(content)
    return singles, [random_spelling(rng, c) for c in contents]


def table_of(ops):
    table = SymbolTable()
    singles, multis = ops
    for ch in singles:
        table.intern(ch)
    for text in multis:
        table.declare_multichar(text)
    return table


def random_text(rng, multis):
    """Pieces of declared spellings, their prefixes, single code points
    (escaped or not) and NFD sequences; now and then a lone "0" or a
    dangling '%'."""
    roll = rng.random()
    if roll < 0.05:
        return "0"
    pieces = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if multis and kind < 0.4:
            text = rng.choice(multis)
            pieces.append(text[:rng.randint(1, len(text))])
        elif kind < 0.8:
            pieces.append(random_spelling(rng, rng.choice(LETTERS)))
        else:
            pieces.append("e\u0323")
    text = "".join(pieces)
    return text + "%" if roll > 0.97 else text


def outcome(tokenize, table, text, intern_new):
    try:
        return [s.id for s in tokenize(table, text, intern_new)]
    except SymbolError as exc:
        return type(exc), str(exc)


def test_tokenize_agrees_with_the_plain_longest_match():
    """SymbolTable.tokenize, which probes only the content lengths that
    each code point starts, against reference_tokenize, which probes
    every length: the same ids, the same new symbols in the same order,
    and the same errors."""
    rng = random.Random(20)
    seen = Counter()
    for _ in range(400):
        ops = random_table_ops(rng)
        base = table_of(ops)
        long = [c for c in base._contents if len(c) > 1]
        seen["prefix"] += any(a != b and b.startswith(a)
                              for a in long for b in long)
        seen["one code point"] += len(long) < len(base._contents)
        for _ in range(8):
            text = random_text(rng, ops[1])
            for intern_new in (False, True):
                fast, ref = table_of(ops), table_of(ops)
                got = outcome(SymbolTable.tokenize, fast, text, intern_new)
                want = outcome(reference_tokenize, ref, text, intern_new)
                assert got == want, (ops, text, intern_new)
                assert fast.symbols() == ref.symbols(), (ops, text)
                seen[want[0].__name__ if isinstance(want, tuple)
                     else "ok"] += 1
                seen["lone 0"] += text == "0" and want == []
                seen["new symbols"] += len(fast) > len(base)
    assert seen["ok"] > 1000
    for what in ("prefix", "one code point", "lone 0", "new symbols",
                 "UnknownSymbolError", "SymbolError"):
        assert seen[what] > 10, what


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
