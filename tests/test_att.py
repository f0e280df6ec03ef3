import pytest

from fstmorph import att, fst, lookup, twol
from fstmorph.errors import ParseError, UnknownSymbolError
from fstmorph.symbols import EPSILON_ID, EPSILON_TEXT, SymbolTable

from conftest import string_pair


@pytest.fixture
def table():
    t = SymbolTable()
    for c in "ab":
        t.intern(c)
    t.declare_multichar("+N")
    return t


def test_export_format(table):
    a = table.id_of("a")
    n = table.id_of("+N")
    t = fst._trim(table, 3, 0, {2},
                  [(0, a, EPSILON_ID, 1), (1, n, n, 2)])
    text = att.export_att(t, table)
    lines = text.splitlines()
    assert lines[0] == f"0\t1\ta\t{EPSILON_TEXT}"
    assert lines[1] == "1\t2\t+N\t+N"
    assert lines[2] == "2"  # final state on its own line


def test_round_trip_byte_identical(table):
    a, b = table.id_of("a"), table.id_of("b")
    t = fst.union(string_pair(table, [a, b], [b]),
                  fst.string_acceptor(table, [b]))
    first = att.export_att(t, table)
    again = att.export_att(att.import_att(first, table), table)
    assert first == again


def test_symbols_sidecar_round_trip(table):
    text = att.export_symbols(table)
    restored = att.import_symbols(text)
    assert att.export_symbols(restored) == text
    # multichar declarations survive, so tokenization still works
    assert [s.text for s in restored.tokenize("ab+N")] == ["a", "b", "+N"]


def test_import_rejects_bad_lines(table):
    with pytest.raises(ParseError):
        att.import_att("0\t1\ta", table)  # not enough columns


def test_import_rejects_unknown_symbols(table):
    text = "0\t1\ta\tb\n1\t2\tZZZ\ta\n2\n"
    with pytest.raises(ParseError, match="2: .*'ZZZ'"):
        att.import_att(text, table)
    assert "ZZZ" not in table  # nothing was interned on the way
    with pytest.raises(ParseError, match="1: "):
        att.import_att("0\t1\ta\t\n1\n", table)  # an empty label


@pytest.mark.parametrize("text, line", [
    ("0\t-1\ta\ta\n-1\n", 1),  # a negative state
    ("2000000000\n", 1),  # one state, named far past 0
    ("0\t1\ta\ta\n1\n2000000000\n", 3),
])
def test_import_rejects_state_numbers_outside_the_file(table, text, line):
    with pytest.raises(ParseError, match=f"^{line}: state "):
        att.import_att(text, table)


@pytest.mark.parametrize("number", ["+1", " 1", "1_0", "١",
                                    "01", "00", "-01", "-0"])
def test_import_takes_state_numbers_only_as_ascii_digits(table, number):
    # int() takes each of these; export never writes them
    with pytest.raises(ParseError, match="^1: bad state number"):
        att.import_att(f"0\t{number}\ta\ta\n1\n", table)
    with pytest.raises(ParseError, match="^2: bad final-state line"):
        att.import_att(f"0\t1\ta\ta\n{number}\n", table)


def test_import_symbols_rejects_a_bad_id_or_flag(table):
    text = att.export_symbols(table)
    with pytest.raises(ParseError, match="^2: bad symbol id"):
        att.import_symbols(text.replace("2\t", "x\t", 1))
    with pytest.raises(ParseError, match="^2: bad symbol id '01'"):
        att.import_symbols(text.replace("2\t", "01\t", 1))
    with pytest.raises(ParseError, match="^3: bad multichar flag '\\?'"):
        att.import_symbols(text.replace("\tm", "\t?"))


def test_percent_symbol_survives_the_sidecar():
    table = SymbolTable()
    pct = table.symbol_for("%%").id
    table.pair_symbol(pct, pct)
    text = att.export_symbols(table)
    restored = att.import_symbols(text)
    assert att.export_symbols(restored) == text
    assert restored.resolve(pct) == "%"
    assert [s.id for s in restored.tokenize("%%")] == [pct]


def test_pair_symbols_read_back_as_pairs():
    pipe = lookup.load_pipeline(["LEXICON Root\na # ;\n"], "Alphabet a b ;")
    table = pipe.table
    restored = att.import_symbols(att.export_symbols(table))
    for t in (table, restored):
        with pytest.raises(UnknownSymbolError):
            t.tokenize("a:a", intern_new=False)
    pairs = [s.id for s in table.symbols() if table.is_pair_symbol(s.id)]
    assert pairs
    assert [restored.pair_parts(p) for p in pairs] == [
        table.pair_parts(p) for p in pairs]


def test_pair_sides_that_need_escapes_stay_apart():
    # ':' and '0' sides are spelled "%:" and "%0", so a literal 0 is not
    # epsilon and each text splits at its one unescaped ':'
    rules = twol.parse_twol("Alphabet\n a %0:a 0:a %::b b:%: %%:0 ;\n")
    table = rules.table
    pids = rules.alphabet.pair_ids()
    assert len(set(pids)) == len(pids)
    text = att.export_symbols(table)
    restored = att.import_symbols(text)
    assert att.export_symbols(restored) == text
    assert [restored.pair_parts(p) for p in pids] == rules.alphabet.pairs
