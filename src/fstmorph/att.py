"""AT&T text exchange format and the symbol-table sidecar.

One arc per line "src<TAB>dst<TAB>in<TAB>out", final states as a lone
state number, epsilon spelled "@0@", UTF-8, "\n" newlines.  Export
renumbers states in BFS order so identical machines serialize to
identical bytes, and import accepts exactly what export produces.
"""

from __future__ import annotations

from .errors import ParseError
from .fst import EPSILON_ID, Transducer, _trim
from .symbols import EPSILON_TEXT, SymbolTable, find_unescaped


def export_att(t: Transducer, table: SymbolTable) -> str:
    def name(sid):
        return EPSILON_TEXT if sid == EPSILON_ID else table.resolve(sid)

    trimmed = _trim(table, t.num_states, t.start, t.finals, t.arcs)
    lines = []
    for src, i, o, dst in trimmed.arcs:
        lines.append(f"{src}\t{dst}\t{name(i)}\t{name(o)}")
    for f in sorted(trimmed.finals):
        lines.append(str(f))
    return "\n".join(lines) + ("\n" if lines else "")


def _number(field):
    """The int of field if it is ASCII digits after an optional "-", with
    no leading zero (the caller checks the range), else None.  int()
    alone would also take "+1", " 1", "1_0", "01" and non-ASCII digits,
    none of which export writes."""
    digits = field.removeprefix("-")
    if digits.isdigit() and digits.isascii() and (digits[0] != "0"
                                                  or field == "0"):
        try:
            return int(field)
        except ValueError:  # past int()'s limit on digits
            pass
    return None


def import_att(text: str, table: SymbolTable,
               filename: str = None) -> Transducer:
    """Parse AT&T text whose labels must all be in table already, and
    whose states are numbered 0..n-1 for the n distinct states it names
    (as export writes them), with state 0 the start.  Errors name
    filename, the file the text was read from."""
    ids = {EPSILON_TEXT: EPSILON_ID}  # each label's id, once looked up

    def label(name, lineno):
        sid = ids.get(name)
        if sid is None:
            if name not in table:
                raise ParseError(f"symbol {name!r} is not in the symbol "
                                 f"table", filename, lineno)
            sid = ids[name] = table.id_of(name)
        return sid

    arcs = []
    finals = set()
    first_line = {}  # state -> the line that names it first
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            final = _number(parts[0])
            if final is None:
                raise ParseError(f"bad final-state line {line!r}", filename,
                                 lineno)
            finals.add(final)
            first_line.setdefault(final, lineno)
        elif len(parts) == 4:
            src, dst = _number(parts[0]), _number(parts[1])
            if src is None or dst is None:
                raise ParseError(f"bad state number in {line!r}", filename,
                                 lineno)
            arcs.append((src, label(parts[2], lineno),
                         label(parts[3], lineno), dst))
            first_line.setdefault(src, lineno)
            first_line.setdefault(dst, lineno)
        else:
            raise ParseError(f"expected 1 or 4 tab-separated fields: {line!r}",
                             filename, lineno)
    if not first_line:
        return Transducer(table, 1, 0, frozenset(), ())
    num = len(first_line)
    for state, lineno in first_line.items():
        if not 0 <= state < num:
            raise ParseError(f"state {state} is outside 0..{num - 1}, the "
                             f"{num} distinct states the file names",
                             filename, lineno)
    return Transducer(table, num, 0, finals, arcs)


def export_symbols(table: SymbolTable) -> str:
    """Sidecar listing every symbol: id, text, and a flag: "p" for a
    pair symbol, "m" for another multichar, "-" for the rest."""
    lines = []
    for sym in table.symbols():
        if sym.id == EPSILON_ID:
            continue
        flag = ("p" if table.is_pair_symbol(sym.id)
                else "m" if table.is_multichar(sym.id) else "-")
        lines.append(f"{sym.id}\t{sym.text}\t{flag}")
    return "\n".join(lines) + ("\n" if lines else "")


def _pair_side(table, text, filename, lineno):
    """The id of one side of a pair symbol's text, as pair_symbol spells
    it: "0" for epsilon, "%" before a "%", ":" or "0" symbol."""
    if text == "0":
        return EPSILON_ID
    if text in ("%%", "%:", "%0"):
        text = text[1:]
    if text not in table:
        raise ParseError(f"pair side {text!r} is not an earlier symbol",
                         filename, lineno)
    return table.id_of(text)


def import_symbols(text: str, filename: str = None) -> SymbolTable:
    """The table of an export_symbols text; errors name filename, the
    file the text was read from."""
    table = SymbolTable()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"bad symbol line {line!r}", filename, lineno)
        sid, sym_text, flag = _number(parts[0]), parts[1], parts[2]
        if sid is None:
            raise ParseError(f"bad symbol id {parts[0]!r}", filename, lineno)
        if flag == "p":
            i = find_unescaped(sym_text, ":".__eq__)
            sym = table.pair_symbol(
                _pair_side(table, sym_text[:i], filename, lineno),
                _pair_side(table, sym_text[i + 1:], filename, lineno))
        elif flag == "m":
            sym = table.declare_multichar(sym_text)
        elif flag == "-":
            sym = table.intern(sym_text)
        else:
            raise ParseError(f"bad multichar flag {flag!r}, expected 'p', "
                             f"'m' or '-'", filename, lineno)
        if sym.id != sid:
            raise ParseError("symbol file ids are not dense", filename,
                             lineno)
    return table
