"""Symbol interning and multicharacter-aware tokenization.

All text enters through NFC normalization so that combining-mark and
precomposed spellings of the same grapheme intern to one id.  A '%' in
source text escapes the next code point; the canonical text of a symbol
keeps the escaped spelling, while longest-match tokenization runs over
the unescaped content.  find_unescaped is the one reader of '%' in
source text, and _scan reads the escapes inside a symbol token.

lex_lines is the one lexer of lexc and twol source: it drops each
line's comment and cuts the rest into tokens, each a "..." quoted
string or a run of code points up to whitespace, a quote or one of the
caller's special characters (each a token of its own).  A token
carries its text, file, line, whether it is glued to the token before
it on its line, and whether it was quoted.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, SymbolError, UnknownSymbolError

EPSILON_ID = 0
EPSILON_TEXT = "@0@"


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def unescape(text: str) -> str:
    """Strip '%' escapes, keeping the escaped code points literally."""
    return "".join(ch for ch, _ in _scan(text))


def _scan(text: str) -> list[tuple[str, bool]]:
    """Split into (code point, was_escaped) pairs, honoring '%'."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "%":
            if i + 1 >= len(text):
                raise SymbolError(f"dangling '%' escape at end of {text!r}")
            out.append((text[i + 1], True))
            i += 2
        else:
            out.append((text[i], False))
            i += 1
    return out


def find_unescaped(text: str, stop, start: int = 0) -> int:
    """Index of the first code point at or after start that no '%'
    escapes and for which stop(ch) holds, or len(text).  Each '%x' pair
    is skipped whole; a lone '%' at the end is a literal code point."""
    i = start
    while i < len(text):
        if text[i] == "%" and i + 1 < len(text):
            i += 2
        elif stop(text[i]):
            return i
        else:
            i += 1
    return len(text)


def strip_comment(line: str) -> str:
    """The line up to its first unescaped '!', escapes kept as written."""
    return line[:find_unescaped(line, "!".__eq__)]


class Token(NamedTuple):
    text: str
    file: str
    line: int
    glued: bool  # no whitespace between this and the previous token
    quoted: bool


def lex_lines(sources, quote, specials=""):
    """Yield the tokens of each line of the (filename, text) sources as
    one list.  A line is cut whole before it is yielded, so an
    unterminated quote ("unterminated <quote> quote") stops the reader
    before any token of its line."""
    stops = set(specials) | {'"'}

    def stop(ch):
        return ch.isspace() or ch in stops

    for filename, text in sources:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = strip_comment(raw)
            toks = []
            i, end = 0, -1  # nothing glues across line starts
            while i < len(line):
                ch = line[i]
                if ch.isspace():
                    i += 1
                    continue
                start = i
                if ch == '"':
                    i = line.find('"', start + 1) + 1
                    if not i:
                        raise ParseError(f"unterminated {quote} quote",
                                         filename, lineno)
                    tok = line[start + 1 : i - 1]
                else:
                    i = start + 1 if ch in stops else find_unescaped(
                        line, stop, start)
                    tok = line[start:i]
                toks.append(Token(tok, filename, lineno, start == end,
                                  ch == '"'))
                end = i
            yield toks


@dataclass(frozen=True)
class Symbol:
    id: int
    text: str

    def __str__(self):
        return self.text


class SymbolTable:
    """Interned alphabet shared by every transducer of one pipeline.

    Mutable while compiling (single writer); freeze() before sharing.
    Id 0 is reserved for epsilon.
    """

    def __init__(self):
        eps = Symbol(EPSILON_ID, EPSILON_TEXT)
        self._symbols = [eps]
        self._index = {EPSILON_TEXT: EPSILON_ID}
        self._multichar_ids = set()
        # unescaped content -> id, for longest-match tokenization
        self._contents = {}
        # first code point -> the lengths (2 or more) of the contents it
        # starts, longest first: the only lengths tokenize tries there
        self._starts = {}
        self._pair_parts = {}  # pair-symbol id -> (upper id, lower id)
        self._frozen = False

    # -- interning ---------------------------------------------------------

    def intern(self, text: str, multichar: bool = False) -> Symbol:
        if not text:
            raise SymbolError("cannot intern empty symbol text")
        if not isinstance(text, str):
            raise SymbolError(f"symbol text must be str, got {type(text)!r}")
        if "\t" in text:  # symbols.tsv and AT&T files are tab-separated
            raise SymbolError(f"symbol {text!r} holds a tab")
        text = nfc(text)
        sid = self._index.get(text)
        if sid is None:
            if self._frozen:
                raise SymbolError(f"symbol table is frozen; cannot intern {text!r}")
            sid = len(self._symbols)
            sym = Symbol(sid, text)
            self._symbols.append(sym)
            self._index[text] = sid
        # a one-character text is the content itself, even a '%'
        if multichar or (len(text) > 1 and len(unescape(text)) > 1):
            self._multichar_ids.add(sid)
        return self._symbols[sid]

    def declare_multichar(self, text: str) -> Symbol:
        """Intern a multicharacter symbol and register it for tokenization.

        Escaped and unescaped spellings of one symbol ("%^V2VV", "^V2VV")
        share a content key and resolve to the first-declared id.  A
        content already interned as a plain symbol keeps that symbol's
        id, now declared: one content never has two ids.
        """
        content = unescape(nfc(text))
        if not content:
            raise SymbolError(f"multichar symbol {text!r} has empty content")
        existing = self._find(content)
        if existing is not None:
            self._contents[content] = existing
            self._multichar_ids.add(existing)
            return self._symbols[existing]
        sym = self.intern(text, multichar=True)
        self._contents[content] = sym.id
        if len(content) > 1:
            lengths = self._starts.setdefault(content[0], [])
            if len(content) not in lengths:
                lengths.append(len(content))
                lengths.sort(reverse=True)
        return sym

    def _find(self, content):
        """The id of the symbol with this unescaped content, or None: a
        declared content first, then a plain one-code-point symbol.
        content_id, symbol_for and declare_multichar look up here, and
        tokenize looks up a lone code point in the same order."""
        sid = self._contents.get(content)
        if sid is None and len(content) == 1:
            sid = self._index.get(content)
        return sid

    def content_id(self, text: str):
        """Id of the symbol with this unescaped content, or None."""
        return self._find(unescape(nfc(text)))

    def symbol_for(self, text: str) -> Symbol:
        """Resolve a whitespace-delimited source token to one symbol,
        unifying escaped/unescaped spellings by content."""
        content = unescape(nfc(text))
        if not content:
            raise SymbolError(f"empty symbol token {text!r}")
        existing = self._find(content)
        if existing is not None:
            return self._symbols[existing]
        if len(content) == 1:
            return self.intern(content)
        return self.declare_multichar(text)

    def resolve(self, sid: int) -> str:
        if not isinstance(sid, int) or sid < 0 or sid >= len(self._symbols):
            raise SymbolError(f"unknown symbol id {sid!r}")
        return self._symbols[sid].text

    def __len__(self):
        return len(self._symbols)

    def __contains__(self, text):
        return nfc(text) in self._index

    def id_of(self, text: str) -> int:
        text = nfc(text)
        sid = self._index.get(text)
        if sid is None:
            raise UnknownSymbolError(f"symbol {text!r} not in table")
        return sid

    def symbols(self):
        return list(self._symbols)

    def is_multichar(self, sid: int) -> bool:
        return sid in self._multichar_ids

    def freeze(self):
        self._frozen = True

    # -- tokenization ------------------------------------------------------

    def tokenize(self, text: str, intern_new: bool = True) -> list[Symbol]:
        """Longest-match tokenization of NFC text against declared multichars.

        At each code point only the content lengths that it starts are
        tried, longest first, and then the code point alone.
        A lone unescaped "0" denotes epsilon (empty token sequence).
        With intern_new=False, characters outside the table raise
        UnknownSymbolError instead of interning fresh symbols.
        """
        content = nfc(text)
        if "%" in content:
            content = "".join(ch for ch, _ in _scan(content))
        elif content == "0":
            return []
        symbols, contents, starts = self._symbols, self._contents, self._starts
        out = []
        i = 0
        n = len(content)
        while i < n:
            ch = content[i]
            for length in starts.get(ch, ()):
                if length <= n - i:
                    match_id = contents.get(content[i : i + length])
                    if match_id is not None:
                        i += length
                        break
            else:  # _find's order, inlined on this per-character path
                match_id = contents.get(ch)
                if match_id is None:
                    match_id = self._index.get(ch)
                if match_id is None:
                    if not intern_new:
                        raise UnknownSymbolError(
                            f"character {ch!r} not in alphabet")
                    match_id = self.intern(ch).id
                i += 1
            out.append(symbols[match_id])
        return out

    # -- pair symbols ------------------------------------------------------

    def pair_symbol(self, upper: int, lower: int) -> Symbol:
        """Intern the composite "upper:lower" symbol (epsilon spelled "0",
        a '%', ':' or '0' side with a '%' before it, so that the text
        unescapes as a multichar and splits at its one unescaped ':')."""
        def side(sid):
            text = "0" if sid == EPSILON_ID else self.resolve(sid)
            return "%" + text if sid and text in ("%", ":", "0") else text

        sym = self.intern(f"{side(upper)}:{side(lower)}", multichar=True)
        self._pair_parts[sym.id] = (upper, lower)
        return sym

    def pair_parts(self, sid: int) -> tuple[int, int]:
        try:
            return self._pair_parts[sid]
        except KeyError:
            raise SymbolError(
                f"symbol {self.resolve(sid)!r} is not a pair symbol"
            ) from None

    def is_pair_symbol(self, sid: int) -> bool:
        return sid in self._pair_parts

    def render(self, ids) -> str:
        """Concatenated text of a symbol-id sequence (epsilons dropped)."""
        return "".join(self.resolve(i) for i in ids if i != EPSILON_ID)
