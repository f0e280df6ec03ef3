"""Benchmark inputs and the oracle they are checked against.

Everything here is computed from the fixture's source files with plain
string handling, never by calling fstmorph, so the expected outputs stay
independent of the program under test:

* gold cases come from the hand-written ``suite.txt``;
* the synthetic lexicon prefixes fixture roots with consonants that no
  rule alternates, so a prefixed lemma's forms are the prefix plus the
  root's gold forms;
* misspellings apply one ``relax.tsv`` substitution to a gold surface.

Run as a script to write a synthetic grammar:

    python3 bench/inputs.py --seed 1 --out synth-grammar/
"""

from __future__ import annotations

import argparse
import pathlib
import random
import shutil
import unicodedata
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "src" / "fstmorph" / "fixtures" / "sms_mini"
SOURCE_FILES = ("roots.lexc", "affixes.lexc", "phonology.twol",
                "orthography.tsv", "relax.tsv")

# Consonants that no rule of phonology.twol rewrites or needs in a context
# position a prefix could fill.
PREFIX_CONSONANTS = ("b", "f", "j", "k", "l", "n", "r", "s", "v", "ž")
# Synthetic lemmas per fixture root, by prefix length: 60 per root, 300 in
# all.  Length one has only ten prefixes, so it takes a seeded six.
PREFIX_COUNTS = {1: 6, 2: 18, 3: 18, 4: 18}


def _read(path):
    return unicodedata.normalize(
        "NFC", pathlib.Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Case:
    """One gold cell: an analysis and its exact set of surfaces."""

    analysis: str
    surfaces: frozenset


@dataclass(frozen=True)
class Misspelling:
    word: str
    analysis: str


def parse_gold(text):
    """Cases of a suite file: ``analysis: surface`` or
    ``analysis: [variant, variant]`` per line, ``#`` comments."""
    cases = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        analysis, _, rhs = line.partition(":")
        rhs = rhs.strip()
        if rhs.startswith("["):
            surfaces = [s.strip() for s in rhs.strip("[]").split(",")]
        else:
            surfaces = [rhs]
        cases.append(Case(analysis.strip(), frozenset(surfaces)))
    return cases


def parse_pairs(text):
    """(symbol, variant) rows of a two-column TSV; variant "" for "0"."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, variant = line.split("\t")
        rows.append((key, "" if variant == "0" else variant))
    return rows


def lemma_of(analysis):
    return analysis.split("+", 1)[0]


def misspellings(cases, relax_rows, orthography_rows):
    """Every distinct string made by one relax substitution in one gold
    surface.  Substitutions the orthography map also makes are left out:
    the pedagogical analyzer accepts those strictly, so they would not
    exercise the relaxed fallback."""
    ortho = set(orthography_rows)
    rules = [(k, v) for k, v in relax_rows if (k, v) not in ortho]
    gold_surfaces = {s for c in cases for s in c.surfaces}
    out = {}
    for case in cases:
        for surface in sorted(case.surfaces):
            for key, variant in rules:
                start = surface.find(key)
                while start >= 0:
                    word = surface[:start] + variant + surface[start + len(key):]
                    if word not in gold_surfaces:
                        out.setdefault((word, case.analysis),
                                       Misspelling(word, case.analysis))
                    start = surface.find(key, start + 1)
    return sorted(out.values(), key=lambda m: (m.word, m.analysis))


def prefixed(case, prefix):
    return Case(prefix + case.analysis,
                frozenset(prefix + s for s in case.surfaces))


def fixture_cases():
    return parse_gold(_read(FIXTURE / "suite.txt"))


def fixture_misspellings(cases):
    return misspellings(cases, parse_pairs(_read(FIXTURE / "relax.tsv")),
                        parse_pairs(_read(FIXTURE / "orthography.tsv")))


def draw_prefixes(rng, roots):
    """{root lemma: [prefix, ...]}, PREFIX_COUNTS of each length per root,
    distinct within a root, in a seeded order."""
    out = {}
    for lemma in roots:
        chosen = []
        for length, count in PREFIX_COUNTS.items():
            seen = set()
            while len(seen) < count:
                seen.add("".join(rng.choice(PREFIX_CONSONANTS)
                                 for _ in range(length)))
            chosen += sorted(seen)
        rng.shuffle(chosen)
        out[lemma] = chosen
    return out


def _root_entries(roots_text):
    """(head, {lemma: entry line}) of the fixture's root lexicon."""
    head, marker, body = roots_text.partition("LEXICON Root")
    entries = {}
    for raw in body.splitlines():
        line = raw.strip()
        if line and not line.startswith("!"):
            entries[lemma_of(line.split(":", 1)[0])] = line
    return head + marker, entries


def synth_roots(roots_text, prefixes):
    """Root lexicon whose entries are the fixture roots under each prefix
    (both the analysis and the stem side get the prefix)."""
    head, entries = _root_entries(roots_text)
    lines = [head]
    for lemma, plist in prefixes.items():
        for p in plist:
            lines.append(p + entries[lemma].replace(":", ":" + p, 1))
    return "\n".join(lines) + "\n"


@dataclass
class Grammar:
    """A workload's sources on disk and its expected outputs."""

    files: dict          # source name -> path
    cases: list          # Case, all gold cells of the lexicon
    misspellings: list   # Misspelling
    lemmas: int


def fixture_grammar():
    cases = fixture_cases()
    return Grammar({n: FIXTURE / n for n in SOURCE_FILES}, cases,
                   fixture_misspellings(cases), 6)


def write_synth_grammar(seed, out_dir):
    """Write the seeded synthetic sources into out_dir; return its Grammar.

    Only the written files are handed to fstmorph; the returned cases are
    derived from the fixture gold by prefixing."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gold = fixture_cases()
    roots = sorted({lemma_of(c.analysis) for c in gold})
    prefixes = draw_prefixes(random.Random(seed), roots)
    files = {}
    for name in SOURCE_FILES:
        files[name] = out_dir / name
        if name != "roots.lexc":
            shutil.copyfile(FIXTURE / name, files[name])
    files["roots.lexc"].write_text(
        synth_roots(_read(FIXTURE / "roots.lexc"), prefixes), encoding="utf-8")
    by_root = {}
    for c in gold:
        by_root.setdefault(lemma_of(c.analysis), []).append(c)
    miss_by_root = {}
    for m in fixture_misspellings(gold):
        miss_by_root.setdefault(lemma_of(m.analysis), []).append(m)
    cases, missp = [], []
    for lemma, plist in prefixes.items():
        for p in plist:
            cases += [prefixed(c, p) for c in by_root[lemma]]
            missp += [Misspelling(p + m.word, p + m.analysis)
                      for m in miss_by_root.get(lemma, ())]
    return Grammar(files, cases, missp, sum(map(len, prefixes.values())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    g = write_synth_grammar(args.seed, args.out)
    print(f"wrote {args.out}: {g.lemmas} lemmas, {len(g.cases)} gold cells, "
          f"{len(g.misspellings)} misspellings")


if __name__ == "__main__":
    main()
