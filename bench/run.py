"""fstmorph benchmark: compile, lookup and unrestricted rule combination.

    python3 bench/run.py --workload fixture --seed 1 --seconds 55 --trace 0

Run from the repository root.  One caller in a closed loop; at most one
child process at a time.  A run repeats whole rounds of the workload's
operations, as many as end nearest to --seconds, checks every output
against the oracle in inputs.py and checks.py, and prints one JSON object
as its last line of output: end-to-end metrics with --trace 0, per-layer metrics from
spans (spans.py) with --trace 1.  See README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"


@dataclass(frozen=True)
class Workload:
    grammar: str          # "fixture" or "synth"
    rules_used: int       # leading rules given to the unrestricted combine
    combine_repeat: int   # combines per child process, two per round
    lookup_lemmas: int    # synth: lemmas per root sampled for lookups
    passes: int           # passes over the lookup lists per round
    batch: int            # words per timed lookup batch (0: whole list)
    cli_repeat: int       # copies of the surface list in the CLI batch


WORKLOADS = {
    "fixture": Workload("fixture", 17, 1, 0, 40, 0, 150),
    "synth-lexicon": Workload("synth", 6, 4, 8, 1, 4, 2),
}
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "compile_s": "s", "combine_s": "s", "peak_rss_mb": "MB",
    "artifact_bytes": "bytes", "generate_per_s": "1/s",
    "analyze_per_s": "1/s", "relaxed_per_s": "1/s", "cli_lookup_per_s": "1/s",
}
RATES = ("generate_per_s", "analyze_per_s", "relaxed_per_s")


def import_fstmorph():
    """Import fstmorph from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    try:
        from fstmorph import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import fstmorph from {SRC}: {exc}")
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: fstmorph came from {cli.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    grammar: object
    gen: list                 # inputs.Case
    ana: list                 # (surface, frozenset of gold analyses)
    rel: list                 # inputs.Misspelling
    cli_words: list
    cli_gold: dict


def surfaces_of(cases):
    gold = {}
    for c in cases:
        for s in sorted(c.surfaces):
            gold.setdefault(s, set()).add(c.analysis)
    return [(s, frozenset(a)) for s, a in gold.items()]


def make_inputs(wl, seed, work):
    import inputs

    if wl.grammar == "fixture":
        g = inputs.fixture_grammar()
        gen, missp = g.cases, g.misspellings
    else:
        g = inputs.write_synth_grammar(seed, work / "grammar")
        # The same number of lemmas of each root and prefix length, so
        # every seed looks up words of the same make-up.
        rng = random.Random(seed + 1)
        lemmas = sorted({inputs.lemma_of(c.analysis) for c in g.cases})
        per_length = wl.lookup_lemmas // len(inputs.PREFIX_COUNTS)
        picked = set()
        for root in sorted({inputs.lemma_of(c.analysis)
                            for c in inputs.fixture_cases()}):
            for length in inputs.PREFIX_COUNTS:
                picked.update(rng.sample(
                    [l for l in lemmas if l.endswith(root)
                     and len(l) == len(root) + length], per_length))
        gen = [c for c in g.cases if inputs.lemma_of(c.analysis) in picked]
        missp = [m for m in g.misspellings
                 if inputs.lemma_of(m.analysis) in picked]
    ana = surfaces_of(gen)
    words = [s for s, _ in ana] * wl.cli_repeat
    return Inputs(g, gen, ana, missp, words, {s: a for s, a in ana})


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: {
        k: [] for k in END_TO_END if k not in RATES})
    batches: dict = field(default_factory=lambda: {k: {} for k in RATES})

    def record(self, ok, n=1):
        self.attempted += n
        if not ok:
            self.failed += n


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    stdout: str


def run_child(argv, work, stdin_text=""):
    """Run one Python child to completion, its stderr passed through;
    wall time and peak RSS come from wait4."""
    in_path, out_path = work / "child.in", work / "child.out"
    in_path.write_text(stdin_text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(in_path, "rb") as fin, open(out_path, "wb") as fout:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=fin,
                                stdout=fout, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8"))


def compile_args(files, art):
    return ["compile", str(files["roots.lexc"]), str(files["affixes.lexc"]),
            "--rules", str(files["phonology.twol"]),
            "--orthography", str(files["orthography.tsv"]),
            "--relax", str(files["relax.tsv"]), "--out", str(art)]


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def build_lookup_pipeline(files):
    from fstmorph import lookup

    def read(name):
        return files[name].read_text(encoding="utf-8")

    return lookup.load_pipeline(
        [read("roots.lexc"), read("affixes.lexc")], read("phonology.twol"),
        orthography_text=read("orthography.tsv"),
        relax_text=read("relax.tsv"))


def batches(items, size):
    size = size or len(items)
    return [items[i:i + size] for i in range(0, len(items), size)]


def lookup_units(pipe, inp, wl, tally):
    """One pass of (generate, analyze, relaxed) lookups as a list of
    units, each timing one batch and checking its outputs.
    tally.batches[rate][i] collects the seconds of every timing of batch i."""
    import checks
    from fstmorph import lookup

    def unit(rate, i, batch, call, ok):
        def run():
            start = time.perf_counter()
            outs = [call(item) for item in batch]
            tally.batches[rate].setdefault(i, (len(batch), []))[1].append(
                time.perf_counter() - start)
            for item, out in zip(batch, outs):
                tally.record(ok(out, item))
        return run

    kinds = [
        ("generate_per_s", inp.gen,
         lambda c: lookup.generate(pipe, c.analysis), checks.generate_ok),
        ("analyze_per_s", inp.ana, lambda a: lookup.analyze(pipe, a[0]),
         lambda out, a: checks.analyze_ok(out, a[1])),
        ("relaxed_per_s", inp.rel, lambda m: lookup.analyze(pipe, m.word),
         lambda out, m: checks.relaxed_ok(out, m.analysis)),
    ]
    return [unit(rate, i, batch, call, ok)
            for rate, items, call, ok in kinds
            for i, batch in enumerate(batches(items, wl.batch))]


def batch_rate(timings):
    """Words per second over the whole list: each batch's median time
    over its repetitions, summed.  Batches hold different words, so a
    median taken across batches of unlike cost would depend on which
    batch lands in the middle."""
    words = sum(n for n, _ in timings.values())
    return words / sum(statistics.median(ts) for _, ts in timings.values())


def measured_round(wl, inp, units, seed, work, tally):
    """One round of the end-to-end measurement, tracing off.

    The machine's speed changes from one second to the next, so every
    metric is sampled at many moments: the round runs each child-process
    operation twice, and the in-process lookup units are dealt out into
    the gaps between child processes."""
    import checks

    files = inp.grammar.files
    art = work / "artifacts"
    s = tally.samples
    rss = []

    def compile_once():
        shutil.rmtree(art, ignore_errors=True)
        c = run_child(["-m", "fstmorph.cli", *compile_args(files, art)], work)
        tally.record(c.code == 0)
        s["compile_s"].append(c.wall)
        s["artifact_bytes"].append(dir_bytes(art) if art.is_dir() else 0)
        rss.append(c.rss_mb)

    def cold_start():
        c = run_child(["-m", "fstmorph.cli", "lookup", str(art)], work)
        tally.record(c.code == 0 and c.stdout == "")
        s["setup_s"].append(c.wall)

    def cli_batch():
        c = run_child(["-m", "fstmorph.cli", "lookup", str(art),
                       "--direction", "up"], work,
                      "".join(w + "\n" for w in inp.cli_words))
        bad = (checks.cli_failures(inp.cli_words, inp.cli_gold, c.stdout)
               if c.code == 0 else len(inp.cli_words))
        tally.attempted += len(inp.cli_words)
        tally.failed += bad
        s["cli_lookup_per_s"].append(len(inp.cli_words) / c.wall)

    def combine():
        c = run_child([str(BENCH / "combine.py"), str(files["phonology.twol"]),
                       "--rules-used", str(wl.rules_used),
                       "--repeat", str(wl.combine_repeat),
                       "--seed", str(seed)], work)
        result = json.loads(c.stdout) if c.code == 0 else None
        tally.record(result is not None and result["mismatches"] == 0)
        s["combine_s"].extend(result["seconds"] if result else [c.wall])
        rss.append(c.rss_mb)

    steps = ([compile_once] + [cold_start] * SETUP_REPEATS + [cli_batch,
             combine]) * 2
    work_units = units * wl.passes
    for k, step in enumerate(steps):
        step()
        for run in work_units[k::len(steps)]:
            run()
    s["peak_rss_mb"].append(max(rss))


def more_rounds(start, rounds, seconds):
    """Whole rounds only: stop at the round count whose end lies nearest
    to the requested measuring time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds


def end_to_end(wl, inp, seed, seconds, work, workload):
    pipe = build_lookup_pipeline(inp.grammar.files)
    # One untimed cold start fills the bytecode cache of a fresh checkout.
    run_child(["-m", "fstmorph.cli", "--help"], work)
    tally = Tally()
    units = lookup_units(pipe, inp, wl, tally)
    rounds = 0
    start = time.perf_counter()
    while not rounds or more_rounds(start, rounds, seconds):
        measured_round(wl, inp, units, seed, work, tally)
        rounds += 1
    elapsed = time.perf_counter() - start
    metrics = {k: statistics.median(v) for k, v in tally.samples.items()}
    metrics.update((k, batch_rate(tally.batches[k])) for k in RATES)
    timings = {k: sum(len(ts) for _, ts in tally.batches[k].values())
               for k in RATES}
    print(f"# {rounds} rounds in {elapsed:.1f} s; batch timings "
          + ", ".join(f"{k} {n}" for k, n in timings.items())
          + f"; {len(inp.cli_words)} words per CLI batch")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"samples-{workload}-seed{seed}.json", "w") as f:
        json.dump({"samples": tally.samples, "batches": tally.batches}, f)
    return tally, {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}


# ---------------------------------------------------------------------------
# traced run


def cli_main(argv, stdin_text=""):
    """fstmorph's CLI in this process, its output captured."""
    from fstmorph import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def traced_round(wl, inp, pipe, seed, work, tally):
    """One round with every layer in spans: compile, cold load, one pass
    of lookups, the combine.  Returns (tracer, traced compile seconds,
    untraced compile seconds)."""
    import checks
    import combine
    import spans

    files = inp.grammar.files
    art = work / "artifacts"
    shutil.rmtree(art, ignore_errors=True)
    start = time.perf_counter()
    code, _ = cli_main(compile_args(files, art))
    untraced = time.perf_counter() - start
    tally.record(code == 0)
    shutil.rmtree(art, ignore_errors=True)

    ruleset = combine.leading_rules(
        files["phonology.twol"].read_text(encoding="utf-8"), wl.rules_used)
    tracer = spans.Tracer()
    tracer.install()
    try:
        span = tracer.begin("bench.compile")
        code, _ = cli_main(compile_args(files, art))
        tracer.end(span)
        tally.record(code == 0)
        traced = span.seconds
        span = tracer.begin("bench.setup")
        code, out = cli_main(["lookup", str(art)])
        tracer.end(span)
        tally.record(code == 0 and out == "")
        span = tracer.begin("bench.lookup")
        for run in lookup_units(pipe, inp, wl, tally):
            run()
        tracer.end(span)
        span = tracer.begin("bench.combine")
        from fstmorph import twol
        acc = twol.combine_rules(ruleset, "direct")
        tracer.end(span)
    finally:
        tracer.remove()
    _, bad = checks.combined_mismatches(acc, ruleset.rules, ruleset, seed,
                                        combine.PROBES)
    tally.record(bad == 0)
    return tracer, traced, untraced


def per_layer(wl, inp, seed, seconds, work, workload):
    import spans

    pipe = build_lookup_pipeline(inp.grammar.files)
    tally = Tally()
    rounds, traced, untraced, coverage = [], [], [], []
    first = None
    start = time.perf_counter()
    while not rounds or more_rounds(start, len(rounds), seconds):
        tracer, t_on, t_off = traced_round(wl, inp, pipe, seed, work, tally)
        rounds.append(spans.layer_metrics(tracer, tracer.spans))
        traced.append(t_on)
        untraced.append(t_off)
        root = next(s for s in tracer.spans if s.name == "bench.compile")
        top = [s for s in tracer.spans if s.parent == root.id]
        coverage.append(sum(s.seconds for s in top) / root.seconds)
        first = first or tracer
    metrics = {k: (statistics.median(r[k] for r in rounds), unit)
               for k, unit in spans.LAYER_UNITS.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.compile_coverage"] = (statistics.median(coverage), "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    first.dump(path, {"workload": workload, "seed": seed,
                      "rounds": len(rounds),
                      "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"# {len(rounds)} traced rounds; spans of the first written to "
          f"{path.relative_to(ROOT)}")
    return tally, metrics


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_fstmorph()

    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inp = make_inputs(wl, args.seed, work)
    if args.trace:
        tally, metrics = per_layer(wl, inp, args.seed, args.seconds, work,
                                   args.workload)
    else:
        tally, metrics = end_to_end(wl, inp, args.seed, args.seconds, work,
                                    args.workload)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, ensure_ascii=False))


if __name__ == "__main__":
    main()
