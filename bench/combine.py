"""Time the unrestricted rule combination in a process of its own.

    python3 bench/combine.py RULES.twol --rules-used K --repeat R --seed N

Combines the first K rules of RULES.twol with twol.combine_rules(...,
"direct"), R times, then probes the result against twol.check_rule (see
checks.combined_mismatches).  Prints one JSON line: the seconds of each
combine alone, states and arcs of the result, probes and mismatches.
The parent reads this process's peak RSS from its exit status.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fstmorph import twol  # noqa: E402

import checks  # noqa: E402

PROBES = 100


def leading_rules(twol_text, count):
    full = twol.parse_twol(twol_text)
    return twol.RuleSet(full.alphabet, full.sets, full.rules[:count])


def combine_and_check(ruleset, repeat, seed):
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        acc = twol.combine_rules(ruleset, "direct")
        seconds.append(time.perf_counter() - start)
    probes, bad = checks.combined_mismatches(acc, ruleset.rules, ruleset,
                                             seed, PROBES)
    return {"seconds": seconds, "states": acc.num_states,
            "arcs": len(acc.arcs), "probes": probes, "mismatches": bad}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("rules")
    ap.add_argument("--rules-used", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    text = pathlib.Path(args.rules).read_text(encoding="utf-8")
    print(json.dumps(combine_and_check(leading_rules(text, args.rules_used),
                                       args.repeat, args.seed)))


if __name__ == "__main__":
    main()
