"""Spans around calls into fstmorph's public functions, from outside.

``Tracer.install()`` replaces the module attributes listed in WRAPPED
with timing wrappers and ``Tracer.remove()`` puts the originals back.
fst calls its own functions through module globals, so nested calls
(``minimize`` -> ``determinize`` -> ``_trim``) get spans of their own.
``att`` imports ``_trim`` by name, so its trims stay inside ``att.*``
spans.  Spans are kept in memory; ``layer_metrics`` folds them into the
per-layer figures and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from fstmorph import att, fst, lexc, lookup, symbols, twol

# (owner, attribute, span name); the owner is a module or a class
WRAPPED = [
    (symbols.SymbolTable, "tokenize", "symbols.tokenize"),
    (lexc, "parse_lexc", "lexc.parse_lexc"),
    (lexc, "compile_lexicon", "lexc.compile_lexicon"),
    (twol, "parse_twol", "twol.parse_twol"),
    (twol, "compile_rule", "twol.compile_rule"),
    (twol, "combine_rules", "twol.combine_rules"),
    (fst, "determinize", "fst.determinize"),
    (fst, "complement", "fst.complement"),
    (fst, "intersect", "fst.intersect"),
    (fst, "minimize", "fst.minimize"),
    (fst, "compose", "fst.compose"),
    (fst, "_trim", "fst._trim"),
    (fst, "enumerate_paths", "fst.enumerate_paths"),
    (fst, "invert", "fst.invert"),
    (lookup, "parse_mapping_file", "lookup.parse_mapping_file"),
    (lookup, "build_pipeline", "lookup.build_pipeline"),
    (lookup, "generate", "lookup.generate"),
    (lookup, "analyze", "lookup.analyze"),
    (att, "export_att", "att.export_att"),
    (att, "export_symbols", "att.export_symbols"),
    (att, "import_att", "att.import_att"),
    (att, "import_symbols", "att.import_symbols"),
]

CHECK_SPAN = "trace.check"


def is_deterministic(t):
    """No epsilon arc and no two arcs leaving a state on one label."""
    seen = set()
    for src, i, _, _ in t.arcs:
        if i == fst.EPSILON_ID or (src, i) in seen:
            return False
        seen.add((src, i))
    return True


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent, start):
        self.id, self.name, self.parent = sid, name, parent
        self.start, self.end, self.attrs = start, None, {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = tracer.begin(name)
            try:
                if name == "fst.determinize":
                    check = tracer.begin(CHECK_SPAN)
                    span.attrs["dfa_input"] = is_deterministic(args[0])
                    tracer.end(check)
                elif name == "fst._trim":
                    span.attrs["states_in"] = args[1]
                elif name == "twol.compile_rule":
                    span.attrs["index"] = args[1].rules.index(args[0])
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if name in ("twol.compile_rule", "lexc.compile_lexicon",
                        "twol.combine_rules"):
                span.attrs.update(states=out.num_states, arcs=len(out.arcs))
            elif name == "lookup.build_pipeline":
                span.attrs.update(generator_arcs=len(out.generator.arcs),
                                  analyzer_arcs=len(out.analyzer.arcs))
            return out

        return wrapped

    def install(self):
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn))

    def remove(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- folding -------------------------------------------------------------

    def children(self):
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return kids

    def self_times(self, spans=None):
        """Self seconds per span: duration minus its children's durations
        (one thread, so children never overlap)."""
        kids = self.children()
        return {s.id: s.seconds - sum(k.seconds for k in kids.get(s.id, ()))
                for s in (spans or self.spans)}

    def under(self, span, names):
        """Does span have an ancestor whose name is in names?"""
        pid = span.parent
        while pid is not None:
            p = self.spans[pid]
            if p.name in names:
                return True
            pid = p.parent
        return False

    def dump(self, path, extra):
        payload = dict(extra)
        payload["spans"] = [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": round(s.start, 7), "end": round(s.end, 7),
             **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans]
        payload["rules"] = [
            {"index": s.attrs["index"], "seconds": round(s.seconds, 6),
             "states": s.attrs["states"], "arcs": s.attrs["arcs"],
             "parent": self.spans[s.parent].name if s.parent is not None
             else None}
            for s in self.spans if s.name == "twol.compile_rule"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, ensure_ascii=False)


LOOKUP_SPANS = {"lookup.generate", "lookup.analyze"}

# per-layer metric -> unit
LAYER_UNITS = {
    "symbols.tokenize_s": "s",
    "lexc.parse_s": "s",
    "lexc.compile_s": "s",
    "lexc.arcs": "arcs",
    "twol.parse_s": "s",
    "twol.compile_rule_s": "s",
    "twol.compile_rule_max_s": "s",
    "twol.rule_states": "states",
    "fst.determinize_s": "s",
    "fst.determinize_calls": "count",
    "fst.determinize_dfa_inputs": "count",
    "fst.complement_s": "s",
    "fst.intersect_s": "s",
    "fst.intersect_states": "states",
    "fst.minimize_s": "s",
    "fst.minimize_calls": "count",
    "fst.compose_s": "s",
    "fst.compose_calls": "count",
    "fst.compose_states": "states",
    "fst.trim_s": "s",
    "fst.trim_calls": "count",
    "fst.enumerate_paths_s": "s",
    "fst.invert_calls": "count",
    "lookup.build_pipeline_s": "s",
    "lookup.generator_arcs": "arcs",
    "lookup.analyzer_arcs": "arcs",
    "att.export_s": "s",
    "att.import_s": "s",
}

SELF_TIME = {
    "symbols.tokenize_s": "symbols.tokenize",
    "lexc.parse_s": "lexc.parse_lexc",
    "lexc.compile_s": "lexc.compile_lexicon",
    "twol.parse_s": "twol.parse_twol",
    "fst.determinize_s": "fst.determinize",
    "fst.complement_s": "fst.complement",
    "fst.intersect_s": "fst.intersect",
    "fst.minimize_s": "fst.minimize",
    "fst.compose_s": "fst.compose",
    "fst.trim_s": "fst._trim",
    "fst.enumerate_paths_s": "fst.enumerate_paths",
    "att.export_s": "att.export_att",
    "att.import_s": "att.import_att",
}


def layer_metrics(tracer, spans):
    """Per-layer figures over the given spans (one traced round)."""
    own = tracer.self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {m: sum(own[s.id] for s in by_name[n])
           for m, n in SELF_TIME.items()}
    rules = by_name["twol.compile_rule"]
    out["twol.compile_rule_s"] = sum(s.seconds for s in rules)
    out["twol.compile_rule_max_s"] = max((s.seconds for s in rules),
                                         default=0.0)
    out["twol.rule_states"] = sum(s.attrs["states"] for s in rules)
    out["lexc.arcs"] = max((s.attrs["arcs"]
                            for s in by_name["lexc.compile_lexicon"]),
                           default=0)
    det = by_name["fst.determinize"]
    out["fst.determinize_calls"] = len(det)
    out["fst.determinize_dfa_inputs"] = sum(s.attrs["dfa_input"] for s in det)
    out["fst.minimize_calls"] = len(by_name["fst.minimize"])
    out["fst.compose_calls"] = len(by_name["fst.compose"])
    out["fst.trim_calls"] = len(by_name["fst._trim"])
    for op in ("intersect", "compose"):
        out[f"fst.{op}_states"] = sum(
            s.attrs["states_in"] for s in by_name["fst._trim"]
            if s.parent is not None
            and tracer.spans[s.parent].name == f"fst.{op}")
    out["fst.invert_calls"] = sum(
        1 for s in by_name["fst.invert"] if tracer.under(s, LOOKUP_SPANS))
    builds = by_name["lookup.build_pipeline"]
    out["lookup.build_pipeline_s"] = sum(s.seconds for s in builds)
    for key in ("generator_arcs", "analyzer_arcs"):
        out[f"lookup.{key}"] = max((s.attrs[key] for s in builds), default=0)
    return out
