"""Per-layer tracing by wrapping the program's public functions from outside.

Each wrapped function gets a span at its boundary: its name, start and end,
the span that caused it and the CLI call it belongs to. Functions called
once per token or grapheme are aggregated per function instead of keeping
one span per call. A layer's self time is its duration minus the time its
child calls take.

The tracer's own bookkeeping after a call ends (counting tokens, recording
the span) is charged to no layer: the parent sees the child's full cost as
child time.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric prefix, kind). A name bound into several
# modules by ``from ... import`` is wrapped in each of them under one
# prefix. "span" keeps one span per call, "agg" only aggregates and "gen"
# times each step of a generator.
TARGETS = (
    ("cli", "run", "cli.run", "span"),
    ("translit", "load_builtin", "translit.load_builtin", "span"),
    ("translit", "parse_ruleset", "translit.parse_ruleset", "span"),
    ("translit", "transliterate", "translit.transliterate", "agg"),
    ("conllu", "transliterate", "translit.transliterate", "agg"),
    ("translit", "segment_graphemes", "scripts.segment_graphemes", "agg"),
    ("scripts", "segment_graphemes", "scripts.segment_graphemes", "agg"),
    ("scripts", "classify_script", "scripts.classify_script", "agg"),
    ("scripts", "script_distribution", "scripts.script_distribution", "span"),
    ("conllu", "parse_conllu", "conllu.parse_conllu", "span"),
    ("conllu", "transliterate_conllu", "conllu.transliterate_conllu", "span"),
    ("conllu", "write_conllu", "conllu.write_conllu", "span"),
    ("ner", "parse_ner", "ner.parse_ner", "span"),
    ("ner", "transliterate_ner", "ner.transliterate_ner", "span"),
    ("ner", "write_ner", "ner.write_ner", "span"),
    ("ner", "extract_spans", "ner.extract_spans", "agg"),
    ("metrics", "extract_spans", "ner.extract_spans", "agg"),
    ("metrics", "eval_pos", "metrics.eval_pos", "span"),
    ("metrics", "eval_dep", "metrics.eval_dep", "span"),
    ("metrics", "eval_ner", "metrics.eval_ner", "span"),
    ("corpus", "dedup_lines", "corpus.dedup_lines", "span"),
    ("splits", "make_folds", "splits.make_folds", "span"),
    ("splits", "cv_runs", "splits.cv_runs", "gen"),
)

# Counts taken at the boundary: name -> f(args, result).
COUNTERS = {
    "translit.transliterate": {"chars": lambda a, r: len(a[0])},
    "scripts.script_distribution": {"tokens": lambda a, r: r.total},
    "conllu.parse_conllu": {"tokens": lambda a, r: sum(len(s.tokens) for s in r)},
    "conllu.write_conllu": {"tokens": lambda a, r: sum(len(s.tokens) for s in a[0])},
    "ner.parse_ner": {"tokens": lambda a, r: sum(len(s.tokens) for s in r)},
    "corpus.dedup_lines": {"lines_in": lambda a, r: len(a[0]), "lines_out": lambda a, r: len(r)},
}


class Tracer:
    """Wraps the targets, keeps one stack of open calls and the totals.

    The benchmark calls the CLI from one thread, so one stack suffices.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        # open calls: [id, time covered by child calls]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # whitespace-separated forms passed to the rewrite engine
        self.forms_seen: set[str] = set()
        self.forms_total = 0

    def install(self) -> None:
        for mod_name, attr, name, kind in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_gen(fn, name) if kind == "gen"
                    else self._wrap(fn, name, kind == "span"))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, keep_span: bool):
        def traced(*args, **kwargs):
            return self._timed(fn, name, keep_span, args, kwargs)

        return traced

    def _wrap_gen(self, fn, name: str):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self._timed(next, name, False, (it,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def _timed(self, fn, name, keep_span, args, kwargs):
        t_enter = perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        self.self_s[name] += t1 - t0 - frame[1]
        self.calls[name] += 1
        for quantity, count in COUNTERS.get(name, {}).items():
            self.counts[f"{name}.{quantity}"] += count(args, result)
        if name == "translit.transliterate":
            forms = args[0].split()
            self.forms_total += len(forms)
            self.forms_seen.update(forms)
        if keep_span:
            root = stack[0][0] if stack else frame[0]
            self.spans.append((name, t0, t1, frame[0], parent[0] if parent else None, root))
        if parent is not None:
            parent[1] += perf_counter() - t_enter
        return result

    def report(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        out: dict[str, float] = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[f"{name}.self_s"] = self.self_s[name] / rounds
            out[f"{name}.calls"] = self.calls[name] / rounds
        for name, quantities in COUNTERS.items():
            for quantity in quantities:
                key = f"{name}.{quantity}"
                out[key] = self.counts[key] / rounds
        total = self.forms_total
        out["translit.transliterate.distinct_share"] = (
            len(self.forms_seen) / total if total else 0.0)
        return out
