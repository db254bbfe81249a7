"""Benchmark of the unseenlang CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload treebank-translit --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. It generates the workload's inputs from the seed, runs them in
rounds through ``unseenlang.cli.run`` in a separate measuring process,
checks every round's outputs against values computed apart from the
program, and prints one JSON object as its last line of output:

    {"correct": true, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run, whose spans are written to
``perfbench/_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROCESSES = 21
# A run must end within 180 s: no round starts after STOP_S, and the
# measuring process is given up for dead at GIVE_UP_S.
STOP_S = 150
GIVE_UP_S = 170
STARTED = time.monotonic()

PER_LAYER = (
    ("translit.transliterate.self_s", "s"),
    ("translit.transliterate.calls", "count"),
    ("translit.transliterate.chars", "chars"),
    ("translit.transliterate.distinct_share", "share"),
    ("scripts.segment_graphemes.self_s", "s"),
    ("scripts.segment_graphemes.calls", "count"),
    ("scripts.classify_script.self_s", "s"),
    ("scripts.classify_script.calls", "count"),
    ("scripts.script_distribution.self_s", "s"),
    ("scripts.script_distribution.tokens", "tokens"),
    ("conllu.parse_conllu.self_s", "s"),
    ("conllu.parse_conllu.tokens", "tokens"),
    ("conllu.transliterate_conllu.self_s", "s"),
    ("conllu.write_conllu.self_s", "s"),
    ("conllu.write_conllu.tokens", "tokens"),
    ("ner.parse_ner.self_s", "s"),
    ("ner.parse_ner.tokens", "tokens"),
    ("ner.transliterate_ner.self_s", "s"),
    ("ner.write_ner.self_s", "s"),
    ("ner.extract_spans.self_s", "s"),
    ("ner.extract_spans.calls", "count"),
    ("metrics.eval_pos.self_s", "s"),
    ("metrics.eval_dep.self_s", "s"),
    ("metrics.eval_ner.self_s", "s"),
    ("corpus.dedup_lines.self_s", "s"),
    ("corpus.dedup_lines.lines_in", "lines"),
    ("corpus.dedup_lines.lines_out", "lines"),
    ("splits.make_folds.self_s", "s"),
    ("splits.cv_runs.self_s", "s"),
    ("translit.load_builtin.self_s", "s"),
    ("translit.parse_ruleset.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.run.calls", "count"),
    ("trace.overhead_share", "share"),
)
SETUP_LAYERS = ("translit.load_builtin.self_s", "translit.parse_ruleset.self_s")


class Child:
    """The measuring process and its JSON-lines channel."""

    def __init__(self, rules, trace: bool, setup_only: bool = False):
        cmd = [sys.executable, str(BENCH / "child.py"), "--rules", ",".join(rules)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, encoding="utf-8")

    def recv(self) -> dict:
        timeout = max(0.0, STARTED + GIVE_UP_S - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the measuring process stopped or did not answer")
        return json.loads(line)

    def ask(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self.recv()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()


def cold_setup(rules, trace: bool) -> tuple[float, dict]:
    """Time from process start to the CLI imported and the rulesets loaded."""
    child = Child(rules, trace, setup_only=True)
    try:
        msg = child.recv()
        return msg["ready"] - child.started, msg["layers"]
    finally:
        child.close()


def measure(args) -> dict:
    workload = WORKLOADS[args.workload](ROOT, args.scale)
    trace = bool(args.trace)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    attempted = failed = 0
    measured_s = 0.0
    per_token: dict[bool, list[float]] = {False: [], True: []}  # wall s/token, by traced
    rates, cpu_per_ktok = [], []
    traced_rounds = 0
    counted = {"forms": 0, "tokens_parsed": 0, "lines_deduplicated": 0}

    setups = [cold_setup(workload.rulesets, trace) for _ in range(SETUP_PROCESSES)]
    child = Child(workload.rulesets, trace)
    try:
        child.recv()
        for r in itertools.count():
            rdir = work / f"r{r}"
            rdir.mkdir(parents=True)
            rnd = workload.generate(random.Random(f"{args.seed}:{args.workload}:{r}"),
                                    rdir, f"r{r}")
            # round 0 warms up; a traced run then alternates untraced and traced rounds
            traced = trace and r > 0 and r % 2 == 0
            if trace:
                child.ask(op="trace", on=traced)
            res = child.ask(op="run", cmds=rnd.cmds)
            if any(res["codes"]):
                problems.append(f"round {r}: exit codes {res['codes']}: {res['stderr']}")
                break
            n_failed, round_problems = workload.check(rnd)
            problems += [f"round {r}: {p}" for p in round_problems]
            if r == 0 and hasattr(workload, "idempotence_cmds"):
                problems += idempotence(child, workload, rnd)
            shutil.rmtree(rdir)
            if problems:
                break
            if r == 0:
                continue
            attempted += rnd.ops
            failed += n_failed
            measured_s += res["wall"]
            per_token[traced].append(res["wall"] / rnd.tokens)
            if traced:
                traced_rounds += 1
                for key in counted:
                    counted[key] += rnd.counts[key]
            else:
                rates.append(rnd.tokens / res["wall"])
                cpu_per_ktok.append(res["cpu"] * 1e6 / rnd.tokens)
            if measured_s >= args.seconds and (not trace or traced_rounds):
                break
            if time.monotonic() - STARTED > STOP_S:
                break
        final = child.ask(op="finish", traced_rounds=traced_rounds)
    finally:
        child.close()
        shutil.rmtree(work, ignore_errors=True)

    if problems:
        metrics = {}
    elif trace:
        metrics = trace_metrics(args, final, setups, per_token, traced_rounds, counted, problems)
    else:
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "tokens_per_s": (statistics.median(rates), "tokens/s"),
            "cpu_ms_per_ktok": (statistics.median(cpu_per_ktok), "ms/ktok"),
            "peak_rss_mb": (final["peak_rss_kb"] / 1024, "MB"),
        }
    if rates:
        print(f"{len(rates)} untraced rounds; tokens/s by round: "
              + " ".join(f"{r:.0f}" for r in rates), file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def idempotence(child: Child, workload, rnd) -> list[str]:
    """Transliterating the outputs a second time must change nothing."""
    cmds, pairs = workload.idempotence_cmds(rnd)
    res = child.ask(op="run", cmds=cmds)
    if any(res["codes"]):
        return [f"second transliteration: exit codes {res['codes']}: {res['stderr']}"]
    return [f"{second.name} changed when transliterated again"
            for first, second in pairs if first.read_bytes() != second.read_bytes()]


def trace_metrics(args, final, setups, per_token, traced_rounds, counted, problems) -> dict:
    layers = final["layers"]
    for key in SETUP_LAYERS:
        layers[key] = statistics.median(s[key] for _, s in setups)
    layers["trace.overhead_share"] = (
        statistics.median(per_token[True]) / statistics.median(per_token[False]) - 1
    )
    seen = {
        "forms": layers["translit.transliterate.calls"],
        "tokens_parsed": layers["conllu.parse_conllu.tokens"] + layers["ner.parse_ner.tokens"],
        "lines_deduplicated": layers["corpus.dedup_lines.lines_in"],
    }
    for key, value in seen.items():
        if round(value * traced_rounds) != counted[key]:
            problems.append(f"trace counted {value * traced_rounds:.0f} {key}, "
                            f"the inputs hold {counted[key]}")
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "traced_rounds": traced_rounds,
              "layers": layers, "spans": [dict(zip(
                  ("name", "start", "end", "id", "parent", "trace"), s))
                  for s in final["spans"]]}
    (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {name: (layers[name], unit) for name, unit in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "unseenlang" / "cli.py").is_file():
        print(f"error: no unseenlang sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
