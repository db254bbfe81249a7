"""Compare two revisions on the benchmark in alternating pairs and write the
result as a ``BENCH_<n>.json`` file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seed0 1400 \\
        --trace-workload eval-seeds --work /tmp/pairs --out BENCH_14.json

Each commit is unpacked with ``git archive`` into its own directory under
``--work``, and ``perfbench/run.py`` is run from there, so both sides run
the benchmark code of their own commit. Every workload in the change's
``BENCHMARK.json`` gets ten pairs of runs of its ``run_seconds``: pair
``k`` runs both sides on seed ``seed0 + k``, the parent first when ``k``
is even. Each side's runs are summarised by their median and quartiles
(``statistics.quantiles(n=4)``, exclusive method), and each metric counts
the pairs the change won, ties counting for neither. A metric's ``gain``
is true when the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the distance between the
parent's quartiles. Its ``regression`` is true when its median is worse
than the parent's by more than the metric's bound. Otherwise, for a
metric with no gain, it is ``"unresolved"`` when the parent's quartile
spread, as a share of its median, is wider than the bound and not every
run of the change is better than every run of the parent; it is false
in every other case. A traced pair (``--trace 1``) on seed ``seed0`` is
then run for each ``--trace-workload``. The output file is rewritten
after every workload, so a stopped comparison keeps what it finished.

Standard library only; needs ``git`` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def unpack(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` to ``dest``; return its short id."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout.name}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, results: dict[str, list[dict]]) -> dict:
    """One end-to-end metric over the pairs: each side's summary and the verdicts."""
    name, higher = spec["name"], spec["better"] == "higher"
    values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
    parent, change = summary(values["parent"]), summary(values["change"])
    sign = 1 if higher else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    diff = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    gain = won >= 0.9 * PAIRS and diff > spread
    if -diff > spec["bound"] * parent["median"]:
        regression: bool | str = True
    elif (not gain and spread > spec["bound"] * parent["median"]
          and min(sign * c for c in values["change"]) <= max(sign * p for p in values["parent"])):
        regression = "unresolved"
    else:
        regression = False
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_won": won,
        "gain": gain,
        "regression": regression,
    }


def failed(results: list[dict]) -> str:
    return (f"{sum(r['failed'] for r in results)} of "
            f"{sum(r['attempted'] for r in results)} operations")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit measured as the parent")
    ap.add_argument("--change", required=True, help="commit measured as the change")
    ap.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--trace-workload", action="append", default=[],
                    help="workload that also gets one traced pair (repeatable)")
    ap.add_argument("--work", type=Path, required=True,
                    help="new directory for the two checkouts")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--note", default="", help="what the change does, for the 'change' field")
    ap.add_argument("--claim", default="none", help="the gain the change claims, if any")
    args = ap.parse_args()

    dirs = {side: args.work / side for side in SIDES}
    ids = {side: unpack(rev, dirs[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    last = args.seed0 + PAIRS - 1
    out = {
        "change": args.note,
        "parent": ids["parent"],
        "change_rev": ids["change"],
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "pairs": f"seeds {args.seed0}-{last}; the parent runs first on even seeds",
        "quartiles": "statistics.quantiles(n=4), exclusive method, over the runs of one side",
        "claim": args.claim,
        "workloads": {},
    }

    def write() -> None:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")

    for workload in (w["name"] for w in bench["workloads"]):
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k in range(PAIRS):
            seed = args.seed0 + k
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                started = time.monotonic()
                results[side].append(run_once(dirs[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}: {time.monotonic() - started:.0f} s, "
                      f"correct {results[side][-1]['correct']}", file=sys.stderr)
        correct = all(r["correct"] for side in SIDES for r in results[side])
        out["workloads"][workload] = {
            "pairs": PAIRS,
            "seeds": f"{args.seed0}-{last}",
            "correct": correct,
            "failed": {side: failed(results[side]) for side in SIDES},
            "end_to_end": ({m["name"]: compare(m, results) for m in bench["end_to_end"]}
                           if correct else {}),
        }
        write()

    if args.trace_workload:
        traced = out["traced"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed0} "
                       f"--seconds {seconds:g} --trace 1",
            "per_round": {},
        }
        for workload in args.trace_workload:
            for side in SIDES:
                res = run_once(dirs[side], workload, args.seed0, seconds, 1)
                traced["per_round"][f"{workload}/{side}"] = {
                    "correct": res["correct"],
                    "layers": {k: v["value"] for k, v in res["metrics"].items()},
                }
            write()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
