"""The measuring process: runs batches of CLI commands in-process, in one
thread, on request.

It never builds inputs, so its peak resident memory is the program's. It
talks JSON lines: requests on stdin, replies on stdout.

    python3 perfbench/child.py --rules cyrillic_latin,uyghur_latin [--setup-only] [--trace]

After set-up (importing ``unseenlang.cli`` and loading the rulesets) it
prints ``{"ready": <time.monotonic()>}``; the caller subtracts the time it
started the process. With ``--setup-only`` it then exits. Requests:

    {"op": "run", "cmds": [[argv...], ...]}  -> {"wall", "cpu", "codes", "stderr"}
    {"op": "trace", "on": true|false}          -> {"ok": true}
    {"op": "finish", "traced_rounds": n}       -> {"peak_rss_kb", "layers", "spans"}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rules", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from unseenlang import cli, conllu, corpus, metrics, ner, scripts, splits, translit

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer({"cli": cli, "translit": translit, "scripts": scripts,
                         "conllu": conllu, "ner": ner, "metrics": metrics,
                         "corpus": corpus, "splits": splits})
        if args.setup_only:
            tracer.install()
    for name in filter(None, args.rules.split(",")):
        translit.load_builtin(name)
    ready = time.monotonic()
    if args.setup_only:
        _send({"ready": ready, "layers": tracer.report(1) if tracer else {}})
        return 0
    _send({"ready": ready})

    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "run":
            codes = []
            err = io.StringIO()
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            with contextlib.redirect_stderr(err):
                for argv in req["cmds"]:
                    codes.append(cli.run(argv))
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
            _send({"wall": wall, "cpu": cpu, "codes": codes,
                   "stderr": err.getvalue() if any(codes) else ""})
        elif req["op"] == "trace":
            if req["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            _send({"ok": True})
        elif req["op"] == "finish":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"peak_rss_kb": peak_kb}
            if tracer:
                reply["layers"] = tracer.report(max(1, req.get("traced_rounds", 1)))
                reply["spans"] = tracer.spans
            _send(reply)
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
