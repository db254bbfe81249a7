"""Command-line entry point wiring all modules into one pipeline tool.

Exit codes: 0 success, 1 data/validation error, 2 usage error. Diagnostics
go to stderr; data goes to stdout or the ``--out`` target (``-`` = stdout).
Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import __version__, conllu, corpus, metrics, ner, scripts, splits, taxonomy, translit

__all__ = ["run", "main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _open_text(path: str):
    """Context manager over the text stream of ``path``; stdin stays open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_ruleset(spec: str) -> translit.RuleSet:
    """A built-in ruleset name, a rule-file path or ``-`` (stdin)."""
    if spec in translit.builtin_names():
        return translit.load_builtin(spec)
    return translit.parse_ruleset(_read_text(spec))


def _transliterate_text(text: str, fmt: str, rs, lemmas: bool) -> str:
    if fmt == "raw":
        return "\n".join(translit.transliterate(line, rs) for line in text.splitlines()) + (
            "\n" if text else ""
        )
    if fmt == "conllu":
        sents = conllu.parse_conllu(text)
        return conllu.write_conllu(conllu.transliterate_conllu(sents, rs, lemmas=lemmas))
    if fmt == "ner":
        sents = ner.parse_ner(text)
        return ner.write_ner(ner.transliterate_ner(sents, rs))
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_translit(args) -> int:
    rs = _load_ruleset(args.rules)
    try:
        rs.check()
    except translit.RuleFileError as exc:
        raise translit.RuleFileError(f"{args.rules}: {exc}") from None
    inputs = args.inputs
    if len(inputs) > 1:
        out_dir = Path(args.out)
        if args.out in (None, "-") or (out_dir.exists() and not out_dir.is_dir()):
            raise ValueError("--out must be a directory when multiple inputs are given")
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in inputs:
            result = _transliterate_text(_read_text(path), args.format, rs, not args.no_lemmas)
            (out_dir / Path(path).name).write_text(result, encoding="utf-8")
        return 0
    text = _read_text(inputs[0])
    _write_text(args.out, _transliterate_text(text, args.format, rs, not args.no_lemmas))
    return 0


def _cmd_rules_validate(args) -> int:
    rs = _load_ruleset(args.rules)
    report = translit.validate_ruleset(rs)
    _write_text(args.out, f"{rs.name}\t{len(rs.rules)} rules\t{report.describe()}\n")
    if not report.ok:
        print("validation failed", file=sys.stderr)
        return 1
    return 0


def _cmd_corpus_stats(args) -> int:
    text = _read_text(args.inp)
    if args.format == "conllu":
        sents = conllu.parse_conllu(text)
        n_tokens = sum(len(s.tokens) for s in sents)
    elif args.format == "ner":
        sents = ner.parse_ner(text, repair=args.repair)
        n_tokens = sum(len(s.tokens) for s in sents)
    else:
        lines = [l for l in text.splitlines() if l.strip()]
        sents = lines
        n_tokens = sum(len(l.split()) for l in lines)
    _write_text(args.out, f"sentences\t{len(sents)}\ntokens\t{n_tokens}\n")
    return 0


def _cmd_dedup(args) -> int:
    lines = _read_text(args.inp).splitlines()
    kept = corpus.dedup_lines(lines)
    _write_text(args.out, "\n".join(kept) + ("\n" if kept else ""))
    print(f"kept {len(kept)} of {len(lines)} lines", file=sys.stderr)
    return 0


def _cmd_scriptdist(args) -> int:
    # Streamed line by line. A line read ends at "\n" and no "\r\n" spans
    # two of them, so splitting each again with str.splitlines equals
    # splitting the whole text at once.
    with _open_text(args.inp) as f:
        lines = (part for line in f for part in line.splitlines(keepends=True))
        dist = scripts.script_distribution(
            scripts.read_vocab(lines), subword_prefix=args.subword_prefix
        )
    _write_text(args.out, dist.to_tsv())
    return 0


def _cmd_split(args) -> int:
    plan = splits.plan_splits(args.n, args.has_dev, k=args.k, seed=args.seed)
    lines = [
        f"strategy\t{plan.strategy.value}",
        f"k\t{plan.k}",
        f"dev_source\t{plan.dev_source.value}",
        f"seed\t{plan.seed}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    if plan.strategy is splits.Strategy.CROSS_VALIDATION:
        assignment = splits.make_folds(args.n, plan.k, plan.seed)
        if args.folds_out:
            fold_lines = [f"{i}\t{f}" for i, f in enumerate(assignment.folds)]
            _write_text(args.folds_out, "\n".join(fold_lines) + "\n")
        if args.runs_out:
            run_lines = []
            for run, test_fold, dev_fold in splits.cv_runs(plan, assignment):
                for fold in range(plan.k):
                    if fold == test_fold:
                        role = "test"
                    elif fold == dev_fold:
                        role = "dev"
                    else:
                        role = "train"
                    run_lines.append(f"{run}\t{role}\t{fold}")
            _write_text(args.runs_out, "\n".join(run_lines) + "\n")
    return 0


def _score_records(task: str, score) -> list[dict]:
    if task == "pos":
        return [{"task": "POS", "metric": "upos_acc", "value": score.accuracy}]
    if task == "dep":
        return [
            {"task": "DEP", "metric": "uas", "value": score.uas},
            {"task": "DEP", "metric": "las", "value": score.las},
        ]
    return [
        {"task": "NER", "metric": "precision", "value": score.precision},
        {"task": "NER", "metric": "recall", "value": score.recall},
        {"task": "NER", "metric": "f1", "value": score.f1},
    ]


def _cmd_eval(args) -> int:
    gold_text = _read_text(args.gold)
    preds = args.pred
    seeds = args.seeds if args.seeds else list(range(len(preds)))
    if len(seeds) != len(preds):
        raise ValueError("--seeds must list one seed per --pred file")
    if args.task == "ner":
        gold = ner.parse_ner(gold_text, repair=args.repair)
    else:
        gold = conllu.parse_conllu(gold_text)
    records = []
    for seed, pred_path in zip(seeds, preds):
        pred_text = _read_text(pred_path)
        if args.task == "pos":
            score = metrics.eval_pos(gold, conllu.parse_conllu(pred_text))
        elif args.task == "dep":
            score = metrics.eval_dep(
                gold, conllu.parse_conllu(pred_text), strict_deprel=args.strict_deprel
            )
        else:
            score = metrics.eval_ner(gold, ner.parse_ner(pred_text, repair=args.repair))
        for rec in _score_records(args.task, score):
            rec["seed"] = seed
            records.append(rec)
    if len(preds) > 1:
        by_metric: dict[str, list[float]] = {}
        for rec in records:
            by_metric.setdefault(rec["metric"], []).append(rec["value"])
        for name, values in by_metric.items():
            agg = metrics.aggregate_runs(values)
            task_name = records[0]["task"]
            records.append({"task": task_name, "metric": name, "value": agg.mean, "seed": "mean"})
            records.append({"task": task_name, "metric": name, "value": agg.sd, "seed": "sd"})
    if args.json:
        body = "".join(
            json.dumps({**r, "value": metrics.round_score(r["value"])}) + "\n" for r in records
        )
    else:
        body = "".join(
            f"{r['task']}\t{r['metric']}\t{metrics.round_score(r['value']):.2f}\t{r['seed']}\n"
            for r in records
        )
    _write_text(args.out, body)
    return 0


def _cmd_categorize(args) -> int:
    if args.inp == "builtin":
        points = taxonomy.paper_score_points()
    else:
        points = taxonomy.load_score_points(_read_text(args.inp))
    cat_points = [taxonomy.categorize_point(p, tau=args.tau) for p in points]
    body = taxonomy.points_tsv(cat_points)
    if args.language_labels:
        by_lang: dict[str, list] = {}
        for cp in cat_points:
            by_lang.setdefault(cp.language, []).append(cp)
        for lang in by_lang:
            label = taxonomy.categorize_language(by_lang[lang])
            body += f"{lang}\tall\t-\t-\t{label.value}\n"
    _write_text(args.out, body)
    return 0


def _cmd_langs(args) -> int:
    if args.iso:
        rec = corpus.lookup(args.iso)
        _write_text(
            args.out,
            f"{rec.iso}\t{rec.name}\t{rec.script.value}\t{rec.family}\t{rec.sents}\t{rec.source}\n",
        )
    else:
        _write_text(args.out, corpus.registry_tsv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unseenlang",
        description="Corpus preparation, transliteration, splits, metrics and "
        "language categorization for languages unseen by multilingual models.",
    )
    parser.add_argument("--version", action="version", version=f"unseenlang {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translit", help="transliterate raw text or an annotated corpus")
    p.add_argument("--rules", required=True, help="built-in ruleset name or rule-file path")
    p.add_argument("--in", dest="inputs", action="append", required=True, metavar="FILE")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("raw", "conllu", "ner"), default="raw")
    p.add_argument("--no-lemmas", action="store_true", help="leave CoNLL-U lemmas untouched")
    p.set_defaults(func=_cmd_translit)

    p = sub.add_parser("rules-validate", help="validate a transliteration ruleset")
    p.add_argument("--rules", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_rules_validate)

    p = sub.add_parser("corpus-stats", help="sentence and token counts of a corpus")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("raw", "conllu", "ner"), default="raw")
    p.add_argument("--repair", action="store_true", help="repair dangling IOB2 labels")
    p.set_defaults(func=_cmd_corpus_stats)

    p = sub.add_parser("dedup", help="line-level deduplication of a raw corpus")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("scriptdist", help="script distribution of a vocabulary file")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--subword-prefix", default="##", help="continuation marker to strip")
    p.set_defaults(func=_cmd_scriptdist)

    p = sub.add_parser("split", help="plan dataset splits and emit fold manifests")
    p.add_argument("--n", type=int, required=True, help="number of training sentences")
    dev = p.add_mutually_exclusive_group()
    dev.add_argument("--has-dev", dest="has_dev", action="store_true", default=True)
    dev.add_argument("--no-dev", dest="has_dev", action="store_false")
    p.add_argument("--k", type=int, default=splits.DEFAULT_K)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--folds-out", help="write sentence_index<TAB>fold manifest here")
    p.add_argument("--runs-out", help="write run<TAB>role<TAB>fold manifest here")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("eval", help="score predictions against gold annotations")
    p.add_argument("task", choices=("pos", "dep", "ner"))
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", action="append", required=True, metavar="FILE")
    p.add_argument("--seeds", type=int, nargs="+", help="seed label per prediction file")
    p.add_argument("--strict-deprel", action="store_true", help="compare deprel subtypes too")
    p.add_argument("--repair", action="store_true", help="repair dangling IOB2 labels")
    p.add_argument("--json", action="store_true", help="JSON-lines output instead of TSV")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("categorize", help="Easy/Intermediate/Hard categorization of score triples")
    p.add_argument("--in", dest="inp", default="builtin", help="score TSV, or 'builtin' for the shipped file")
    p.add_argument("--out", default="-")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--language-labels", action="store_true", help="append per-language aggregate rows")
    p.set_defaults(func=_cmd_categorize)

    p = sub.add_parser("langs", help="the registry of studied languages")
    p.add_argument("iso", nargs="?", help="one language code instead of the full table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_langs)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"unseenlang: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
