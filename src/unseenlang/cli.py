"""Command-line entry point wiring all modules into one pipeline tool.

:data:`FORMATS` (format -> parser, transliterating writer, counted tokens)
and :data:`TASKS` (task -> file format, scorer, reported scores) are the
one place where a corpus format or an evaluation task is wired.

Exit codes: 0 success, 1 data/validation error, 2 usage error. Diagnostics
go to stderr, a data error prefixed with its input's path; data goes to
stdout or the ``--out`` target (``-`` = stdout), only after every input
has been read. Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

from . import __version__, conllu, corpus, metrics, ner, scripts, splits, taxonomy, translit

__all__ = ["run", "main"]


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[IO[str]]:
    """The UTF-8 text stream of ``path``, or stdin for ``-`` (left open).

    A ``ValueError`` raised while the stream is read or parsed, a decode
    error included, is re-raised with ``path`` in front of its message.
    """
    stream = contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")
    try:
        with stream as f:
            yield f
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


class _Format(NamedTuple):
    parse: Callable[[IO[str], bool], list]  # (stream, repair) -> items
    transliterate: Callable[[list, translit.RuleSet, bool], str]  # (items, rules, lemmas) -> text
    token_lists: Callable[[list], list]  # what corpus-stats counts: one list per sentence


# the entries look module functions up when called, so a wrapper set on a module
# (perfbench's tracer sets them) sees every command's calls
FORMATS = {
    "raw": _Format(
        lambda f, repair: [line for _, line in corpus.read_lines(f)],
        lambda lines, rs, lemmas: "".join(translit.transliterate(line, rs) + "\n" for line in lines),
        lambda lines: [tokens for line in lines if (tokens := line.split())],
    ),
    "conllu": _Format(
        lambda f, repair: conllu.parse_conllu(f),
        lambda sents, rs, lemmas: conllu.write_conllu(conllu.transliterate_conllu(sents, rs, lemmas)),
        lambda sents: [s.tokens for s in sents],
    ),
    "ner": _Format(
        lambda f, repair: ner.parse_ner(f, repair=repair),
        lambda sents, rs, lemmas: ner.write_ner(ner.transliterate_ner(sents, rs)),
        lambda sents: [s.tokens for s in sents],
    ),
}


class _Task(NamedTuple):
    fmt: str
    score: Callable[[list, list, bool], object]  # (gold, pred, strict_deprel) -> score
    metrics: tuple[tuple[str, str], ...]  # (metric name, score attribute)


TASKS = {
    "pos": _Task("conllu", lambda g, p, strict: metrics.eval_pos(g, p), (("upos_acc", "accuracy"),)),
    "dep": _Task(
        "conllu", lambda g, p, strict: metrics.eval_dep(g, p, strict), (("uas", "uas"), ("las", "las"))
    ),
    "ner": _Task(
        "ner",
        lambda g, p, strict: metrics.eval_ner(g, p),
        (("precision", "precision"), ("recall", "recall"), ("f1", "f1")),
    ),
}


def _read(path: str, fmt: str, repair: bool = False) -> list:
    """The items of ``path`` parsed as format ``fmt``."""
    with _open_input(path) as f:
        return FORMATS[fmt].parse(f, repair)


def _load_ruleset(spec: str, check: bool) -> translit.RuleSet:
    """A built-in ruleset name, a rule-file path or ``-`` (stdin); with
    ``check``, a rule file that fails validation is an error naming it."""
    if spec in translit.builtin_names():
        return translit.load_builtin(spec)
    with _open_input(spec) as f:
        rs = translit.parse_ruleset(f)
        if check:
            rs.check()
    return rs


def _cmd_translit(args) -> int:
    rs = _load_ruleset(args.rules, check=True)
    inputs, out_dir = args.inputs, Path(args.out)
    if len(inputs) > 1:
        if args.out == "-" or (out_dir.exists() and not out_dir.is_dir()):
            raise ValueError("--out must be a directory when multiple inputs are given")
        # each output is named after its input's file name, so two inputs must not share one
        first_by_name: dict[str, str] = {}
        for path in inputs:
            if path == "-":
                raise ValueError("stdin (-) cannot be one of several inputs")
            name = Path(path).name
            other = first_by_name.setdefault(name, path)
            if other != path:
                raise ValueError(f"{other} and {path} would both be written to {out_dir / name}")
    # every input is read and transliterated before any output is written
    fmt = FORMATS[args.format]
    results = {path: fmt.transliterate(_read(path, args.format), rs, not args.no_lemmas) for path in inputs}
    if len(inputs) == 1:
        _write_text(args.out, results[inputs[0]])
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in results.items():
        (out_dir / Path(path).name).write_text(text, encoding="utf-8")
    return 0


def _cmd_rules_validate(args) -> int:
    rs = _load_ruleset(args.rules, check=False)
    report = translit.validate_ruleset(rs)
    _write_text(args.out, f"{rs.name}\t{len(rs.rules)} rules\t{report.describe()}\n")
    if not report.ok:
        print("validation failed", file=sys.stderr)
        return 1
    return 0


def _cmd_corpus_stats(args) -> int:
    token_lists = FORMATS[args.format].token_lists(_read(args.inp, args.format, args.repair))
    _write_text(args.out, f"sentences\t{len(token_lists)}\ntokens\t{sum(map(len, token_lists))}\n")
    return 0


def _cmd_dedup(args) -> int:
    lines = _read(args.inp, "raw")
    kept = corpus.dedup_lines(lines)
    _write_text(args.out, "\n".join(kept) + ("\n" if kept else ""))
    print(f"kept {len(kept)} of {len(lines)} lines", file=sys.stderr)
    return 0


def _cmd_scriptdist(args) -> int:
    # streamed: memory does not grow with the vocabulary
    with _open_input(args.inp) as f:
        tokens = (line for _, line in corpus.read_lines(f) if line)
        dist = scripts.script_distribution(tokens, subword_prefix=args.subword_prefix)
    _write_text(args.out, dist.to_tsv())
    return 0


def _cmd_split(args) -> int:
    plan = splits.plan_splits(args.n, args.has_dev, k=args.k, seed=args.seed)
    cross_validation = plan.strategy is splits.Strategy.CROSS_VALIDATION
    # made before any output is written, since it can refuse the corpus
    assignment = splits.make_folds(args.n, plan.k, plan.seed) if cross_validation else None
    lines = [
        f"strategy\t{plan.strategy.value}",
        f"k\t{plan.k}",
        f"dev_source\t{plan.dev_source.value}",
        f"seed\t{plan.seed}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    if cross_validation:
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


def _cmd_eval(args) -> int:
    preds = args.pred
    seeds = args.seeds if args.seeds else list(range(len(preds)))
    if len(seeds) != len(preds):
        raise ValueError("--seeds must list one seed per --pred file")
    task = TASKS[args.task]
    gold = _read(args.gold, task.fmt, args.repair)
    # each prediction is dropped once it is scored, so one is held at a time
    scores = [task.score(gold, _read(path, task.fmt, args.repair), args.strict_deprel) for path in preds]
    rows = [(name, getattr(s, attr), seed) for seed, s in zip(seeds, scores) for name, attr in task.metrics]
    if len(preds) > 1:
        for name, attr in task.metrics:
            agg = metrics.aggregate_runs(getattr(s, attr) for s in scores)
            rows += [(name, agg.mean, "mean"), (name, agg.sd, "sd")]
    records = [
        {"task": args.task.upper(), "metric": name, "value": metrics.round_score(value), "seed": seed}
        for name, value, seed in rows
    ]
    if args.json:
        body = "".join(json.dumps(r) + "\n" for r in records)
    else:
        body = "".join(f"{r['task']}\t{r['metric']}\t{r['value']:.2f}\t{r['seed']}\n" for r in records)
    _write_text(args.out, body)
    return 0


def _cmd_categorize(args) -> int:
    if args.inp == "builtin":
        points = taxonomy.paper_score_points()
    else:
        with _open_input(args.inp) as f:
            points = taxonomy.load_score_points(f)
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
    body = corpus.lookup(args.iso).to_line() + "\n" if args.iso else corpus.registry_tsv()
    _write_text(args.out, body)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
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
    p.add_argument("--format", choices=tuple(FORMATS), default="raw")
    p.add_argument("--no-lemmas", action="store_true", help="leave CoNLL-U lemmas untouched")
    p.set_defaults(func=_cmd_translit)

    p = sub.add_parser("rules-validate", help="validate a transliteration ruleset")
    p.add_argument("--rules", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_rules_validate)

    p = sub.add_parser("corpus-stats", help="sentence and token counts of a corpus")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=tuple(FORMATS), default="raw")
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
    p.add_argument("task", choices=tuple(TASKS))
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
