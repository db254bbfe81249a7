"""Task metrics: UPOS accuracy, UAS/LAS, span-level NER P/R/F1, and
multi-seed aggregation.

Conventions (documented comparability caveats, not universal standards):
punctuation tokens count in UAS/LAS; dependency relations are compared on
the main relation, ignoring language-specific subtypes after ``:`` unless
``strict_deprel`` is set. Scores are percentages; reporting rounds to two
decimals, half-up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .conllu import ConlluSentence
from .ner import NerSentence, extract_spans

__all__ = [
    "AlignmentError",
    "PosScore",
    "DepScore",
    "NerScore",
    "RunAggregate",
    "eval_pos",
    "eval_dep",
    "eval_ner",
    "aggregate_runs",
    "round_score",
]


class AlignmentError(ValueError):
    pass


def round_score(value: float) -> float:
    """Two decimals, half-up (paper-table precision)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class PosScore:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return 100.0 * self.correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class DepScore:
    head_correct: int
    labeled_correct: int
    total: int

    @property
    def uas(self) -> float:
        return 100.0 * self.head_correct / self.total if self.total else 0.0

    @property
    def las(self) -> float:
        return 100.0 * self.labeled_correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class NerScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return 100.0 * self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return 100.0 * self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class RunAggregate:
    scores: tuple[float, ...]
    mean: float
    sd: float


def _check_alignment(gold: Sequence, pred: Sequence) -> None:
    if len(gold) != len(pred):
        raise AlignmentError(f"gold has {len(gold)} sentences, predictions have {len(pred)}")
    for i, (g, p) in enumerate(zip(gold, pred), 1):
        if len(g.tokens) != len(p.tokens):
            raise AlignmentError(f"sentence {i}: gold has {len(g.tokens)} tokens, prediction has {len(p.tokens)}")


def eval_pos(gold: Sequence[ConlluSentence], pred: Sequence[ConlluSentence]) -> PosScore:
    """UPOS accuracy over syntactic words (multiword-token range lines and
    empty nodes do not count)."""
    _check_alignment(gold, pred)
    correct = total = 0
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.tokens, p.tokens):
            total += 1
            correct += gt.upos == pt.upos
    return PosScore(correct, total)


def _main_relation(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def eval_dep(
    gold: Sequence[ConlluSentence],
    pred: Sequence[ConlluSentence],
    strict_deprel: bool = False,
) -> DepScore:
    """UAS = share of tokens with the correct head; LAS additionally
    requires the correct dependency relation."""
    _check_alignment(gold, pred)
    head_ok = labeled_ok = total = 0
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.tokens, p.tokens):
            total += 1
            if gt.head != pt.head:
                continue
            head_ok += 1
            if strict_deprel:
                labeled_ok += gt.deprel == pt.deprel
            else:
                labeled_ok += _main_relation(gt.deprel) == _main_relation(pt.deprel)
    return DepScore(head_ok, labeled_ok, total)


def eval_ner(gold: Sequence[NerSentence], pred: Sequence[NerSentence]) -> NerScore:
    """Span-level NER scoring: a predicted span is a true positive iff its
    boundaries and type both match a gold span exactly."""
    _check_alignment(gold, pred)
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gold_spans = set(extract_spans(g.labels))
        pred_spans = set(extract_spans(p.labels))
        tp += len(gold_spans & pred_spans)
        fp += len(pred_spans - gold_spans)
        fn += len(gold_spans - pred_spans)
    return NerScore(tp, fp, fn)


def aggregate_runs(scores: Iterable[float]) -> RunAggregate:
    """Arithmetic mean and population standard deviation over per-seed
    scores (five seeds in the reference protocol).

    The mean is clamped into ``[min(scores), max(scores)]``: float rounding
    can put it one ulp outside, e.g. ``fmean([21.91112683982869] * 3)``.
    """
    scores = tuple(scores)
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    return RunAggregate(
        scores=scores,
        mean=min(max(statistics.fmean(scores), min(scores)), max(scores)),
        sd=statistics.pstdev(scores),
    )
