"""Easy / Intermediate / Hard categorization of (language, task) pairs.

Each pair carries three scores: a strong non-contextual baseline, the
multilingual model fine-tuned on the task only, and the same model after
unsupervised tuning on raw target-language text. The pair is plotted at

    x = (mbert - baseline) / baseline
    y = (mbert_mlm - baseline) / baseline

and classified against a threshold (0 by default): the model "works" when
it matches or beats the baseline. A negative y is the defining Hard
symptom and takes precedence, even when x is positive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import IO, Iterable

from .corpus import LineError, read_lines

__all__ = [
    "Category",
    "ScoreFileError",
    "ScorePoint",
    "CategoryPoint",
    "relative_delta",
    "categorize",
    "categorize_point",
    "categorize_language",
    "load_score_points",
    "paper_score_points",
    "points_tsv",
]

TASKS = ("POS", "DEP", "NER")


class Category(Enum):
    EASY = "Easy"
    INTERMEDIATE = "Intermediate"
    HARD = "Hard"

    def __str__(self) -> str:
        return self.value


_HARDNESS = {Category.EASY: 0, Category.INTERMEDIATE: 1, Category.HARD: 2}


class ScoreFileError(LineError):
    """Malformed row in a score file."""


@dataclass(frozen=True)
class ScorePoint:
    language: str
    task: str
    baseline: float
    mbert: float
    mbert_mlm: float

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if min(self.baseline, self.mbert, self.mbert_mlm) <= 0:
            raise ValueError("scores must be positive (relative deltas need a positive baseline)")


@dataclass(frozen=True)
class CategoryPoint:
    language: str
    task: str
    x: float
    y: float
    category: Category


def relative_delta(score: float, baseline: float) -> float:
    """Relative improvement of ``score`` over ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (score - baseline) / baseline


def categorize(x: float, y: float, tau: float = 0.0) -> Category:
    """Hard if y < tau, else Easy if x >= tau, else Intermediate."""
    if y < tau:
        return Category.HARD
    if x >= tau:
        return Category.EASY
    return Category.INTERMEDIATE


def categorize_point(point: ScorePoint, tau: float = 0.0) -> CategoryPoint:
    x = relative_delta(point.mbert, point.baseline)
    y = relative_delta(point.mbert_mlm, point.baseline)
    return CategoryPoint(point.language, point.task, x, y, categorize(x, y, tau))


def categorize_language(points: Iterable[CategoryPoint | Category]) -> Category:
    """One overall label per language: majority category across tasks,
    ties resolved toward the harder category."""
    cats = [p if isinstance(p, Category) else p.category for p in points]
    if not cats:
        raise ValueError("cannot categorize a language without task points")
    counts = {c: cats.count(c) for c in set(cats)}
    return max(counts, key=lambda c: (counts[c], _HARDNESS[c]))


def load_score_points(stream: IO[str] | str) -> list[ScorePoint]:
    """Read ``language<TAB>task<TAB>baseline<TAB>mbert<TAB>mbert_mlm`` rows
    from a stream or a string, skipping a header row and ``#`` comments.
    Raises :class:`ScoreFileError` naming the line of a bad row."""
    points = []
    rows = csv.reader((line for _, line in read_lines(stream)), delimiter="\t")
    for row in rows:
        if not row or row[0].startswith("#") or row[0] == "language":
            continue
        if len(row) != 5:
            raise ScoreFileError(f"expected 5 columns, got {len(row)}: {row!r}", rows.line_num)
        try:
            points.append(ScorePoint(row[0], row[1], *map(float, row[2:])))
        except ValueError as exc:
            raise ScoreFileError(str(exc), rows.line_num) from None
    return points


def paper_score_points() -> list[ScorePoint]:
    """The shipped score file covering all few-shot (language, task)
    triples with a non-contextual baseline."""
    text = (resources.files(__package__) / "data" / "score_points.tsv").read_text("utf-8")
    return load_score_points(text)


def points_tsv(points: Iterable[CategoryPoint]) -> str:
    """Scatter-ready TSV: language, task, x, y, category."""
    lines = ["language\ttask\tx\ty\tcategory"]
    for p in points:
        lines.append(f"{p.language}\t{p.task}\t{p.x:.5f}\t{p.y:.5f}\t{p.category.value}")
    return "\n".join(lines) + "\n"
