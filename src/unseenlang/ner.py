"""IOB2 NER corpora: parsing, validation/repair, writing, span extraction
and label-preserving transliteration.

File format: ``token<TAB>label`` per line, blank line between sentences;
lines are cut by :func:`~unseenlang.corpus.read_lines`. WikiAnn-style
``lang:token`` prefixes can be stripped at parse time.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from .corpus import LineError, read_lines
from .translit import RuleSet, transliterate_tokens

__all__ = [
    "NerSentence",
    "NerError",
    "Span",
    "parse_ner",
    "write_ner",
    "extract_spans",
    "transliterate_ner",
]


class NerError(LineError):
    """Malformed IOB2 input."""


class Span(NamedTuple):
    """Entity span: token indices [start, end] inclusive, plus type.

    A :class:`typing.NamedTuple`: immutable, it compares equal to and hashes
    like the plain tuple ``(start, end, type)``, and it unpacks like one.
    """

    start: int
    end: int
    type: str


@dataclass(frozen=True)
class NerSentence:
    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise NerError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )


def parse_ner(
    stream: IO[str] | str,
    repair: bool = False,
    strip_prefix: bool = False,
) -> list[NerSentence]:
    """Parse a NER TSV stream (or string), each line normalised to NFC.

    Strict IOB2 (the default): a label is ``O``, ``B-X`` or ``I-X``, and
    I-X may only follow B-X or I-X of the same type; a violation names its
    line and sentence. ``repair=True`` rewrites a dangling I-X to B-X.
    ``strip_prefix`` removes a WikiAnn ``lang:`` token prefix."""
    sentences: list[NerSentence] = []
    tokens: list[str] = []
    labels: list[str] = []

    def flush():
        if tokens:
            sentences.append(NerSentence(tuple(tokens), tuple(labels)))
            tokens.clear()
            labels.clear()

    for lineno, line in read_lines(stream):
        line = unicodedata.normalize("NFC", line)
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise NerError(f"expected token<TAB>label, got {line!r}", lineno)
        token, label = parts
        prev = labels[-1] if labels else "O"
        if label != "O" and (label[:2] not in ("B-", "I-") or len(label) == 2):
            raise NerError(f"bad IOB2 label {label!r} (sentence {len(sentences) + 1})", lineno)
        if label[:2] == "I-" and prev[2:] != label[2:]:
            if not repair:
                raise NerError(
                    f"dangling {label} after {prev} (sentence {len(sentences) + 1})", lineno
                )
            label = "B-" + label[2:]
        if strip_prefix and ":" in token:
            token = token.split(":", 1)[1]
        tokens.append(token)
        labels.append(label)
    flush()
    return sentences


def write_ner(sentences: Iterable[NerSentence]) -> str:
    blocks = [
        "\n".join(f"{tok}\t{lab}" for tok, lab in zip(s.tokens, s.labels))
        for s in sentences
    ]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def extract_spans(labels: Iterable[str]) -> list[Span]:
    """Extract entity spans from a valid IOB2 label sequence."""
    labels = list(labels)
    spans = []
    start = None
    etype = None
    for i, label in enumerate(labels):
        if start is not None and not (label.startswith("I-") and label[2:] == etype):
            spans.append(Span(start, i - 1, etype))
            start, etype = None, None
        if label.startswith("B-"):
            start, etype = i, label[2:]
    if start is not None:
        spans.append(Span(start, len(labels) - 1, etype))
    return spans


def transliterate_ner(sentences: Iterable[NerSentence], rs: RuleSet) -> list[NerSentence]:
    """Transliterate tokens; labels are carried over unchanged."""
    return [
        NerSentence(tuple(transliterate_tokens(s.tokens, rs)), s.labels)
        for s in sentences
    ]
