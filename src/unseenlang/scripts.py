"""Unicode-level primitives: grapheme segmentation, script classification
and script-distribution statistics over token vocabularies.

All text is normalized to NFC before any processing so that composed and
decomposed encodings of the same string behave identically.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import regex

__all__ = [
    "ScriptClass",
    "ScriptDistribution",
    "segment_graphemes",
    "classify_script",
    "script_distribution",
]


class ScriptClass(Enum):
    """Script label of a grapheme or a token.

    COMMON covers digits, punctuation, whitespace and combining marks
    shared across scripts; anything outside the four named scripts is
    OTHER. Classification is total.
    """

    LATIN = "Latin"
    CYRILLIC = "Cyrillic"
    ARABIC = "Arabic"
    GEORGIAN = "Georgian"
    COMMON = "Common"
    OTHER = "Other"

    def __str__(self) -> str:
        return self.value


# Fixed tie-break order for token-level majority voting (lowest wins).
TIE_ORDER = {
    ScriptClass.LATIN: 0,
    ScriptClass.CYRILLIC: 1,
    ScriptClass.ARABIC: 2,
    ScriptClass.GEORGIAN: 3,
    ScriptClass.OTHER: 4,
    ScriptClass.COMMON: 5,
}

_GRAPHEME_RE = regex.compile(r"\X")

_SCRIPT_PROPS = [
    (ScriptClass.LATIN, regex.compile(r"\p{Script=Latin}")),
    (ScriptClass.CYRILLIC, regex.compile(r"\p{Script=Cyrillic}")),
    (ScriptClass.ARABIC, regex.compile(r"\p{Script=Arabic}")),
    (ScriptClass.GEORGIAN, regex.compile(r"\p{Script=Georgian}")),
]
_NEUTRAL = regex.compile(r"[\p{Script=Common}\p{Script=Inherited}]")


def segment_graphemes(text: str) -> list[str]:
    """Split ``text`` into extended grapheme clusters after NFC normalization.

    The concatenation of the result equals the NFC form of the input.
    """
    return _GRAPHEME_RE.findall(unicodedata.normalize("NFC", text))


def classify_script(grapheme: str) -> ScriptClass:
    """Classify a single grapheme. Total: unknown ranges map to OTHER.

    A cluster mixing a base letter with combining marks takes the class of
    its base; clusters made only of Common/Inherited characters are COMMON.
    """
    for ch in unicodedata.normalize("NFC", grapheme):
        if _NEUTRAL.match(ch):
            continue
        for cls, prop in _SCRIPT_PROPS:
            if prop.match(ch):
                return cls
        return ScriptClass.OTHER
    return ScriptClass.COMMON


@dataclass
class ScriptDistribution:
    """Per-class token counts over a vocabulary."""

    counts: dict[ScriptClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in ScriptClass}
    )
    total: int = 0

    def share(self, cls: ScriptClass) -> float:
        return self.counts[cls] / self.total if self.total else 0.0

    def check(self) -> None:
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative script count")
        if sum(self.counts.values()) != self.total:
            raise ValueError("script counts do not sum to total")

    def to_tsv(self) -> str:
        """Render as ``class<TAB>count<TAB>share`` rows plus a total row."""
        lines = []
        for cls in ScriptClass:
            lines.append(f"{cls.value}\t{self.counts[cls]}\t{self.share(cls):.6f}")
        lines.append(f"total\t{self.total}\t1.000000")
        return "\n".join(lines) + "\n"


def script_distribution(
    tokens: Iterable[str], subword_prefix: str | None = None
) -> ScriptDistribution:
    """Count the majority script class of each token.

    Each token contributes 1 to exactly one class: the majority class of
    its non-Common graphemes, ties broken by the fixed order
    Latin < Cyrillic < Arabic < Georgian < Other. Tokens with only Common
    graphemes (or empty after prefix stripping) count as Common.
    ``subword_prefix`` (e.g. a tokenizer continuation marker) is stripped
    before classification.
    """
    dist = ScriptDistribution()
    for token in tokens:
        if subword_prefix and token.startswith(subword_prefix):
            token = token[len(subword_prefix):]
        dist.counts[_token_class(token)] += 1
        dist.total += 1
    return dist


# Vote slots follow TIE_ORDER, so the first maximum of a vote list is the
# tie-break winner; the Common slot comes last and is left out of the vote.
_BY_TIE = sorted(TIE_ORDER, key=TIE_ORDER.__getitem__)
_COMMON = TIE_ORDER[ScriptClass.COMMON]
_ASCII_LETTER = regex.compile(r"[A-Za-z]")

# grapheme -> TIE_ORDER index of classify_script(grapheme). Graphemes repeat
# across a vocabulary, so this is filled on first sight and then read; the
# cap keeps input full of distinct mark clusters from growing it without
# limit (past it, graphemes are classified on every sight).
_CLASS_MEMO: dict[str, int] = {}
_CLASS_MEMO_MAX = 8192


def _token_class(token: str) -> ScriptClass:
    """Majority class of ``token``'s non-Common graphemes (see
    :func:`script_distribution`).

    The token is normalised to NFC once and segmented directly. Each
    grapheme's class is read from ``_CLASS_MEMO``, which holds at most
    ``_CLASS_MEMO_MAX`` graphemes and takes its values only from
    :func:`classify_script`. An ASCII token skips both: in ASCII only the
    letters are Latin and everything else is Common.
    """
    if token.isascii():
        return ScriptClass.LATIN if _ASCII_LETTER.search(token) else ScriptClass.COMMON
    votes = [0] * len(_BY_TIE)
    memo = _CLASS_MEMO
    for g in _GRAPHEME_RE.findall(unicodedata.normalize("NFC", token)):
        idx = memo.get(g)
        if idx is None:
            idx = TIE_ORDER[classify_script(g)]
            if len(memo) < _CLASS_MEMO_MAX:
                memo[g] = idx
        votes[idx] += 1
    best = max(votes[:_COMMON])
    return _BY_TIE[votes.index(best)] if best else ScriptClass.COMMON
