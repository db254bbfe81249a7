"""Computations made apart from the program, used to check its outputs.

Nothing here imports ``unseenlang``: the rule files are read as plain text
and every expected value is derived from them or from the generator.
"""

from __future__ import annotations

import re
import unicodedata
from pathlib import Path

DELETE_MARK = "∅"

# Script of each letter the generator can emit, by Unicode block. The
# generator only draws letters from these blocks, ASCII digits and
# punctuation, so a block test is a complete classifier for its output.
_BLOCKS = (
    ("Latin", 0x0041, 0x024F),
    ("Cyrillic", 0x0400, 0x052F),
    ("Arabic", 0x0600, 0x06FF),
    ("Georgian", 0x10A0, 0x10FF),
)
TIE_ORDER = ("Latin", "Cyrillic", "Arabic", "Georgian", "Other")


class ReferenceTransliterator:
    """Longest-match rewrite over code points, built from one rule file.

    It refuses any rule with a context, which no built-in rule has: the
    reference then stays a table lookup. Left-hand sides longer than one
    code point are found first, leftmost and longest first, and stood in
    for by private-use characters; one ``str.translate`` then rewrites
    every code point. Scanning left to right, both steps advance over the
    same matches, so this equals a longest-match scan.
    """

    def __init__(self, rule_text: str):
        self.rules: dict[str, str] = {}
        for raw in rule_text.split("\n"):
            if not raw or raw.startswith(("#", "@")):
                continue
            fields = raw.split("\t")
            if len(fields) == 4 and not all(f in ("", DELETE_MARK) for f in fields[2:]):
                raise ValueError(f"reference refuses a context rule: {raw!r}")
            if len(fields) not in (2, 4):
                raise ValueError(f"malformed rule line: {raw!r}")
            lhs = unicodedata.normalize("NFC", fields[0])
            rhs = "" if fields[1] == DELETE_MARK else unicodedata.normalize("NFC", fields[1])
            self.rules.setdefault(lhs, rhs)
        multi = sorted((lhs for lhs in self.rules if len(lhs) > 1), key=len, reverse=True)
        self._stand_in = {lhs: chr(0xE000 + i) for i, lhs in enumerate(multi)}
        self._multi = re.compile("|".join(map(re.escape, multi))) if multi else None
        self._table = str.maketrans(
            {lhs: rhs for lhs, rhs in self.rules.items() if len(lhs) == 1}
            | {c: self.rules[lhs] for lhs, c in self._stand_in.items()}
        )

    @classmethod
    def from_file(cls, path: Path) -> "ReferenceTransliterator":
        return cls(path.read_text(encoding="utf-8"))

    def letters(self) -> list[str]:
        """Single-letter left-hand sides, in file order."""
        return [
            lhs for lhs in self.rules
            if len(lhs) == 1 and unicodedata.category(lhs) in ("Ll", "Lu", "Lo")
        ]

    def __call__(self, text: str) -> str:
        text = unicodedata.normalize("NFC", text)
        if self._multi is not None:
            text = self._multi.sub(lambda m: self._stand_in[m.group()], text)
        return text.translate(self._table)


def char_script(ch: str) -> str:
    """Script of one code point the generator emits; marks are Common."""
    if unicodedata.category(ch)[0] != "L":
        return "Common"
    cp = ord(ch)
    for name, lo, hi in _BLOCKS:
        if lo <= cp <= hi:
            return name
    return "Other"


def token_script(token: str) -> str:
    """Majority script of a token's letters, ties broken by ``TIE_ORDER``."""
    votes: dict[str, int] = {}
    for ch in token:
        cls = char_script(ch)
        if cls != "Common":
            votes[cls] = votes.get(cls, 0) + 1
    if not votes:
        return "Common"
    return min(votes, key=lambda cls: (-votes[cls], TIE_ORDER.index(cls)))


def has_script(text: str, script: str) -> bool:
    return any(char_script(ch) == script for ch in text)
