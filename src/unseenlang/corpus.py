"""Raw-text utilities and the registry of the 15 studied languages.

Every reader of the package cuts its input into lines with
:func:`read_lines`. Deduplication reproduces OSCAR-style line-level dedup
for the sources that ship without it (Wiki dumps and other collections).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import IO, Iterable, Iterator

from .scripts import ScriptClass

__all__ = ["LineError", "read_lines", "dedup_lines", "LanguageRecord", "language_table", "lookup"]


class LineError(ValueError):
    """Malformed input; ``lineno`` is the 1-based offending line, or None."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


def read_lines(source: IO[str] | str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a text or a text stream,
    counting from 1.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else: U+0085,
    U+2028 and the other breaks of :meth:`str.splitlines` stay inside it.
    The terminator is dropped, a final one opens no empty line, a leading
    BOM is dropped, and nothing is normalised. A stream is read in blocks of
    64k characters, so memory does not grow with its number of lines, and
    the rule holds whatever newline mode it was opened with.
    """

    def blocks_of_lines() -> Iterator[list[str]]:
        blocks = (source,) if isinstance(source, str) else iter(partial(source.read, 1 << 16), "")
        rest, cr = "", False
        for i, block in enumerate(blocks):
            if i == 0:
                block = block.removeprefix("\ufeff")
            elif cr and block[0] == "\n":  # the rest of a "\r\n" cut between two blocks
                block = block[1:]
            cr = block.endswith("\r")
            lines = (rest + block).replace("\r\n", "\n").replace("\r", "\n").split("\n")
            rest = lines.pop()  # the line the next block continues
            yield lines
        if rest:
            yield [rest]

    return enumerate(chain.from_iterable(blocks_of_lines()), 1)


def dedup_lines(lines: Iterable[str]) -> list[str]:
    """Drop duplicate lines, keeping the first occurrence in order.

    Equality is computed on the NFC-normalized, whitespace-trimmed line;
    empty (or whitespace-only) lines are dropped.
    """
    seen: set[str] = set()
    out: list[str] = []
    for line in lines:
        key = unicodedata.normalize("NFC", line).strip()
        if not key or key in seen:
            continue
        seen.add(key)
        out.append(line)
    return out


@dataclass(frozen=True)
class LanguageRecord:
    iso: str
    name: str
    script: ScriptClass
    family: str
    sents: int  # raw sentences available for unsupervised tuning
    source: str  # OSCAR | Wiki | Leipzig | Other

    def to_line(self) -> str:
        return f"{self.iso}\t{self.name}\t{self.script.value}\t{self.family}\t{self.sents}\t{self.source}"


_L = ScriptClass.LATIN
_C = ScriptClass.CYRILLIC
_A = ScriptClass.ARABIC
_G = ScriptClass.GEORGIAN

_REGISTRY = {
    r.iso: r
    for r in (
        LanguageRecord("bm", "Bambara", _L, "Niger-Congo", 1_000, "OSCAR"),
        LanguageRecord("wo", "Wolof", _L, "Niger-Congo", 10_000, "OSCAR"),
        LanguageRecord("gsw", "Swiss German", _L, "West Germanic", 250_000, "OSCAR"),
        LanguageRecord("pcm", "Naija", _L, "Pidgin (En)", 237_000, "Other"),
        LanguageRecord("fao", "Faroese", _L, "North Germanic", 297_000, "Leipzig"),
        LanguageRecord("mlt", "Maltese", _L, "Semitic", 50_000, "OSCAR"),
        LanguageRecord("nrz", "Narabizi", _L, "Semitic", 87_000, "Other"),
        LanguageRecord("ckb", "Sorani", _A, "Indo-Iranian", 380_000, "OSCAR"),
        LanguageRecord("ug", "Uyghur", _A, "Turkic", 105_000, "OSCAR"),
        LanguageRecord("sd", "Sindhi", _A, "Indo-Aryan", 375_000, "OSCAR"),
        LanguageRecord("xmf", "Mingrelian", _G, "Kartvelian", 29_000, "Wiki"),
        LanguageRecord("bxu", "Buryat", _C, "Mongolic", 7_000, "Wiki"),
        LanguageRecord("mhr", "Mari", _C, "Uralic", 58_000, "Wiki"),
        LanguageRecord("myv", "Erzya", _C, "Uralic", 20_000, "Wiki"),
        LanguageRecord("olo", "Livvi", _L, "Uralic", 9_400, "Wiki"),
    )
}


def language_table() -> list[LanguageRecord]:
    return list(_REGISTRY.values())


def lookup(iso: str) -> LanguageRecord:
    try:
        return _REGISTRY[iso]
    except KeyError:
        raise LookupError(f"unknown language code {iso!r}") from None


def registry_tsv() -> str:
    lines = ["iso\tname\tscript\tfamily\tsents\tsource"] + [r.to_line() for r in language_table()]
    return "\n".join(lines) + "\n"
