"""CoNLL-U reading, writing and annotation-preserving transliteration.

Only structural well-formedness is checked (column count, contiguous ids,
head ranges); no treebank-guideline linting. Canonical output form: NFC,
``\\n`` line endings, one blank line between sentences, one trailing
newline — so ``write(parse(f))`` is byte-identical for files already in
canonical form.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

from .corpus import LineError, read_lines
from .translit import RuleSet, transliterate

__all__ = [
    "ConlluToken",
    "ConlluSentence",
    "ConlluError",
    "parse_conllu",
    "write_conllu",
    "transliterate_conllu",
]

N_COLUMNS = 10


class ConlluError(LineError):
    """Malformed CoNLL-U."""


class _SentenceError(ConlluError):
    """A :meth:`ConlluSentence.check` failure. ``where`` is ``("tokens", i)``
    or ``("mwt_ranges", i)`` for the offending item, or None when the fault
    is the sentence's as a whole."""

    def __init__(self, message: str, where: tuple[str, int] | None = None):
        super().__init__(message)
        self.where = where


class ConlluToken(NamedTuple):
    """One syntactic word line; ``id`` and ``head`` are ints.

    A :class:`typing.NamedTuple`: immutable, it compares equal to and hashes
    like the plain tuple of its ten fields, and it unpacks like one.
    """

    id: int
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: int
    deprel: str
    deps: str
    misc: str

    def to_line(self) -> str:
        return "%d\t%s\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s" % self


@dataclass(frozen=True)
class MwtRange:
    """A multiword-token line ``start-end`` covering syntactic words."""

    start: int
    end: int
    form: str
    misc: str

    def to_line(self) -> str:
        return "\t".join(
            (f"{self.start}-{self.end}", self.form, "_", "_", "_", "_", "_", "_", "_", self.misc)
        )


@dataclass
class ConlluSentence:
    comments: list[str] = field(default_factory=list)
    tokens: list[ConlluToken] = field(default_factory=list)
    mwt_ranges: list[MwtRange] = field(default_factory=list)
    # empty-node lines (id a.b), preserved verbatim keyed by the token id
    # they follow (0 = before the first token); excluded from evaluation
    empty_nodes: list[tuple[int, str]] = field(default_factory=list)

    def check(self, strict: bool = False) -> None:
        n = len(self.tokens)
        # tok[0] is the id and tok[6] the head: a tuple index is read faster than a field name
        for i, tok in enumerate(self.tokens):
            if tok[0] != i + 1:
                raise _SentenceError(f"non-contiguous token ids: expected {i + 1}, got {tok[0]}", ("tokens", i))
            if not 0 <= tok[6] <= n:
                raise _SentenceError(f"head {tok[6]} out of range for {n} tokens", ("tokens", i))
        for i, mwt in enumerate(self.mwt_ranges):
            if not (1 <= mwt.start <= mwt.end <= n):
                raise _SentenceError(f"mwt range {mwt.start}-{mwt.end} outside 1..{n}", ("mwt_ranges", i))
        spans = sorted((m.start, m.end, i) for i, m in enumerate(self.mwt_ranges))
        for (s1, e1, i1), (s2, e2, i2) in zip(spans, spans[1:]):
            if s2 <= e1:
                raise _SentenceError(
                    f"overlapping mwt ranges {s1}-{e1} and {s2}-{e2}", ("mwt_ranges", max(i1, i2))
                )
        if strict:
            roots = [t for t in self.tokens if t.head == 0]
            if n and len(roots) != 1:
                raise _SentenceError(f"expected exactly one root, found {len(roots)}")


def parse_conllu(stream: IO[str] | str, strict: bool = False) -> list[ConlluSentence]:
    """Parse a CoNLL-U stream (or string) into sentences, each line cut by
    :func:`~unseenlang.corpus.read_lines` and normalised to NFC. Comment
    lines are preserved verbatim; ``a-b`` range lines go to ``mwt_ranges``;
    ``a.b`` empty-node lines are kept as pass-through text. An error names
    the line of the offending token or range, or the sentence's first line.
    """
    normalize = unicodedata.normalize
    new = tuple.__new__
    sentences: list[ConlluSentence] = []
    current = ConlluSentence()
    tokens = current.tokens
    start_line = 1
    # the line of each token and of each range of the current sentence
    token_lines: list[int] = []
    mwt_lines: list[int] = []

    def flush():
        if current.comments or tokens or current.mwt_ranges or current.empty_nodes:
            try:
                current.check(strict=strict)
            except _SentenceError as exc:
                lines = {"tokens": token_lines, "mwt_ranges": mwt_lines}
                raise ConlluError(str(exc), lines[exc.where[0]][exc.where[1]] if exc.where else start_line)
            sentences.append(current)

    for lineno, line in read_lines(stream):
        line = normalize("NFC", line)
        if not line:
            flush()
            current = ConlluSentence()
            tokens = current.tokens
            start_line = lineno + 1
            token_lines = []
            mwt_lines = []
            continue
        if line[0] == "#":
            current.comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != N_COLUMNS:
            raise ConlluError(f"expected {N_COLUMNS} columns, got {len(cols)}", lineno)
        tok_id = cols[0]
        if "-" in tok_id:
            try:
                start, end = (int(x) for x in tok_id.split("-"))
            except ValueError:
                raise ConlluError(f"bad range id {tok_id!r}", lineno)
            mwt_lines.append(lineno)
            current.mwt_ranges.append(MwtRange(start, end, cols[1], cols[9]))
            continue
        if "." in tok_id:
            current.empty_nodes.append((len(tokens), line))
            continue
        try:
            cols[0] = idx = int(tok_id)
            cols[6] = int(cols[6])
        except ValueError:
            raise ConlluError(f"non-integer id or head in {line!r}", lineno)
        if idx != len(tokens) + 1:
            raise ConlluError(f"non-contiguous token ids: expected {len(tokens) + 1}, got {idx}", lineno)
        token_lines.append(lineno)
        tokens.append(new(ConlluToken, cols))  # the column count is checked above
    flush()
    return sentences


def write_conllu(sentences: Iterable[ConlluSentence]) -> str:
    """Serialize sentences in canonical form. Inverse of :func:`parse_conllu`."""
    blocks = []
    for sent in sentences:
        sent.check()
        lines = list(sent.comments)
        mwt_by_start = {m.start: m for m in sent.mwt_ranges}
        empties: dict[int, list[str]] = {}
        for after, raw in sent.empty_nodes:
            empties.setdefault(after, []).append(raw)
        lines.extend(empties.get(0, ()))
        for tok in sent.tokens:
            if tok.id in mwt_by_start:
                lines.append(mwt_by_start[tok.id].to_line())
            lines.append(tok.to_line())
            lines.extend(empties.get(tok.id, ()))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def transliterate_conllu(
    sentences: Iterable[ConlluSentence], rs: RuleSet, lemmas: bool = True
) -> list[ConlluSentence]:
    """Transliterate form (and, unless disabled, lemma) fields, including
    multiword-token surface forms. All other annotation is untouched."""
    new = tuple.__new__
    out = []
    for sent in sentences:
        # (id, form, lemma) + the other seven fields, made a token without a keyword call
        tokens = [
            new(ConlluToken, (tok[0], transliterate(tok[1], rs),
                              transliterate(tok[2], rs) if lemmas else tok[2]) + tok[3:])
            for tok in sent.tokens
        ]
        mwts = [
            MwtRange(m.start, m.end, transliterate(m.form, rs), m.misc)
            for m in sent.mwt_ranges
        ]
        out.append(
            ConlluSentence(
                comments=list(sent.comments),
                tokens=tokens,
                mwt_ranges=mwts,
                empty_nodes=list(sent.empty_nodes),
            )
        )
    return out
