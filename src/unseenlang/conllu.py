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
from typing import IO, Iterable

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


@dataclass(frozen=True)
class ConlluToken:
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
        return "\t".join(
            (
                str(self.id), self.form, self.lemma, self.upos, self.xpos,
                self.feats, str(self.head), self.deprel, self.deps, self.misc,
            )
        )


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
        for i, tok in enumerate(self.tokens, start=1):
            if tok.id != i:
                raise ConlluError(f"non-contiguous token ids: expected {i}, got {tok.id}")
            if not 0 <= tok.head <= n:
                raise ConlluError(f"head {tok.head} out of range for {n} tokens")
        for mwt in self.mwt_ranges:
            if not (1 <= mwt.start <= mwt.end <= n):
                raise ConlluError(f"mwt range {mwt.start}-{mwt.end} outside 1..{n}")
        spans = sorted((m.start, m.end) for m in self.mwt_ranges)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 <= e1:
                raise ConlluError(f"overlapping mwt ranges {s1}-{e1} and {s2}-{e2}")
        if strict:
            roots = [t for t in self.tokens if t.head == 0]
            if n and len(roots) != 1:
                raise ConlluError(f"expected exactly one root, found {len(roots)}")


def parse_conllu(stream: IO[str] | str, strict: bool = False) -> list[ConlluSentence]:
    """Parse a CoNLL-U stream (or string) into sentences, each line cut by
    :func:`~unseenlang.corpus.read_lines` and normalised to NFC. Comment
    lines are preserved verbatim; ``a-b`` range lines go to ``mwt_ranges``;
    ``a.b`` empty-node lines are kept as pass-through text.
    """
    sentences: list[ConlluSentence] = []
    current = ConlluSentence()
    start_line = 1
    token_lines: list[int] = []  # the line of each token of the current sentence

    def flush():
        if current.comments or current.tokens or current.mwt_ranges or current.empty_nodes:
            try:
                current.check(strict=strict)
            except ConlluError as exc:
                # ids were checked as read: an error naming a token is a head out of range
                n = len(current.tokens)
                bad = (ln for tok, ln in zip(current.tokens, token_lines) if not 0 <= tok.head <= n)
                raise ConlluError(str(exc), next(bad, start_line))
            sentences.append(current)

    for lineno, line in read_lines(stream):
        line = unicodedata.normalize("NFC", line)
        if line == "":
            flush()
            current = ConlluSentence()
            start_line = lineno + 1
            token_lines = []
            continue
        if line.startswith("#"):
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
            current.mwt_ranges.append(MwtRange(start, end, cols[1], cols[9]))
            continue
        if "." in tok_id:
            current.empty_nodes.append((len(current.tokens), line))
            continue
        try:
            idx = int(tok_id)
            head = int(cols[6])
        except ValueError:
            raise ConlluError(f"non-integer id or head in {line!r}", lineno)
        if idx != len(current.tokens) + 1:
            raise ConlluError(f"non-contiguous token ids: expected {len(current.tokens) + 1}, got {idx}", lineno)
        token_lines.append(lineno)
        current.tokens.append(
            ConlluToken(idx, cols[1], cols[2], cols[3], cols[4], cols[5], head, cols[7], cols[8], cols[9])
        )
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
    out = []
    for sent in sentences:
        tokens = [
            ConlluToken(
                tok.id,
                transliterate(tok.form, rs),
                transliterate(tok.lemma, rs) if lemmas else tok.lemma,
                tok.upos, tok.xpos, tok.feats, tok.head, tok.deprel, tok.deps, tok.misc,
            )
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
