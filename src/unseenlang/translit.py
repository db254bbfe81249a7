"""Deterministic, context-aware, longest-match grapheme rewrite engine.

A ruleset maps graphemes of a source script onto the orthographic
conventions of a related Latin-script language. The mapping is one-way by
design: it maximizes surface similarity with the target language and is
neither reversible nor a phonetization.

Rule file format (UTF-8, NFC, line-oriented):

    # comment
    @name cyrillic_latin
    @source Cyrillic
    @target Latin
    LHS<TAB>RHS[<TAB>LEFTCTX<TAB>RIGHTCTX]

A literal ``∅`` in the RHS field deletes the LHS; in a context field it
means "no constraint" (needed for an absent right context, since trailing
whitespace is forbidden).

An unconditional deletion of one format character (ZWNJ, ZWJ) is applied
as a character strip before matching. Rules and contexts are matched
against the NFC input after that strip, never against emitted output.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

from .scripts import _GRAPHEME_RE, ScriptClass, segment_graphemes

__all__ = [
    "Rule",
    "RuleSet",
    "RuleFileError",
    "ValidationReport",
    "parse_ruleset",
    "validate_ruleset",
    "transliterate",
    "transliterate_tokens",
    "load_builtin",
    "builtin_names",
]

DELETE_MARK = "∅"

BUILTIN_NAMES = ("uyghur_latin", "sorani_latin", "cyrillic_latin", "georgian_latin")


class RuleFileError(ValueError):
    """Malformed rule file. Carries the 1-based offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Rule:
    """One rewrite decision: LHS graphemes become RHS, optionally only
    between the given left/right contexts (matched on the input, not on
    emitted output)."""

    lhs: str
    rhs: str
    left_context: str | None = None
    right_context: str | None = None

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be non-empty")
        if self.left_context == "" or self.right_context == "":
            raise ValueError("rule contexts, when present, must be non-empty")

    @property
    def key(self) -> tuple[str, str | None, str | None]:
        return (self.lhs, self.left_context, self.right_context)


@dataclass
class ValidationReport:
    duplicate_keys: list[tuple[str, str | None, str | None]] = field(default_factory=list)
    idempotence_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.duplicate_keys and not self.idempotence_violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        for key in self.duplicate_keys:
            parts.append(f"duplicate rule key: {key!r}")
        for g in self.idempotence_violations:
            parts.append(f"idempotence violation: rhs grapheme {g!r} occurs in an lhs")
        return "\n".join(parts)


@dataclass(frozen=True)
class RuleSet:
    """Ordered collection of rewrite rules defining one transliteration
    scheme, as parsed.

    The engine's tables are built in one compile step, once per ruleset
    object: it runs :func:`validate_ruleset` and raises
    :class:`RuleFileError` when the report is not clean. :meth:`check`
    runs that step at once; :func:`transliterate` runs it on first use.
    """

    name: str
    source_scripts: frozenset[ScriptClass]
    target_script: ScriptClass
    rules: tuple[Rule, ...]
    target_language_note: str = ""

    def check(self) -> None:
        """Validate and compile now; raises :class:`RuleFileError`."""
        self._compiled

    @cached_property
    def _compiled(self) -> tuple[dict, dict[str, list[tuple[Rule, list[str], int, int]]]]:
        report = validate_ruleset(self)
        if not report.ok:
            raise RuleFileError(f"ruleset {self.name} failed validation:\n{report.describe()}")
        # Format characters (ZWNJ/ZWJ) attach to the preceding grapheme
        # cluster, so an unconditional deletion rule for one of them could
        # never match cluster-wise; such rules are applied as a pre-pass
        # character strip instead.
        strip = {
            rule.lhs
            for rule in self.rules
            if rule.rhs == ""
            and rule.left_context is None
            and rule.right_context is None
            and len(rule.lhs) == 1
            and unicodedata.category(rule.lhs) == "Cf"
        }
        # (first grapheme) -> candidates (rule, lhs graphemes, their count,
        # their length in chars), longest lhs first, then file order.
        index: dict[str, list[tuple[Rule, list[str], int, int]]] = {}
        for rule in self.rules:
            gs = segment_graphemes(rule.lhs)
            index.setdefault(gs[0], []).append((rule, gs, len(gs), sum(map(len, gs))))
        for cands in index.values():
            cands.sort(key=lambda cand: -cand[2])
        return str.maketrans({ch: None for ch in strip}), index


def parse_ruleset(text: str) -> RuleSet:
    """Parse a rule file. Rules keep file order; header directives populate
    name and scripts. Raises :class:`RuleFileError` on malformed input."""
    name = None
    sources: list[ScriptClass] = []
    target = None
    note = ""
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw != raw.rstrip():
            raise RuleFileError("trailing whitespace", lineno)
        if not raw or raw.startswith("#"):
            continue
        if raw.startswith("@"):
            try:
                directive, value = raw.split(" ", 1)
            except ValueError:
                raise RuleFileError(f"directive without value: {raw!r}", lineno)
            value = value.strip()
            if directive == "@name":
                name = value
            elif directive == "@source":
                sources = [_script(v, lineno) for v in value.split(",")]
            elif directive == "@target":
                target = _script(value, lineno)
            elif directive == "@note":
                note = value
            else:
                raise RuleFileError(f"unknown directive {directive!r}", lineno)
            continue
        fields = raw.split("\t")
        if len(fields) not in (2, 4):
            raise RuleFileError(
                f"expected 2 or 4 tab-separated fields, got {len(fields)}", lineno
            )
        lhs = unicodedata.normalize("NFC", fields[0])
        rhs = "" if fields[1] == DELETE_MARK else unicodedata.normalize("NFC", fields[1])
        left = right = None
        if len(fields) == 4:
            left = _context(fields[2])
            right = _context(fields[3])
        try:
            rules.append(Rule(lhs, rhs, left, right))
        except ValueError as exc:
            raise RuleFileError(str(exc), lineno)
    if name is None or target is None or not sources:
        raise RuleFileError("missing @name, @source or @target header")
    return RuleSet(
        name=name,
        source_scripts=frozenset(sources),
        target_script=target,
        rules=tuple(rules),
        target_language_note=note,
    )


def _context(field_text: str) -> str | None:
    if field_text in ("", DELETE_MARK):
        return None
    return unicodedata.normalize("NFC", field_text)


def _script(value: str, lineno: int) -> ScriptClass:
    try:
        return ScriptClass(value.strip())
    except ValueError:
        raise RuleFileError(f"unknown script {value.strip()!r}", lineno)


def validate_ruleset(rs: RuleSet) -> ValidationReport:
    """Check structural soundness; a pure function of the rules.

    The engine uses a ruleset only after a clean report: the compile step
    of :class:`RuleSet` calls this once per ruleset and raises
    :class:`RuleFileError` otherwise.

    Idempotence condition: no grapheme occurring in any rhs occurs in any
    lhs, so applying the ruleset twice equals applying it once.
    """
    report = ValidationReport()
    seen = set()
    for rule in rs.rules:
        if rule.key in seen:
            report.duplicate_keys.append(rule.key)
        seen.add(rule.key)
    lhs_graphemes = set()
    for rule in rs.rules:
        lhs_graphemes.update(segment_graphemes(rule.lhs))
    flagged = set()
    for rule in rs.rules:
        for g in segment_graphemes(rule.rhs):
            if g in lhs_graphemes and g not in flagged:
                report.idempotence_violations.append(g)
                flagged.add(g)
    return report


def transliterate(text: str, rs: RuleSet) -> str:
    """Rewrite ``text`` with ``rs``, compiling it on first use.

    Single left-to-right pass over the NFC-normalized input. At each
    grapheme position the applicable rule with the longest lhs wins (file
    order breaks ties); contexts are matched against the input, never
    against already-emitted output. Unmatched graphemes pass through.

    The ruleset's format-character strip runs first. The text is
    normalized once; it is normalized again only when the strip removed
    something, since that can join characters that NFC composes. Graphemes
    and contexts are both taken from that NFC text after the strip.
    Raises :class:`RuleFileError` (a ``ValueError``) if ``rs`` fails
    validation.
    """
    strip_table, index = rs._compiled
    text = unicodedata.normalize("NFC", text)
    stripped = text.translate(strip_table)
    if len(stripped) != len(text):
        text = unicodedata.normalize("NFC", stripped)
    graphemes = _GRAPHEME_RE.findall(text)
    out: list[str] = []
    append = out.append
    n = len(graphemes)
    i = 0
    pos = 0  # char offset of graphemes[i], for context matching
    while i < n:
        g = graphemes[i]
        for rule, lhs, length, width in index.get(g, ()):
            if length > 1 and graphemes[i : i + length] != lhs:
                continue
            if rule.left_context is not None and not text.endswith(
                rule.left_context, 0, pos
            ):
                continue
            if rule.right_context is not None and not text.startswith(
                rule.right_context, pos + width
            ):
                continue
            append(rule.rhs)
            i += length
            pos += width
            break
        else:
            append(g)
            i += 1
            pos += len(g)
    return "".join(out)


def transliterate_tokens(tokens, rs: RuleSet) -> list[str]:
    """Element-wise transliteration; output length equals input length."""
    return [transliterate(tok, rs) for tok in tokens]


@lru_cache(maxsize=None)
def load_builtin(name: str) -> RuleSet:
    """Load, validate and compile one of the built-in rulesets by name."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown built-in ruleset {name!r}; have {BUILTIN_NAMES}")
    text = (resources.files(__package__) / "rules" / f"{name}.rules").read_text("utf-8")
    rs = parse_ruleset(text)
    rs.check()
    return rs


def builtin_names() -> tuple[str, ...]:
    return BUILTIN_NAMES
