import io
import re
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from unseenlang.conllu import ConlluError, parse_conllu
from unseenlang.corpus import (
    LineError,
    dedup_lines,
    language_table,
    lookup,
    read_lines,
    registry_tsv,
)
from unseenlang.ner import NerError, parse_ner
from unseenlang.scripts import ScriptClass
from unseenlang.taxonomy import ScoreFileError, load_score_points
from unseenlang.translit import RuleFileError, parse_ruleset


def reference_lines(text: str) -> list[tuple[int, str]]:
    """The line rule, written apart from read_lines: cut at "\\r\\n", "\\r"
    or "\\n" after a leading BOM, with no line after a final terminator."""
    lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
    if lines[-1] == "":
        lines.pop()
    return list(enumerate(lines, start=1))


class TestReadLines:
    def test_only_cr_and_lf_end_a_line(self):
        text = "a\x85b\nc\u2028d\n"
        assert list(read_lines(text)) == [(1, "a\x85b"), (2, "c\u2028d")]

    def test_crlf_and_cr(self):
        assert list(read_lines("a\r\nb\rc\n\r\n")) == [(1, "a"), (2, "b"), (3, "c"), (4, "")]

    def test_no_line_after_final_terminator(self):
        assert list(read_lines("")) == []
        assert list(read_lines("\n")) == [(1, "")]
        assert list(read_lines("a\n")) == list(read_lines("a")) == [(1, "a")]

    def test_leading_bom_only_is_dropped(self):
        assert list(read_lines("\ufeffa\n\ufeffb\n")) == [(1, "a"), (2, "\ufeffb")]
        assert list(read_lines("\ufeff")) == []

    def test_no_normalisation(self):
        assert list(read_lines("e\u0301\n")) == [(1, "e\u0301")]

    @pytest.mark.parametrize(
        "text, want",
        [
            # streams are read 65,536 characters at a time
            ("x" * 65535 + "\r\ny\n", ["x" * 65535, "y"]),
            ("x" * 65534 + "\r\r\ny", ["x" * 65534, "", "y"]),
            ("x" * 70000 + "\ny" * 70000, ["x" * 70000] + ["y"] * 70000),
        ],
        ids=["crlf-cut", "cr-then-crlf-cut", "long-lines"],
    )
    def test_line_ends_across_stream_blocks(self, text, want):
        for newline in ("\n", ""):
            lines = list(read_lines(io.StringIO(text, newline=newline)))
            assert lines == list(enumerate(want, start=1))

    @given(st.text(alphabet="a\u0448\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff", max_size=30))
    @example("\r\n")
    @example("\ufeff\ufeff\r")
    def test_str_and_streams_match_reference(self, text):
        want = reference_lines(text)
        assert list(read_lines(text)) == want
        # "\n": split at "\n" only, "\r" kept (POSIX stdin); "": no
        # translation; None: universal newlines (open()'s default)
        for newline in ("\n", "", None):
            assert list(read_lines(io.StringIO(text, newline=newline))) == want


@pytest.mark.parametrize(
    "parse, error, text, lineno",
    [
        (parse_conllu, ConlluError, "\ufeff1\tx\n", 1),
        (parse_ner, NerError, "a\tO\r\nb\r\n", 2),
        (parse_ruleset, RuleFileError, "@name t\n@source Cyrillic\n@target Latin\nш\n", 4),
        (load_score_points, ScoreFileError, "# scores\n\nxx\tPOS\t90\t95\n", 3),
        (load_score_points, ScoreFileError, "# scores\n\nxx\tPOS\t9x\t95\t96\n", 3),
    ],
)
def test_parse_errors_are_line_errors(parse, error, text, lineno):
    with pytest.raises(error) as info:
        parse(text)
    assert isinstance(info.value, LineError) and info.value.lineno == lineno
    assert str(info.value).startswith(f"line {lineno}: ")


class TestDedupLines:
    def test_basic(self):
        assert dedup_lines(["a", "a", "b"]) == ["a", "b"]

    def test_first_occurrence_order(self):
        assert dedup_lines(["b", "a", "b"]) == ["b", "a"]

    def test_empty_lines_dropped(self):
        assert dedup_lines(["", "a", "   ", "a"]) == ["a"]

    def test_trimmed_equality(self):
        assert dedup_lines(["a ", " a"]) == ["a "]

    def test_nfc_equality(self):
        composed = "é"
        decomposed = "é"
        assert unicodedata.normalize("NFC", decomposed) == composed
        assert dedup_lines([composed, decomposed]) == [composed]

    @given(st.lists(st.text(max_size=8), max_size=30))
    def test_idempotent_and_unique(self, lines):
        once = dedup_lines(lines)
        assert dedup_lines(once) == once
        keys = [unicodedata.normalize("NFC", l).strip() for l in once]
        assert len(keys) == len(set(keys))
        assert all(keys)


class TestRegistry:
    def test_sorani(self):
        rec = lookup("ckb")
        assert rec.script is ScriptClass.ARABIC
        assert rec.family == "Indo-Iranian"
        assert rec.sents == 380_000
        assert rec.source == "OSCAR"

    def test_faroese(self):
        rec = lookup("fao")
        assert rec.script is ScriptClass.LATIN
        assert rec.sents == 297_000
        assert rec.source == "Leipzig"

    def test_livvi_k_expansion(self):
        assert lookup("olo").sents == 9_400

    def test_unknown_code(self):
        with pytest.raises(LookupError):
            lookup("zz")

    def test_fifteen_languages(self):
        assert len(language_table()) == 15

    def test_counts_non_negative(self):
        assert all(r.sents >= 0 for r in language_table())

    def test_tsv_export(self):
        tsv = registry_tsv()
        assert tsv.startswith("iso\tname\tscript\t")
        assert "ug\tUyghur\tArabic\tTurkic\t105000\tOSCAR" in tsv
