import io

import pytest
from hypothesis import given, settings, strategies as st

from unseenlang.ner import (
    NerError,
    NerSentence,
    Span,
    extract_spans,
    parse_ner,
    transliterate_ner,
    write_ner,
)
from unseenlang.translit import load_builtin


class TestParse:
    def test_single_span(self):
        sents = parse_ner("Paris\tB-LOC\n")
        assert sents == [NerSentence(("Paris",), ("B-LOC",))]
        assert extract_spans(sents[0].labels) == [Span(0, 0, "LOC")]

    def test_blank_line_separates_sentences(self):
        sents = parse_ner("a\tO\n\nb\tO\n")
        assert len(sents) == 2

    def test_strict_rejects_dangling_i(self):
        with pytest.raises(NerError, match="sentence 1"):
            parse_ner("x\tI-PER\n")

    def test_iob2_error_names_line_and_sentence(self):
        with pytest.raises(NerError, match=r"^line 4: dangling I-PER after B-LOC \(sentence 2\)$"):
            parse_ner("a\tO\n\nb\tB-LOC\nc\tI-PER\n")
        with pytest.raises(NerError, match=r"^line 2: bad IOB2 label 'B' \(sentence 1\)$"):
            parse_ner("a\tO\nb\tB\n")

    def test_repair_rewrites_dangling_i(self):
        sents = parse_ner("x\tI-PER\n", repair=True)
        assert sents[0].labels == ("B-PER",)

    def test_repair_type_switch(self):
        sents = parse_ner("a\tB-ORG\nb\tI-PER\n", repair=True)
        assert sents[0].labels == ("B-ORG", "B-PER")

    def test_i_after_same_type_ok(self):
        sents = parse_ner("a\tB-PER\nb\tI-PER\n")
        assert extract_spans(sents[0].labels) == [Span(0, 1, "PER")]

    def test_bad_label(self):
        with pytest.raises(NerError):
            parse_ner("a\tB\n")

    def test_bad_column_count(self):
        with pytest.raises(NerError, match="line 1"):
            parse_ner("just-a-token\n")

    def test_wikiann_prefix_stripping(self):
        sents = parse_ner("en:Paris\tB-LOC\n", strip_prefix=True)
        assert sents[0].tokens == ("Paris",)

    def test_length_mismatch_guard(self):
        with pytest.raises(NerError):
            NerSentence(("a", "b"), ("O",))

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.text(alphabet="aш:", min_size=1, max_size=3),
                    st.sampled_from(["O", "B-PER", "I-PER", "B-LOC"]),
                ),
                min_size=1,
                max_size=4,
            ),
            max_size=3,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
    )
    def test_line_endings_and_bom_parse_alike(self, rows, end, bom):
        text = "\n\n".join("\n".join(f"{t}\t{l}" for t, l in sent) for sent in rows)
        text += "\n" if rows else ""
        want = parse_ner(text, repair=True)
        variant = ("\ufeff" if bom else "") + text.replace("\n", end)
        assert parse_ner(variant, repair=True) == want
        assert parse_ner(io.StringIO(variant, newline="\n"), repair=True) == want


class TestWrite:
    def test_round_trip(self):
        text = "a\tB-PER\nb\tI-PER\n\nc\tO\n"
        assert write_ner(parse_ner(text)) == text


    def test_empty(self):
        assert write_ner([]) == ""


class TestSpans:
    def test_adjacent_spans(self):
        assert extract_spans(["B-PER", "B-PER"]) == [Span(0, 0, "PER"), Span(1, 1, "PER")]

    def test_span_at_end(self):
        assert extract_spans(["O", "B-LOC", "I-LOC"]) == [Span(1, 2, "LOC")]

    def test_no_spans(self):
        assert extract_spans(["O", "O"]) == []

    def test_span_is_its_tuple(self):
        span = Span(1, 2, "LOC")
        assert span == (1, 2, "LOC") and hash(span) == hash((1, 2, "LOC"))
        start, end, etype = span
        assert (start, end, etype) == (1, 2, "LOC")
        with pytest.raises(AttributeError):
            span.type = "PER"


class TestTransliterate:
    def test_labels_intact(self):
        rs = load_builtin("uyghur_latin")
        out = transliterate_ner([NerSentence(("ش",), ("B-LOC",))], rs)
        assert out == [NerSentence(("ş",), ("B-LOC",))]

    def test_empty(self):
        assert transliterate_ner([], load_builtin("uyghur_latin")) == []

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="шстоне", min_size=1, max_size=4),
                st.sampled_from(["O", "B-PER", "B-LOC"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_label_sequence_always_identical(self, rows):
        sent = NerSentence(tuple(t for t, _ in rows), tuple(l for _, l in rows))
        out = transliterate_ner([sent], load_builtin("cyrillic_latin"))
        assert out[0].labels == sent.labels
        assert len(out[0].tokens) == len(sent.tokens)
