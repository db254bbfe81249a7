import io

import pytest
from hypothesis import given, settings, strategies as st

from unseenlang.conllu import (
    ConlluError,
    ConlluSentence,
    ConlluToken,
    MwtRange,
    parse_conllu,
    transliterate_conllu,
    write_conllu,
)
from unseenlang.translit import load_builtin

SIMPLE = (
    "# sent_id = 1\n"
    "# text = мон молян\n"
    "1\tмон\tмон\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tмолян\tмолемс\tVERB\t_\t_\t0\troot\t_\t_\n"
)

WITH_MWT = (
    "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
    "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_\n"
    "3\tmar\tmar\tNOUN\t_\t_\t0\troot\t_\t_\n"
)

WITH_EMPTY_NODE = (
    "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
    "1.1\tb\tb\tX\t_\t_\t_\t_\t1:dep\t_\n"
    "2\tc\tc\tX\t_\t_\t1\tdep\t_\t_\n"
)

# one token line; format with its id and head
ROW = "{}\ta\ta\tX\t_\t_\t{}\tdep\t_\t_\n"
# one multiword-token range line; format with its range
RANGE = "{}\tx\t_\t_\t_\t_\t_\t_\t_\t_\n"


class TestParse:
    def test_minimal(self):
        sents = parse_conllu(SIMPLE)
        assert len(sents) == 1
        assert len(sents[0].tokens) == 2
        assert sents[0].comments == ["# sent_id = 1", "# text = мон молян"]
        assert sents[0].tokens[1].head == 0
        assert sents[0].tokens[1].deprel == "root"

    def test_two_sentences(self):
        sents = parse_conllu(SIMPLE + "\n" + SIMPLE)
        assert len(sents) == 2

    def test_wrong_column_count(self):
        with pytest.raises(ConlluError, match="line 1"):
            parse_conllu("1\tx\tx\tX\t_\t_\t0\troot\t_\n")

    def test_mwt_captured(self):
        sents = parse_conllu(WITH_MWT)
        assert sents[0].mwt_ranges == [MwtRange(1, 2, "del", "_")]
        assert [t.form for t in sents[0].tokens] == ["de", "el", "mar"]

    def test_empty_nodes_preserved(self):
        sents = parse_conllu(WITH_EMPTY_NODE)
        assert len(sents[0].tokens) == 2
        assert sents[0].empty_nodes == [(1, "1.1\tb\tb\tX\t_\t_\t_\t_\t1:dep\t_")]

    def test_non_contiguous_ids(self):
        bad = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n3\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="non-contiguous"):
            parse_conllu(bad)

    def test_head_out_of_range(self):
        bad = "1\ta\ta\tX\t_\t_\t5\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="out of range"):
            parse_conllu(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            (ROW.format(1, 0) + ROW.format(3, 1), "line 2: non-contiguous token ids: expected 2, got 3"),
            ("# c\n" + ROW.format(0, 0), "line 2: non-contiguous token ids: expected 1, got 0"),
            (ROW.format(1, 0) + "\n" + ROW.format(1, 0) + ROW.format(1, 1), "line 4: non-contiguous token ids"),
            ("# c\n" + ROW.format(1, 0) + ROW.format(2, 5) + ROW.format(3, 7), "line 3: head 5 out of range"),
            ("\n" + ROW.format(1, 0) + ROW.format(2, -1), "line 3: head -1 out of range"),
            ("1-3\tx\t_\t_\t_\t_\t_\t_\t_\t_\n" + ROW.format(1, 0) + ROW.format(2, 1), "line 1: mwt range 1-3"),
            ("# c\n" + ROW.format(1, 0) + RANGE.format("2-4") + ROW.format(2, 1) + ROW.format(3, 1),
             "line 3: mwt range 2-4 outside 1..3"),
            (RANGE.format("1-2") + ROW.format(1, 0) + RANGE.format("2-3") + ROW.format(2, 1) + ROW.format(3, 1),
             "line 3: overlapping mwt ranges 1-2 and 2-3"),
        ],
    )
    def test_error_names_offending_line(self, text, message):
        with pytest.raises(ConlluError, match=f"^{message}"):
            parse_conllu(text)

    def test_strict_requires_single_root(self):
        bad = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n2\tb\tb\tX\t_\t_\t0\troot\t_\t_\n"
        parse_conllu(bad)  # lenient by default
        with pytest.raises(ConlluError, match="root"):
            parse_conllu(bad, strict=True)


class TestWrite:
    def test_empty(self):
        assert write_conllu([]) == ""

    @pytest.mark.parametrize("text", [SIMPLE, WITH_MWT, WITH_EMPTY_NODE])
    def test_canonical_byte_round_trip(self, text):
        assert write_conllu(parse_conllu(text)) == text

    def test_comments_verbatim(self):
        text = "# weird   spacing\t& stuff\n1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        assert write_conllu(parse_conllu(text)) == text

    def test_invalid_sentence_rejected(self):
        sent = ConlluSentence(tokens=[ConlluToken(2, "a", "a", "X", "_", "_", 0, "root", "_", "_")])
        with pytest.raises(ConlluError):
            write_conllu([sent])


class TestTransliterate:
    def test_forms_and_lemmas_change_rest_preserved(self):
        rs = load_builtin("cyrillic_latin")
        out = transliterate_conllu(parse_conllu(SIMPLE), rs)
        assert [t.form for t in out[0].tokens] == ["mon", "molyan"]
        assert [t.lemma for t in out[0].tokens] == ["mon", "molems"]
        assert [t.upos for t in out[0].tokens] == ["PRON", "VERB"]
        assert [t.head for t in out[0].tokens] == [2, 0]
        assert out[0].comments == parse_conllu(SIMPLE)[0].comments

    def test_lemmas_can_be_left_alone(self):
        rs = load_builtin("cyrillic_latin")
        out = transliterate_conllu(parse_conllu(SIMPLE), rs, lemmas=False)
        assert [t.lemma for t in out[0].tokens] == ["мон", "молемс"]

    def test_empty_corpus(self):
        assert transliterate_conllu([], load_builtin("cyrillic_latin")) == []

    def test_latin_corpus_unchanged(self):
        rs = load_builtin("cyrillic_latin")
        sents = parse_conllu(WITH_MWT)
        assert write_conllu(transliterate_conllu(sents, rs)) == WITH_MWT

    def test_mwt_form_transliterated(self):
        rs = load_builtin("cyrillic_latin")
        text = (
            "1-2\tшаркни\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tшарк\tшарк\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2\tни\tни\tPART\t_\t_\t1\tdep\t_\t_\n"
        )
        out = transliterate_conllu(parse_conllu(text), rs)
        assert out[0].mwt_ranges[0].form == "sharkni"


FORM_ALPHABET = "abcdxyzшугтнеә"
forms = st.text(alphabet=FORM_ALPHABET, min_size=1, max_size=6)


@st.composite
def random_sentence(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    tokens = []
    for i in range(1, n + 1):
        tokens.append(
            ConlluToken(
                id=i,
                form=draw(forms),
                lemma=draw(forms),
                upos=draw(st.sampled_from(["NOUN", "VERB", "X"])),
                xpos="_",
                feats="_",
                head=draw(st.integers(min_value=0, max_value=n)),
                deprel=draw(st.sampled_from(["root", "dep", "nsubj", "obl:arg"])),
                deps="_",
                misc="_",
            )
        )
    comments = draw(st.lists(st.just("# c"), max_size=2))
    return ConlluSentence(comments=list(comments), tokens=tokens)


class TestProperties:
    @settings(max_examples=200)
    @given(st.lists(random_sentence(), max_size=4))
    def test_parse_write_identity(self, sents):
        assert parse_conllu(write_conllu(sents)) == sents

    @given(st.lists(random_sentence(), max_size=4), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans())
    def test_line_endings_and_bom_parse_alike(self, sents, end, bom):
        text = ("\ufeff" if bom else "") + write_conllu(sents).replace("\n", end)
        assert parse_conllu(text) == sents
        assert parse_conllu(io.StringIO(text, newline="\n")) == sents

    @settings(max_examples=100)
    @given(st.lists(random_sentence(), max_size=4))
    def test_transliteration_preserves_structure(self, sents):
        rs = load_builtin("cyrillic_latin")
        out = transliterate_conllu(sents, rs)
        assert len(out) == len(sents)
        for before, after in zip(sents, out):
            assert len(after.tokens) == len(before.tokens)
            for tb, ta in zip(before.tokens, after.tokens):
                assert (ta.id, ta.upos, ta.xpos, ta.feats, ta.head, ta.deprel, ta.deps, ta.misc) == (
                    tb.id, tb.upos, tb.xpos, tb.feats, tb.head, tb.deprel, tb.deps, tb.misc
                )


def tab_join(tok: ConlluToken) -> str:
    """A token line as the fields joined by tabs, ids and heads by ``str``."""
    return "\t".join(
        (
            str(tok.id), tok.form, tok.lemma, tok.upos, tok.xpos,
            tok.feats, str(tok.head), tok.deprel, tok.deps, tok.misc,
        )
    )


# decimal digit sets that int() reads; none of them is changed by NFC
DIGITS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "۰۱۲۳۴۵۶۷۸۹", "०१२३४५६७८९", "０１２３４５６７８９"]
# any column text but a tab or a line break
fields = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=4)


@st.composite
def written_int(draw, value: int) -> str:
    """``value`` as a CoNLL-U column that int() reads: any digit set, with
    leading zeros."""
    digits = draw(st.sampled_from(DIGITS))
    text = "".join(digits[int(d)] for d in str(value))
    return digits[0] * draw(st.integers(0, 2)) + text


@st.composite
def written_sentence(draw) -> str:
    n = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for i in range(1, n + 1):
        cols = [draw(fields) for _ in range(10)]
        cols[0] = draw(written_int(i))
        cols[6] = draw(written_int(draw(st.integers(0, n))))
        rows.append("\t".join(cols) + "\n")
    return "".join(rows)


class TestTokenContract:
    def test_immutable(self):
        tok = parse_conllu(SIMPLE)[0].tokens[0]
        with pytest.raises(AttributeError):
            tok.form = "x"

    def test_equal_to_and_hashed_like_its_tuple(self):
        tok = parse_conllu(SIMPLE)[0].tokens[0]
        plain = (1, "мон", "мон", "PRON", "_", "_", 2, "nsubj", "_", "_")
        assert tok == plain and hash(tok) == hash(plain)
        tok_id, form, *_ = tok
        assert (tok_id, form) == (1, "мон")

    def test_transliterate_returns_tokens(self):
        rs = load_builtin("cyrillic_latin")
        for lemmas in (True, False):
            out = transliterate_conllu(parse_conllu(SIMPLE + "\n" + WITH_MWT), rs, lemmas=lemmas)
            assert all(type(tok) is ConlluToken for sent in out for tok in sent.tokens)

    @settings(max_examples=60)
    @given(written_sentence())
    def test_to_line_matches_tab_join(self, text):
        (sent,) = parse_conllu(text)
        for tok in sent.tokens:
            assert type(tok.id) is int and type(tok.head) is int
            assert tok.to_line().encode("utf-8") == tab_join(tok).encode("utf-8")
