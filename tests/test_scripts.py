import unicodedata
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from unseenlang import scripts
from unseenlang.scripts import (
    TIE_ORDER,
    ScriptClass,
    classify_script,
    script_distribution,
    segment_graphemes,
)


class TestSegmentGraphemes:
    def test_empty(self):
        assert segment_graphemes("") == []

    def test_ascii(self):
        assert segment_graphemes("ab") == ["a", "b"]

    def test_nfc_composition(self):
        # expected value confirmed with unicodedata: e + combining acute
        # composes to a single NFC codepoint
        assert unicodedata.normalize("NFC", "é") == "é"
        assert segment_graphemes("éx") == ["é", "x"]

    def test_combining_mark_stays_attached(self):
        # q has no precomposed form with acute, so the cluster keeps 2 chars
        assert segment_graphemes("q́x") == ["q́", "x"]

    @given(st.text(max_size=40))
    def test_concat_is_identity_on_nfc(self, text):
        assert "".join(segment_graphemes(text)) == unicodedata.normalize("NFC", text)


class TestClassifyScript:
    @pytest.mark.parametrize(
        "grapheme,cls",
        [
            ("a", ScriptClass.LATIN),
            ("é", ScriptClass.LATIN),
            ("ш", ScriptClass.CYRILLIC),
            ("ش", ScriptClass.ARABIC),
            ("ა", ScriptClass.GEORGIAN),
            ("7", ScriptClass.COMMON),
            (".", ScriptClass.COMMON),
            (" ", ScriptClass.COMMON),
            ("́", ScriptClass.COMMON),
            ("α", ScriptClass.OTHER),
            ("漢", ScriptClass.OTHER),
        ],
    )
    def test_examples(self, grapheme, cls):
        assert classify_script(grapheme) is cls

    @given(st.text(min_size=1, max_size=2))
    def test_total_and_stable(self, g):
        assert classify_script(g) is classify_script(g)


class TestScriptDistribution:
    def test_empty(self):
        dist = script_distribution([])
        assert dist.total == 0
        assert all(c == 0 for c in dist.counts.values())

    def test_single_script_tokens(self):
        dist = script_distribution(["abc", "где", "!"])
        assert dist.counts[ScriptClass.LATIN] == 1
        assert dist.counts[ScriptClass.CYRILLIC] == 1
        assert dist.counts[ScriptClass.COMMON] == 1
        assert dist.total == 3

    def test_majority_wins(self):
        # 2 Cyrillic letters vs 1 Latin
        dist = script_distribution(["шшa"])
        assert dist.counts[ScriptClass.CYRILLIC] == 1

    def test_tie_break_prefers_latin(self):
        dist = script_distribution(["aш"])
        assert dist.counts[ScriptClass.LATIN] == 1

    def test_common_graphemes_do_not_vote(self):
        dist = script_distribution(["a123..."])
        assert dist.counts[ScriptClass.LATIN] == 1

    def test_subword_prefix_stripped(self):
        dist = script_distribution(["##ing"], subword_prefix="##")
        assert dist.counts[ScriptClass.LATIN] == 1

    def test_tsv_has_total_row(self):
        tsv = script_distribution(["ab"]).to_tsv()
        assert tsv.endswith("total\t1\t1.000000\n")
        assert "Latin\t1\t1.000000" in tsv

    @given(st.lists(st.text(max_size=6), max_size=30))
    def test_total_equals_length(self, tokens):
        dist = script_distribution(tokens)
        assert dist.total == len(tokens)
        dist.check()


def reference_token_class(token: str) -> ScriptClass:
    """Reference majority vote: a Counter over the non-Common classes of
    the token's graphemes, ties broken by TIE_ORDER."""
    votes: Counter[ScriptClass] = Counter()
    for g in segment_graphemes(token):
        cls = classify_script(g)
        if cls is not ScriptClass.COMMON:
            votes[cls] += 1
    if not votes:
        return ScriptClass.COMMON
    return min(votes, key=lambda cls: (-votes[cls], TIE_ORDER[cls]))


# ASCII, letters of the four scripts plus Greek, CJK and Devanagari, Mn
# marks (acute, hamza above, virama), ZWJ, digits and punctuation.
TOKEN_ALPHABET = (
    "aZé" "шЖё" "شها" "აბ" "αΩ" "漢字" "कष" "्́ٔ" "‍" "07٣" ".,-!#"
)


class TestTokenClassDifferential:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.text(alphabet=TOKEN_ALPHABET, max_size=8)),
            max_size=30,
        )
    )
    def test_matches_reference_vote(self, items):
        tokens = [("##" if prefixed else "") + body for prefixed, body in items]
        dist = script_distribution(tokens, subword_prefix="##")
        want = Counter(
            reference_token_class(t[2:] if t.startswith("##") else t) for t in tokens
        )
        assert dist.counts == {cls: want[cls] for cls in ScriptClass}
        assert dist.total == len(tokens)

    def test_ascii_fast_path_agrees_with_classify_script(self):
        for code in range(128):
            ch = chr(code)
            assert scripts._token_class(ch) is classify_script(ch), repr(ch)
            assert scripts._token_class(ch * 3) is reference_token_class(ch * 3), repr(ch)

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(scripts, "_CLASS_MEMO", {})
        monkeypatch.setattr(scripts, "_CLASS_MEMO_MAX", 4)
        tokens = [chr(0x4E00 + i) + "́" for i in range(20)]
        dist = script_distribution(tokens)
        assert dist.counts[ScriptClass.OTHER] == 20
        assert len(scripts._CLASS_MEMO) == 4
