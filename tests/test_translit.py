import dataclasses
import io
import unicodedata
from importlib import resources

import pytest
import regex
from hypothesis import example, given, settings, strategies as st

from unseenlang.conllu import ConlluSentence, ConlluToken, transliterate_conllu
from unseenlang import translit
from unseenlang.ner import NerSentence, transliterate_ner
from unseenlang.scripts import _GRAPHEME_RE, ScriptClass, segment_graphemes
from unseenlang.translit import (
    Rule,
    RuleFileError,
    RuleSet,
    builtin_names,
    load_builtin,
    parse_ruleset,
    transliterate,
    transliterate_tokens,
    validate_ruleset,
)

HEADER = "@name test\n@source Cyrillic\n@target Latin\n"


def make_ruleset(*rules: Rule) -> RuleSet:
    rs = RuleSet(
        name="test",
        source_scripts=frozenset({ScriptClass.CYRILLIC}),
        target_script=ScriptClass.LATIN,
        rules=tuple(rules),
    )
    rs.check()
    return rs


class TestParseRuleset:
    def test_single_rule(self):
        rs = parse_ruleset("@name t\n@source Arabic\n@target Latin\nش\tş\n")
        assert rs.name == "t"
        assert rs.source_scripts == frozenset({ScriptClass.ARABIC})
        assert rs.rules == (Rule("ش", "ş"),)

    def test_empty_rules_section(self):
        rs = parse_ruleset(HEADER)
        assert rs.rules == ()

    def test_single_field_line_rejected(self):
        with pytest.raises(RuleFileError, match="line 4"):
            parse_ruleset(HEADER + "ш\n")

    @given(st.sampled_from(builtin_names()), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    def test_line_endings_and_bom_parse_alike(self, name, end, bom):
        text = (resources.files("unseenlang") / "rules" / f"{name}.rules").read_text("utf-8")
        variant = ("\ufeff" if bom else "") + text.replace("\n", end)
        assert parse_ruleset(variant) == parse_ruleset(io.StringIO(variant, newline="\n"))
        assert parse_ruleset(variant) == load_builtin(name)

    def test_three_field_line_rejected(self):
        with pytest.raises(RuleFileError):
            parse_ruleset(HEADER + "ш\tsh\tctx\n")

    def test_missing_header(self):
        with pytest.raises(RuleFileError, match="header"):
            parse_ruleset("ш\tsh\n")

    def test_trailing_whitespace_forbidden(self):
        with pytest.raises(RuleFileError, match="trailing whitespace"):
            parse_ruleset(HEADER + "ш\tsh \n")

    def test_comments_ignored(self):
        rs = parse_ruleset("# a comment\n" + HEADER + "ш\tsh\n")
        assert len(rs.rules) == 1

    def test_deletion_marker(self):
        rs = parse_ruleset(HEADER + "ъ\t∅\n")
        assert rs.rules[0].rhs == ""

    def test_contextual_rule(self):
        rs = parse_ruleset(HEADER + "е\tye\tъ\t∅\n")
        assert rs.rules[0].left_context == "ъ"
        assert rs.rules[0].right_context is None

    def test_file_order_preserved(self):
        rs = parse_ruleset(HEADER + "а\ta\nб\tb\n")
        assert [r.lhs for r in rs.rules] == ["а", "б"]


class TestValidateRuleset:
    def test_clean(self):
        rs = RuleSet("t", frozenset({ScriptClass.CYRILLIC}), ScriptClass.LATIN, (Rule("а", "b"),))
        assert validate_ruleset(rs).ok
        rs.check()

    def test_idempotence_violation(self):
        rs = RuleSet(
            "t",
            frozenset({ScriptClass.CYRILLIC}),
            ScriptClass.LATIN,
            (Rule("а", "б"), Rule("б", "c")),
        )
        report = validate_ruleset(rs)
        assert report.idempotence_violations == ["б"]
        with pytest.raises(RuleFileError, match="idempotence violation"):
            rs.check()

    def test_duplicate_key(self):
        rs = RuleSet(
            "t",
            frozenset({ScriptClass.CYRILLIC}),
            ScriptClass.LATIN,
            (Rule("а", "a"), Rule("а", "x")),
        )
        report = validate_ruleset(rs)
        assert report.duplicate_keys == [("а", None, None)]

    def test_same_lhs_different_context_is_fine(self):
        rs = RuleSet(
            "t",
            frozenset({ScriptClass.CYRILLIC}),
            ScriptClass.LATIN,
            (Rule("а", "a", left_context="б"), Rule("а", "o")),
        )
        assert validate_ruleset(rs).ok


class TestEngine:
    def test_invalid_ruleset_rejected(self):
        rs = RuleSet(
            "t",
            frozenset({ScriptClass.CYRILLIC}),
            ScriptClass.LATIN,
            (Rule("а", "б"), Rule("б", "c")),
        )
        conllu_sent = ConlluSentence(
            tokens=[ConlluToken(1, "а", "а", "NOUN", "_", "_", 0, "root", "_", "_")]
        )
        ner_sent = NerSentence(tokens=("а",), labels=("O",))
        for call in (
            lambda: transliterate("а", rs),
            lambda: transliterate_conllu([conllu_sent], rs),
            lambda: transliterate_ner([ner_sent], rs),
        ):
            with pytest.raises(ValueError, match="idempotence violation: rhs grapheme 'б'"):
                call()

    def test_compiled_once_per_ruleset(self, monkeypatch):
        calls = []
        validate = translit.validate_ruleset
        monkeypatch.setattr(
            translit, "validate_ruleset", lambda rs: calls.append(rs) or validate(rs)
        )
        rs = RuleSet("t", frozenset({ScriptClass.CYRILLIC}), ScriptClass.LATIN, (Rule("а", "a"),))
        rs.check()
        assert [transliterate("а", rs), transliterate("аа", rs)] == ["a", "aa"]
        rs.check()
        assert len(calls) == 1

    def test_empty_input(self):
        assert transliterate("", load_builtin("cyrillic_latin")) == ""

    def test_passthrough(self):
        assert transliterate("abc", load_builtin("cyrillic_latin")) == "abc"

    def test_longest_match_wins(self):
        rs = make_ruleset(Rule("а", "a"), Rule("аб", "X"), Rule("б", "b"))
        assert transliterate("аба", rs) == "Xa"

    def test_file_order_breaks_ties(self):
        rs = make_ruleset(Rule("а", "first", left_context="б"), Rule("а", "second"))
        # left context matches the original б, so the first rule applies
        assert transliterate("ба", rs) == "бfirst"
        assert transliterate("а", rs) == "second"

    def test_right_context(self):
        rs = make_ruleset(Rule("а", "A", right_context="б"), Rule("а", "a"))
        assert transliterate("аб", rs) == "Aб"
        assert transliterate("ав", rs) == "aв"

    def test_context_matches_original_not_output(self):
        # ш rewrites to c, but the context rule keys on the original ш
        rs = make_ruleset(Rule("ш", "c"), Rule("а", "X", left_context="c"))
        assert transliterate("ша", rs) == "cа"

    def test_deletion(self):
        rs = make_ruleset(Rule("ъ", ""), Rule("а", "a"))
        assert transliterate("аъа", rs) == "aa"

    def test_context_matches_nfc_after_strip(self):
        # stripping the ZWNJ lets NFC compose alef + hamza into أ, which
        # the left context then sees
        rs = make_ruleset(Rule("ب", "b", left_context="أ"), Rule("\u200c", ""))
        assert transliterate("ا\u200cٔب", rs) == transliterate("أب", rs) == "أb"

    def test_multi_grapheme_context(self):
        rs = make_ruleset(Rule("в", "V", left_context="аб"), Rule("в", "v"))
        assert transliterate("абв", rs) == "абV"
        assert transliterate("бв", rs) == "бv"

    def test_tokens_elementwise(self):
        rs = load_builtin("cyrillic_latin")
        assert transliterate_tokens(["abc", "мон"], rs) == ["abc", "mon"]
        assert transliterate_tokens([], rs) == []

    def test_shared_sh_mapping(self):
        assert transliterate("ش", load_builtin("uyghur_latin")) == "ş"
        assert transliterate("ش", load_builtin("sorani_latin")) == "ş"


# Hand-transliterated word samples checked against each table before the
# tables were frozen.
BUILTIN_SAMPLES = {
    "cyrillic_latin": [
        ("мон", "mon"),
        ("Москва", "Moskva"),
        ("щука", "shchuka"),
        ("ёж", "yozh"),
        ("съезд", "s'ezd"),
        ("чай", "chaj"),
        ("Эрзя", "Erzya"),
        ("ӱжара", "üzhara"),
    ],
    "georgian_latin": [
        ("საქართველო", "saqartvelo"),
        ("მარგალური", "margaluri"),
        ("ჭიათურა", "chiatura"),
        ("ყველი", "yveli"),
        ("ჟურნალი", "zhurnali"),
    ],
    "uyghur_latin": [
        ("ش", "ş"),
        ("ئۇيغۇرچە", "uyğurçe"),
        ("تۈرك", "türk"),
        ("قىز", "qiz"),
        ("شەھەر", "şeher"),
        ("كىتاب", "kitab"),
    ],
    "sorani_latin": [
        ("ش", "ş"),
        ("کوردی", "kurdî"),
        ("شار", "şar"),
        ("وورد", "ûrd"),
        ("ژیان", "jîan"),
    ],
}


class TestBuiltins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_loads_and_validates(self, name):
        rs = load_builtin(name)
        rs.check()
        assert rs.name == name
        assert rs.target_script is ScriptClass.LATIN

    @pytest.mark.parametrize("name", builtin_names())
    def test_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            load_builtin(name).rules = ()

    @pytest.mark.parametrize(
        "name,word,expected",
        [(n, w, e) for n, samples in BUILTIN_SAMPLES.items() for w, e in samples],
    )
    def test_word_samples(self, name, word, expected):
        assert transliterate(word, load_builtin(name)) == expected

    @pytest.mark.parametrize("name", builtin_names())
    def test_output_is_latin_or_common(self, name):
        rs = load_builtin(name)
        text = " ".join(rule.lhs for rule in rs.rules)
        out = transliterate(text, rs)
        from unseenlang.scripts import classify_script, segment_graphemes

        for g in segment_graphemes(out):
            assert classify_script(g) in (ScriptClass.LATIN, ScriptClass.COMMON)


CYRILLIC_TEXT = st.text(
    alphabet="абвгдеёжзийклмнопрстуфхцчшщъыьэюяАБВЕЖШЩЯ ӧӱҥabc.,!7", max_size=30
)


class TestProperties:
    @settings(max_examples=300)
    @given(CYRILLIC_TEXT)
    def test_idempotent_and_deterministic(self, text):
        rs = load_builtin("cyrillic_latin")
        once = transliterate(text, rs)
        assert transliterate(text, rs) == once
        assert transliterate(once, rs) == once

    @settings(max_examples=200)
    @given(st.lists(CYRILLIC_TEXT, max_size=8))
    def test_token_count_preserved(self, tokens):
        rs = load_builtin("cyrillic_latin")
        assert len(transliterate_tokens(tokens, rs)) == len(tokens)


def reference_transliterate(text: str, rs: RuleSet) -> str:
    """Reference matcher: grapheme offsets listed first, then at each
    position the first applicable candidate of those sorted longest-lhs
    first, then file order. Unconditional deletions of one format
    character are stripped from the NFC text beforehand, which is then
    normalized again."""
    index: dict[str, list[tuple[int, Rule, tuple[str, ...]]]] = {}
    for order, rule in enumerate(rs.rules):
        gs = tuple(segment_graphemes(rule.lhs))
        index.setdefault(gs[0], []).append((order, rule, gs))
    for cands in index.values():
        cands.sort(key=lambda item: (-len(item[2]), item[0]))
    strip = {
        ord(rule.lhs): None
        for rule in rs.rules
        if len(rule.lhs) == 1
        and unicodedata.category(rule.lhs) == "Cf"
        and rule.rhs == ""
        and rule.left_context is None
        and rule.right_context is None
    }
    text = unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).translate(strip))
    graphemes = segment_graphemes(text)
    offsets = [0]
    for g in graphemes:
        offsets.append(offsets[-1] + len(g))
    out: list[str] = []
    i = 0
    n = len(graphemes)
    while i < n:
        match = _reference_best_match(index, graphemes, offsets, text, i)
        if match is None:
            out.append(graphemes[i])
            i += 1
        else:
            rule, length = match
            out.append(rule.rhs)
            i += length
    return "".join(out)


def _reference_best_match(index, graphemes, offsets, text, i):
    cands = index.get(graphemes[i])
    if not cands:
        return None
    n = len(graphemes)
    for _, rule, lhs_gs in cands:
        length = len(lhs_gs)
        if i + length > n:
            continue
        if tuple(graphemes[i : i + length]) != lhs_gs:
            continue
        if rule.left_context is not None and not text.endswith(
            rule.left_context, 0, offsets[i]
        ):
            continue
        if rule.right_context is not None and not text.startswith(
            rule.right_context, offsets[i + length]
        ):
            continue
        return rule, length
    return None


# Source graphemes, including a cluster with a mark and Arabic alef with
# hamza, which NFC composes from alef + U+0654 once a ZWNJ between them is
# stripped. Text and contexts are drawn as runs of these pieces.
LHS_GRAPHEMES = ["а", "б", "ш", "ш́", "أ", "ا"]
TEXT_PIECES = LHS_GRAPHEMES + ["x", "y", " ", "́", "ٔ", "‌", "ا‌ٔ"]
TEXT = st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join)
CONTEXT = st.one_of(
    st.none(), st.lists(st.sampled_from(TEXT_PIECES), min_size=1, max_size=2).map("".join)
)


@st.composite
def rulesets(draw) -> RuleSet:
    rules = draw(
        st.lists(
            st.builds(
                Rule,
                lhs=st.lists(st.sampled_from(LHS_GRAPHEMES), min_size=1, max_size=3).map("".join),
                rhs=st.text(alphabet="xyz", max_size=2),
                left_context=CONTEXT,
                right_context=CONTEXT,
            ),
            max_size=6,
            unique_by=lambda rule: rule.key,
        )
    )
    if draw(st.booleans()):
        rules.append(Rule("‌", ""))  # ZWNJ: applied as a character strip
    return make_ruleset(*rules)


class TestDifferential:
    @settings(max_examples=400)
    @given(rulesets(), TEXT)
    # a right context after a one-grapheme, two-char lhs
    @example(make_ruleset(Rule("ш́", "x", None, "а")), "ш́а")
    # stripping the ZWNJ lets NFC join alef and hamza, and the left context
    # of б sees the joined "أ"
    @example(make_ruleset(Rule("б", "x", "أ", None), Rule("‌", "")), "ا‌ٔб")
    def test_generated_rulesets_match_reference(self, rs, text):
        assert transliterate(text, rs) == reference_transliterate(text, rs)

    @settings(max_examples=200)
    @given(st.sampled_from(builtin_names()), st.data())
    def test_builtins_match_reference(self, name, data):
        rs = load_builtin(name)
        alphabet = sorted({ch for rule in rs.rules for ch in rule.lhs} | set(" á‌‍ٔ"))
        text = data.draw(st.text(alphabet=alphabet, max_size=30))
        assert transliterate(text, rs) == reference_transliterate(text, rs)


# One code point of each kind that can join a neighbour: CR, Hangul L, V,
# T and LV syllable, a regional indicator, a prepended concatenation mark,
# a spacing mark, ZWJ and a combining accent; and LF, which CR joins.
JOINER_SAMPLES = "\r\u1100\u1161\u11a8\uac00\U0001f1e6\u0600\u0903\u200d\u0301\n"


class TestFastPath:
    """A text with no joiner goes through one ``str.translate``."""

    def test_code_points_outside_joiners_are_single_clusters(self):
        joiner = regex.compile(f"[{translit.JOINERS}]")
        chars = [
            chr(cp)
            for cp in range(0x110000)
            if not 0xD800 <= cp < 0xE000 and joiner.match(chr(cp)) is None
        ]
        # each code point doubled, between ASCII letters and before a line
        # feed (CR joins only LF)
        text = "".join(f"a{ch}{ch}a{ch}\n" for ch in chars)
        assert [g for g in _GRAPHEME_RE.findall(text) if len(g) > 1] == []

    @settings(max_examples=300)
    @given(st.sampled_from(builtin_names()), st.data())
    def test_builtins_with_joiners_match_reference(self, name, data):
        rs = load_builtin(name)
        alphabet = sorted({ch for rule in rs.rules for ch in rule.lhs} | set(JOINER_SAMPLES))
        text = data.draw(st.text(alphabet=alphabet, max_size=30))
        assert transliterate(text, rs) == reference_transliterate(text, rs)
