import math

import pytest
from hypothesis import example, given, settings, strategies as st

from unseenlang.conllu import parse_conllu
from unseenlang.metrics import (
    AlignmentError,
    aggregate_runs,
    eval_dep,
    eval_ner,
    eval_pos,
    round_score,
)
from unseenlang.ner import NerSentence, Span, extract_spans


def conllu(*rows):
    """Build a one-sentence corpus from (form, upos, head, deprel) rows."""
    lines = [
        f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"
        for i, (form, upos, head, deprel) in enumerate(rows, start=1)
    ]
    return parse_conllu("\n".join(lines) + "\n")


GOLD = conllu(("a", "N", 2, "nsubj"), ("b", "V", 0, "root"), ("c", "N", 2, "obj"))


class TestEvalPos:
    def test_identical(self):
        assert eval_pos(GOLD, GOLD).accuracy == 100.0

    def test_two_of_three(self):
        pred = conllu(("a", "N", 2, "nsubj"), ("b", "V", 0, "root"), ("c", "V", 2, "obj"))
        # hand count: 2 of 3 correct
        assert round_score(eval_pos(GOLD, pred).accuracy) == 66.67

    def test_token_count_mismatch(self):
        pred = conllu(("a", "N", 0, "root"))
        with pytest.raises(AlignmentError, match="sentence 1"):
            eval_pos(GOLD, pred)

    def test_sentence_count_mismatch(self):
        with pytest.raises(AlignmentError):
            eval_pos(GOLD, GOLD + GOLD)


class TestEvalDep:
    def test_identical(self):
        score = eval_dep(GOLD, GOLD)
        assert score.uas == 100.0 and score.las == 100.0

    def test_one_deprel_wrong(self):
        pred = conllu(("a", "N", 2, "obl"), ("b", "V", 0, "root"), ("c", "N", 2, "obj"))
        score = eval_dep(GOLD, pred)
        assert score.uas == 100.0
        assert round_score(score.las) == 66.67

    def test_all_heads_wrong(self):
        pred = conllu(("a", "N", 3, "nsubj"), ("b", "V", 1, "root"), ("c", "N", 1, "obj"))
        score = eval_dep(GOLD, pred)
        assert score.uas == 0.0 and score.las == 0.0

    def test_subtype_ignored_by_default(self):
        gold = conllu(("a", "N", 0, "obl:arg"))
        pred = conllu(("a", "N", 0, "obl"))
        assert eval_dep(gold, pred).las == 100.0
        assert eval_dep(gold, pred, strict_deprel=True).las == 0.0


class TestEvalNer:
    def sent(self, labels):
        return [NerSentence(tuple("t" * (i + 1) for i in range(len(labels))), tuple(labels))]

    def test_identical(self):
        gold = self.sent(["B-PER", "I-PER", "O", "B-LOC"])
        score = eval_ner(gold, gold)
        assert (score.precision, score.recall, score.f1) == (100.0, 100.0, 100.0)

    def test_missed_span(self):
        gold = self.sent(["O", "B-PER", "I-PER", "O", "B-LOC"])
        pred = self.sent(["O", "B-PER", "I-PER", "O", "O"])
        score = eval_ner(gold, pred)
        # hand count: 1 TP, 0 FP, 1 FN
        assert score.precision == 100.0
        assert score.recall == 50.0
        assert round_score(score.f1) == 66.67

    def test_extra_span_costs_precision(self):
        gold = self.sent(["B-PER", "O", "O"])
        pred = self.sent(["B-PER", "O", "B-LOC"])
        score = eval_ner(gold, pred)
        assert score.tp == 1 and score.fp == 1 and score.fn == 0
        assert score.precision == 50.0 and score.recall == 100.0

    def test_boundary_must_match(self):
        gold = self.sent(["B-PER", "I-PER", "O"])
        pred = self.sent(["B-PER", "O", "O"])
        score = eval_ner(gold, pred)
        assert score.tp == 0 and score.fp == 1 and score.fn == 1

    def test_type_must_match(self):
        gold = self.sent(["B-PER"])
        pred = self.sent(["B-LOC"])
        assert eval_ner(gold, pred).tp == 0

    def test_zero_denominator_f1(self):
        gold = self.sent(["O"])
        assert eval_ner(gold, gold).f1 == 0.0


def oracle_spans(labels):
    """Independent brute force: enumerate every (start, end, type) triple
    and keep those exactly encoded by the label sequence."""
    n = len(labels)
    types = {l[2:] for l in labels if l != "O"}
    found = set()
    for start in range(n):
        for end in range(start, n):
            for t in types:
                if labels[start] != f"B-{t}":
                    continue
                if any(labels[i] != f"I-{t}" for i in range(start + 1, end + 1)):
                    continue
                if end + 1 < n and labels[end + 1] == f"I-{t}":
                    continue
                found.add(Span(start, end, t))
    return found


@st.composite
def iob2_labels(draw, max_len=10):
    n = draw(st.integers(min_value=1, max_value=max_len))
    labels = []
    while len(labels) < n:
        if draw(st.booleans()):
            labels.append("O")
        else:
            t = draw(st.sampled_from(["PER", "LOC", "ORG"]))
            length = draw(st.integers(min_value=1, max_value=min(3, n - len(labels))))
            labels.append(f"B-{t}")
            labels.extend(f"I-{t}" for _ in range(length - 1))
    return labels[:n]


class TestNerOracle:
    @settings(max_examples=500)
    @given(iob2_labels())
    def test_extraction_matches_brute_force(self, labels):
        assert set(extract_spans(labels)) == oracle_spans(labels)

    @settings(max_examples=500)
    @given(iob2_labels(), iob2_labels())
    def test_scorer_matches_brute_force(self, gold_labels, pred_labels):
        n = min(len(gold_labels), len(pred_labels))
        gold_labels, pred_labels = gold_labels[:n], pred_labels[:n]
        if gold_labels and gold_labels[-1].startswith("I-"):
            pass  # truncation keeps IOB2 validity: prefixes of valid sequences are valid
        tokens = tuple(str(i) for i in range(n))
        score = eval_ner(
            [NerSentence(tokens, tuple(gold_labels))],
            [NerSentence(tokens, tuple(pred_labels))],
        )
        g, p = oracle_spans(gold_labels), oracle_spans(pred_labels)
        assert (score.tp, score.fp, score.fn) == (len(g & p), len(p - g), len(g - p))


class TestAggregateRuns:
    def test_mean(self):
        assert aggregate_runs([1, 2, 3]).mean == 2.0

    def test_single(self):
        agg = aggregate_runs([42.5])
        assert agg.mean == 42.5 and agg.sd == 0.0

    def test_five_seed_example(self):
        # hand computation: mean 81, population variance 2
        agg = aggregate_runs([80.0, 82.0, 81.0, 79.0, 83.0])
        assert agg.mean == 81.0
        assert math.isclose(agg.sd, math.sqrt(2), rel_tol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=10))
    @example([21.91112683982869] * 3)  # fmean rounds one ulp above the score
    def test_mean_within_range(self, scores):
        agg = aggregate_runs(scores)
        assert min(scores) <= agg.mean <= max(scores)


class TestRounding:
    def test_half_up(self):
        assert round_score(66.665) == 66.67
        assert round_score(66.664) == 66.66
        assert round_score(2.005) == 2.01
