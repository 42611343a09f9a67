import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontodecode.metrics import (
    adjusted_hallucination_score,
    domain_score,
    evaluation_report,
    groundedness,
    hallucination_score,
    relevance,
    rouge1,
    rouge2,
    rouge_lsum,
)
from ontodecode.pipeline import CSR


def brute_rouge2(candidate: str, reference: str) -> float:
    """Independent clipped-bigram counter using list removal."""
    tok = lambda t: re.findall(r"[^\W_]+", t.lower())
    a, b = tok(candidate), tok(reference)
    bigrams_a = list(zip(a, a[1:]))
    bigrams_b = list(zip(b, b[1:]))
    if not bigrams_a or not bigrams_b:
        return 0.0
    remaining = list(bigrams_b)
    overlap = 0
    for gram in bigrams_a:
        if gram in remaining:
            remaining.remove(gram)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(bigrams_a)
    recall = overlap / len(bigrams_b)
    return 2 * precision * recall / (precision + recall)


_WORDS = ["the", "cat", "sat", "on", "ran", "dog", "mat", "x1", "b2"]


def random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(0, 8)))


class TestRouge2:
    def test_identity(self):
        assert rouge2("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert rouge2("a b c", "x y z") == 0.0

    def test_hand_case(self):
        assert rouge2("the cat sat on", "the cat ran") == pytest.approx(0.4)

    def test_short_sides(self):
        assert rouge2("single", "single") == 0.0
        assert rouge2("", "a b") == 0.0
        assert rouge2("a b", "") == 0.0

    def test_case_and_punctuation_folding(self):
        assert rouge2("The, cat!", "the cat") == 1.0

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(300):
            a, b = random_text(rng), random_text(rng)
            assert rouge2(a, b) == brute_rouge2(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=8),
           st.lists(st.sampled_from(_WORDS), min_size=0, max_size=8))
    def test_f1_symmetry(self, left, right):
        a, b = " ".join(left), " ".join(right)
        assert rouge2(a, b) == pytest.approx(rouge2(b, a))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), min_size=2, max_size=8))
    def test_self_score_is_one(self, words):
        text = " ".join(words)
        assert rouge2(text, text) == pytest.approx(1.0)


class TestRougeCompanions:
    def test_rouge1_identity_and_hand_case(self):
        assert rouge1("a b c", "a b c") == 1.0
        # overlap {the, cat} = 2; P = 2/4, R = 2/3
        assert rouge1("the cat sat on", "the cat ran") == pytest.approx(
            2 * (2 / 4) * (2 / 3) / ((2 / 4) + (2 / 3))
        )

    def test_rouge_lsum_identity(self):
        assert rouge_lsum("a b c. d e f.", "a b c. d e f.") == pytest.approx(1.0)

    def test_rouge_lsum_orders_within_sentences(self):
        assert rouge_lsum("a b", "b a") == pytest.approx(0.5)
        assert rouge_lsum("", "a b") == 0.0


class TestHallucination:
    def test_half(self):
        assert hallucination_score({"a", "b", "c", "d"}, {"a", "b"}) == 0.5

    def test_subset_is_zero(self):
        assert hallucination_score({"a"}, {"a", "b"}) == 0.0

    def test_disjoint_is_one(self):
        assert hallucination_score({"a", "b"}, {"x"}) == 1.0

    def test_empty_summary_errors(self):
        with pytest.raises(ValueError):
            hallucination_score(set(), {"a"})
        with pytest.raises(ValueError):
            adjusted_hallucination_score(set(), {"a"}, {"b"})

    def test_adjusted_examples(self):
        assert adjusted_hallucination_score(
            {"a", "b", "c", "d"}, {"a", "b"}, {"c"}
        ) == 0.25
        assert adjusted_hallucination_score({"a", "b"}, {"a"}, set()) == \
            hallucination_score({"a", "b"}, {"a"})
        assert adjusted_hallucination_score({"a", "b"}, {"a"}, {"b"}) == 0.0

    def test_matches_brute_force_sets(self):
        rng = random.Random(43)
        universe = [f"c{i}" for i in range(30)]
        for _ in range(100):
            s = set(rng.sample(universe, rng.randint(1, 30)))
            n = set(rng.sample(universe, rng.randint(0, 30)))
            r = set(rng.sample(universe, rng.randint(0, 30)))
            hs_brute = sum(1 for x in s if x not in n) / len(s)
            ahs_brute = sum(1 for x in s if x not in n and x not in r) / len(s)
            assert hallucination_score(s, n) == hs_brute
            assert adjusted_hallucination_score(s, n, r) == ahs_brute
            assert adjusted_hallucination_score(s, n, r) <= hallucination_score(s, n)


class _FixedClassifier:
    def __init__(self, table: dict[str, dict[str, float]], scale: float = 1.0):
        self.domains = ["A", "B"]
        self.table = table
        self.scale = scale

    def score(self, text):
        return {k: v * self.scale for k, v in self.table[text].items()}


class TestDomainScore:
    def test_single_pair(self):
        clf = _FixedClassifier({"t": {"A": 0.8, "B": 0.2}})
        assert domain_score(clf, [("t", "A")]) == pytest.approx(0.8)

    def test_mean(self):
        clf = _FixedClassifier({"t1": {"A": 0.8, "B": 0.0}, "t2": {"A": 0.6, "B": 0.0}})
        assert domain_score(clf, [("t1", "A"), ("t2", "A")]) == pytest.approx(0.7)

    def test_unknown_label(self):
        clf = _FixedClassifier({"t": {"A": 1.0, "B": 0.0}})
        with pytest.raises(ValueError, match="unknown domain"):
            domain_score(clf, [("t", "C")])

    def test_empty_pairs(self):
        with pytest.raises(ValueError):
            domain_score(_FixedClassifier({}), [])

    def test_linear_in_logits(self):
        table = {"t1": {"A": 0.8, "B": 0.1}, "t2": {"A": 0.3, "B": 0.9}}
        pairs = [("t1", "A"), ("t2", "B")]
        base = domain_score(_FixedClassifier(table), pairs)
        scaled = domain_score(_FixedClassifier(table, scale=3.5), pairs)
        assert scaled == pytest.approx(3.5 * base)


class _RecordingNli:
    def __init__(self, value: float = 0.5):
        self.value = value
        self.calls: list[tuple[str, str]] = []

    def entail(self, premise, hypothesis):
        self.calls.append((premise, hypothesis))
        return self.value


class TestEntailmentMetrics:
    def test_groundedness_constant(self):
        csr = CSR("n1", {"Fever": "patient febrile", "Aspirin": "took aspirin"})
        labels = {"Fever": "Fever", "Aspirin": "Aspirin"}
        nli = _RecordingNli(1.0)
        assert groundedness(nli, "note text", csr, labels) == 1.0

    def test_groundedness_hypothesis_format(self):
        csr = CSR("n1", {"Fever": "patient febrile"})
        nli = _RecordingNli()
        groundedness(nli, "the note", csr, {"Fever": "Fever"})
        assert nli.calls == [("the note", "Fever : patient febrile")]

    def test_groundedness_skips_na_and_errors_when_all_na(self):
        nli = _RecordingNli(0.9)
        csr = CSR("n1", {"A": "N/A", "B": "value"})
        assert groundedness(nli, "note", csr, {"A": "a", "B": "b"}) == 0.9
        assert len(nli.calls) == 1
        with pytest.raises(ValueError, match="N/A"):
            groundedness(nli, "note", CSR("n2", {"A": "N/A"}), {"A": "a"})

    def test_relevance_swaps_roles(self):
        csr = CSR("n1", {"Fever": "patient febrile"})
        nli = _RecordingNli(0.42)
        assert relevance(nli, csr, {"Fever": "Fever"}) == 0.42
        assert nli.calls == [("patient febrile", "Fever")]

    def test_relevance_mean(self):
        class Steps:
            def __init__(self):
                self.values = iter([0.9, 0.7])

            def entail(self, premise, hypothesis):
                return next(self.values)

        csr = CSR("n1", {"A": "va", "B": "vb"})
        assert relevance(Steps(), csr, {"A": "a", "B": "b"}) == pytest.approx(0.8)


class TestReport:
    def test_field_order_and_selection(self):
        report = evaluation_report(hs=0.5, rouge2=0.1, domain_score=None)
        assert list(report) == ["rouge2", "hs", "domain_score"]
        assert report["domain_score"] is None

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown report fields"):
            evaluation_report(bleu=1.0)

