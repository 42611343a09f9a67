"""Scoring: ROUGE, hallucination rates, domain score, entailment wrappers.

ROUGE here is deliberately minimal: lowercase alphanumeric tokens, no
stemming, no stopword lists, so results are identical across platforms.
Classifier and entailment models are integration points described by the
protocols below; the bundled implementations are deterministic stand-ins
for tests, not trained evaluators.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .ontology import ClassId

if TYPE_CHECKING:
    from .pipeline import CSR

_TOKEN_RE = re.compile(r"[^\W_]+")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?\n]+")

REPORT_FIELDS = (
    "rouge1",
    "rouge2",
    "rougeLsum",
    "hs",
    "ahs",
    "domain_score",
    "groundedness",
    "relevance",
)

NOT_EXTRACTED = "N/A"


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def ngram_counts(text: str, n: int) -> Counter[tuple[str, ...]]:
    """Counts of the token n-grams of ``text``; empty with fewer than n tokens."""
    tokens = _tokens(text)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(candidate: Counter, reference: Counter) -> int:
    return sum(min(count, reference[gram]) for gram, count in candidate.items())


def overlap_f1(candidate: Counter, reference: Counter) -> float:
    """Clipped n-gram-overlap F1 of two counts; 0 if either is empty."""
    overlap = _overlap(candidate, reference)
    if overlap == 0:
        return 0.0
    precision = overlap / candidate.total()
    recall = overlap / reference.total()
    return 2 * precision * recall / (precision + recall)


def rouge2(candidate: str, reference: str) -> float:
    """Clipped bigram-overlap F1 in [0, 1]; 0 if either side has < 2 tokens."""
    return overlap_f1(ngram_counts(candidate, 2), ngram_counts(reference, 2))


def rouge1(candidate: str, reference: str) -> float:
    """Unigram-overlap F1 companion to :func:`rouge2`."""
    return overlap_f1(ngram_counts(candidate, 1), ngram_counts(reference, 1))


def _lcs_match_positions(reference: Sequence[str], candidate: Sequence[str]) -> set[int]:
    # Positions in `reference` that take part in one LCS with `candidate`.
    rows, cols = len(reference), len(candidate)
    if rows == 0 or cols == 0:
        return set()
    table = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if reference[i - 1] == candidate[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    matched: set[int] = set()
    i, j = rows, cols
    while i > 0 and j > 0:
        if reference[i - 1] == candidate[j - 1]:
            matched.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return matched


def rouge_lsum(candidate: str, reference: str) -> float:
    """Summary-level LCS F1: union-LCS per reference sentence."""
    cand_sents = [_tokens(s) for s in _SENTENCE_SPLIT_RE.split(candidate)]
    ref_sents = [_tokens(s) for s in _SENTENCE_SPLIT_RE.split(reference)]
    cand_sents = [s for s in cand_sents if s]
    ref_sents = [s for s in ref_sents if s]
    total_cand = sum(len(s) for s in cand_sents)
    total_ref = sum(len(s) for s in ref_sents)
    if total_cand == 0 or total_ref == 0:
        return 0.0
    hits = 0
    for ref_sent in ref_sents:
        union: set[int] = set()
        for cand_sent in cand_sents:
            union |= _lcs_match_positions(ref_sent, cand_sent)
        hits += len(union)
    if hits == 0:
        return 0.0
    precision = hits / total_cand
    recall = hits / total_ref
    return 2 * precision * recall / (precision + recall)


def hallucination_score(
    summary_concepts: set[ClassId], note_concepts: set[ClassId]
) -> float:
    """Fraction of summary concepts absent from the source notes."""
    if not summary_concepts:
        raise ValueError("hallucination score undefined for an empty summary concept set")
    return len(summary_concepts - note_concepts) / len(summary_concepts)


def adjusted_hallucination_score(
    summary_concepts: set[ClassId],
    note_concepts: set[ClassId],
    reference_concepts: set[ClassId],
) -> float:
    """Like :func:`hallucination_score` but forgiving concepts from the reference."""
    return hallucination_score(summary_concepts, note_concepts | reference_concepts)


class ClassifierContract(Protocol):
    """Text classifier over a fixed set of domain labels."""

    domains: Sequence[str]

    def score(self, text: str) -> Mapping[str, float]: ...


class EntailmentContract(Protocol):
    """Premise/hypothesis entailment scorer returning a probability."""

    def entail(self, premise: str, hypothesis: str) -> float: ...


def domain_score(
    classifier: ClassifierContract, pairs: Sequence[tuple[str, str]]
) -> float:
    """Mean classifier score of the expected domain over (text, domain) pairs."""
    if not pairs:
        raise ValueError("domain_score requires at least one (summary, domain) pair")
    known = set(classifier.domains)
    total = 0.0
    for text, expected in pairs:
        if expected not in known:
            raise ValueError(f"unknown domain label {expected!r}; known: {sorted(known)}")
        total += classifier.score(text)[expected]
    return total / len(pairs)


def groundedness(
    nli: EntailmentContract,
    note: str,
    csr: "CSR",
    labels: Mapping[ClassId, str],
) -> float:
    """Mean entailment of "[label] : [value]" hypotheses against the note."""
    return _mean_over_extracted(
        "groundedness", csr,
        lambda class_id, value: nli.entail(note, f"{labels[class_id]} : {value}"))


def relevance(
    nli: EntailmentContract,
    csr: "CSR",
    labels: Mapping[ClassId, str],
) -> float:
    """Mean entailment of concept labels against their extracted values."""
    return _mean_over_extracted(
        "relevance", csr, lambda class_id, value: nli.entail(value, labels[class_id]))


def _mean_over_extracted(name: str, csr: "CSR",
                         score: Callable[[ClassId, str], float]) -> float:
    """Mean of ``score(class_id, value)`` over the entries that are not N/A."""
    scores = [score(class_id, value) for class_id, value in csr.entries.items()
              if value != NOT_EXTRACTED]
    if not scores:
        raise ValueError(f"{name} undefined: every entry is N/A")
    return sum(scores) / len(scores)


def evaluation_report(**scores: float | None) -> dict[str, float | None]:
    """Assemble a report dict in the canonical field order.

    Only fields passed by the caller appear; unknown names are rejected.
    """
    unknown = set(scores) - set(REPORT_FIELDS)
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    return {name: scores[name] for name in REPORT_FIELDS if name in scores}


class KeywordOverlapClassifier:
    """Keyword-hit classifier: test plumbing, not a trained evaluator.

    Each domain is described by a keyword list; the score for a domain is
    the fraction of its keywords present in the text's token set.
    """

    def __init__(self, keywords: Mapping[str, Sequence[str]]):
        if not keywords:
            raise ValueError("at least one domain required")
        self.domains = list(keywords)
        self._keywords = {
            domain: [normalized for kw in kws for normalized in [" ".join(_tokens(kw))] if normalized]
            for domain, kws in keywords.items()
        }

    def score(self, text: str) -> dict[str, float]:
        padded = " " + " ".join(_tokens(text)) + " "
        result: dict[str, float] = {}
        for domain in self.domains:
            kws = self._keywords[domain]
            if not kws:
                result[domain] = 0.0
                continue
            hits = sum(1 for kw in kws if f" {kw} " in padded)
            result[domain] = hits / len(kws)
        return result


class BigramOverlapEntailment:
    """Bigram-recall entailment stub: test plumbing, not an NLI model.

    Scores the fraction of hypothesis bigrams present in the premise,
    falling back to unigrams for one-token hypotheses.
    """

    def entail(self, premise: str, hypothesis: str) -> float:
        hyp, prem = ngram_counts(hypothesis, 2), ngram_counts(premise, 2)
        if not (hyp and prem):
            hyp, prem = ngram_counts(hypothesis, 1), ngram_counts(premise, 1)
        if not (hyp and prem):
            return 0.0
        return _overlap(hyp, prem) / hyp.total()
