"""Scoring summaries: ROUGE, hallucination rates, and pluggable evaluators.

Hallucination scores compare concept sets tagged by the same annotator
used everywhere else. The classifier and entailment models are
integration points that the package does not ship; the two toy stand-ins
below make the maths observable without any trained weights.
"""

import re

from ontodecode import (
    CSR,
    Ontology,
    adjusted_hallucination_score,
    annotate,
    build_lexicon,
    domain_score,
    evaluation_report,
    groundedness,
    hallucination_score,
    relevance,
    rouge1,
    rouge2,
    rouge_lsum,
)


def words(text):
    return re.findall(r"[^\W_]+", text.lower())


class KeywordClassifier:
    """Toy domain classifier: the share of each domain's keywords in the text."""

    def __init__(self, keywords):
        self.domains, self.keywords = list(keywords), keywords

    def score(self, text):
        present = set(words(text))
        return {d: sum(k in present for k in kws) / len(kws)
                for d, kws in self.keywords.items()}


class WordOverlapNli:
    """Toy entailment model: the share of hypothesis words found in the premise."""

    def entail(self, premise, hypothesis):
        hypothesis, premise = words(hypothesis), set(words(premise))
        return sum(w in premise for w in hypothesis) / len(hypothesis) if hypothesis else 0.0


onto = Ontology.from_dict({"classes": [
    {"id": "Fever", "label": "fever"},
    {"id": "Aspirin", "label": "aspirin"},
    {"id": "Echo", "label": "echocardiogram"},
    {"id": "Migraine", "label": "migraine"},
]})
lexicon = build_lexicon(onto)

notes = "patient has fever, echocardiogram done, aspirin started"
summary = "fever treated with aspirin; migraine suspected"
reference = "fever managed, migraine workup pending"

tags = lambda text: {a.class_id for a in annotate(lexicon, text)}
S, N, R = tags(summary), tags(notes), tags(reference)
print("summary concepts  :", sorted(S))
print("note concepts     :", sorted(N))
print("reference concepts:", sorted(R))
print("HS  =", hallucination_score(S, N), " (migraine is unsupported)")
print("AHS =", adjusted_hallucination_score(S, N, R), " (the reference excuses it)")

print("\nROUGE of summary vs reference:")
print("  rouge1 =", round(rouge1(summary, reference), 4))
print("  rouge2 =", round(rouge2(summary, reference), 4))
print("  rougeLsum =", round(rouge_lsum(summary, reference), 4))

classifier = KeywordClassifier({
    "cardio": ["echocardiogram", "heart"],
    "neuro": ["migraine", "headache"],
})
d = domain_score(classifier, [(summary, "neuro")])
print("\ndomain score of the summary for 'neuro':", d)

nli = WordOverlapNli()
csr = CSR("note-1", {"Fever": "patient has fever", "Aspirin": "aspirin started"})
labels = {c: onto.label(c) for c in csr.entries}
print("groundedness:", round(groundedness(nli, notes, csr, labels), 4))
print("relevance   :", round(relevance(nli, csr, labels), 4))

report = evaluation_report(
    rouge1=rouge1(summary, reference),
    rouge2=rouge2(summary, reference),
    rougeLsum=rouge_lsum(summary, reference),
    hs=hallucination_score(S, N),
    ahs=adjusted_hallucination_score(S, N, R),
    domain_score=d,
    groundedness=groundedness(nli, notes, csr, labels),
    relevance=relevance(nli, csr, labels),
)
print("\nevaluation report:")
for key, value in report.items():
    print(f"  {key:<12} = {value}")
