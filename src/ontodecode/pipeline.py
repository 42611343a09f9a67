"""End-to-end orchestration: domain analysis, extraction, pruning, verbalizing.

A domain is characterized by a Domain-Class-Frequency map (DCF) built from
a corpus of that domain's documents: per document, classes tagged at least
``min_occ`` times are kept, closed over their ancestors, and counted.
Normalizing each DCF against the cross-domain average dampens ubiquitous
general classes so the map ranks what is *distinctive* for the domain.

Extraction asks the language model one focused question per concept found
in a note, yielding a class-structured representation (CSR); pruning then
filters a CSR down to the top-k DCF classes (each expanded ``alpha`` hops
down the hierarchy), and a final decode pass verbalizes the surviving
entries into free text.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .annotator import Lexicon, annotate
from .decoder import DecodeConfig, decode
from .lm import LmContract, check_count, is_finite_number, is_integer
from .metrics import NOT_EXTRACTED
from .ontology import ClassId, Ontology

DCF_AVERAGE_EPSILON = 1e-9
CSR_SEPARATOR = "=========="


class PartialCsrError(RuntimeError):
    """Extraction aborted mid-note; carries the entries completed so far."""

    def __init__(self, note_id: str, entries: dict[ClassId, str], cause: Exception):
        super().__init__(f"extraction failed for note {note_id!r}: {cause}")
        self.note_id = note_id
        self.entries = entries
        self.cause = cause


_KINDS = {str: "a string", list: "an array", dict: "an object"}


def _field(obj: object, key: str, kind: type, owner: str):
    """``obj[key]`` if ``obj`` is a JSON object and the value is of ``kind``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"{owner} {key!r} must be {_KINDS[kind]}")
    return value


@dataclass
class DCF:
    """Per-domain class-to-frequency map.

    ``freq`` is filled in an order that follows set iteration, and so the
    interpreter's hash seed; ``to_dict`` lists classes in id order, so the
    serialized bytes do not depend on it.
    """

    domain: str
    freq: dict[ClassId, float]

    def to_dict(self) -> dict:
        return {"domain": self.domain, "freq": dict(sorted(self.freq.items()))}

    @classmethod
    def from_dict(cls, data: dict) -> "DCF":
        domain, freq = _field(data, "domain", str, "DCF"), _field(data, "freq", dict, "DCF")
        if not all(isinstance(c, str) and is_finite_number(v) for c, v in freq.items()):
            raise ValueError("DCF 'freq' must map class ids to finite numbers")
        return cls(domain=domain, freq={c: float(v) for c, v in freq.items()})


@dataclass
class CSR:
    """Ordered map from detected ontology classes to extracted values."""

    note_id: str
    entries: dict[ClassId, str]

    def to_dict(self, onto: Ontology) -> dict:
        return {
            "note_id": self.note_id,
            "entries": [
                {"class": class_id, "label": onto.label(class_id), "value": value}
                for class_id, value in self.entries.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CSR":
        note_id = _field(data, "note_id", str, "CSR")
        entries: dict[ClassId, str] = {}
        for entry in _field(data, "entries", list, "CSR"):
            class_id = _field(entry, "class", str, "CSR entry")
            if class_id in entries:
                raise ValueError(f"CSR class {class_id!r} is listed twice")
            entries[class_id] = _field(entry, "value", str, "CSR entry")
        return cls(note_id=note_id, entries=entries)


@dataclass
class DomainSpec:
    name: str
    corpus: list[str]


def check_dcf_options(min_occ: int, count: str) -> None:
    """Raise ``ValueError`` unless ``build_dcf`` accepts ``min_occ`` and ``count``."""
    check_count("min_occ", min_occ)
    if count not in ("documents", "occurrences"):
        raise ValueError(f"count must be 'documents' or 'occurrences', got {count!r}")


def build_dcf(onto: Ontology, lex: Lexicon, domain: DomainSpec,
              min_occ: int = 1, count: str = "documents") -> DCF:
    """Build the raw DCF for one domain.

    ``count="documents"`` (default) counts, for every class, the number of
    corpus documents whose ancestor-closed concept set contains it;
    ``count="occurrences"`` sums tag counts instead, ancestors inheriting
    the counts of their tagged descendants.
    """
    check_dcf_options(min_occ, count)
    if not domain.corpus:
        raise ValueError(f"domain {domain.name!r} has an empty corpus")

    counts: Counter[ClassId] = Counter()
    for doc in domain.corpus:
        tag_counts = Counter(a.class_id for a in annotate(lex, doc))
        kept = {c: n for c, n in tag_counts.items() if n >= min_occ}
        if count == "documents":
            counts.update(onto.closure(kept))
        else:
            for class_id, n in kept.items():
                counts[class_id] += n
                for ancestor in onto.ancestors(class_id):
                    counts[ancestor] += n
    return DCF(domain=domain.name, freq={c: float(n) for c, n in counts.items()})


def average_dcf(raw: list[DCF]) -> DCF:
    """Mean frequency per class across domains, absent classes counting 0."""
    if not raw:
        raise ValueError("at least one DCF required")
    all_classes: set[ClassId] = set()
    for dcf in raw:
        all_classes.update(dcf.freq)
    freq = {
        class_id: math.fsum(dcf.freq.get(class_id, 0.0) for dcf in raw) / len(raw)
        for class_id in sorted(all_classes)
    }
    return DCF(domain="average", freq=freq)


def normalize_dcf(raw: list[DCF]) -> list[DCF]:
    """Divide every frequency by the cross-domain average for that class."""
    if len(raw) < 2:
        raise ValueError(f"normalization requires at least 2 domains, got {len(raw)}")
    avg = average_dcf(raw).freq
    return [
        DCF(domain=dcf.domain,
            freq={c: v / (avg[c] + DCF_AVERAGE_EPSILON) for c, v in dcf.freq.items()})
        for dcf in raw
    ]


def build_prompt(onto: Ontology, concept: ClassId, note: str) -> str:
    """Render the per-concept extraction prompt for a note."""
    label = onto.label(concept)
    characterization = onto.verbalize_restrictions(concept)
    prompt = (
        f"Here is a clinical note about a patient : {note}. "
        f'In a short sentence, summarize everything related to the "{label}" '
        f"concept mentioned in the clinical note. "
    )
    if characterization:
        prompt += f'"{label}" is characterized by {characterization}. '
    prompt += 'If nothing is mentioned, answer with "N/A"'
    return prompt


def extract_csr(lm: LmContract, onto: Ontology, lex: Lexicon,
                note: tuple[str, str], cfg: DecodeConfig,
                concepts: set[ClassId] | None = None) -> CSR:
    """Build a note's CSR: one constrained decode per detected concept.

    Classes are visited in first-mention order. A language-model failure
    raises ``PartialCsrError`` carrying the entries finished so far.
    """
    note_id, text = note
    if not text:
        raise ValueError(f"note {note_id!r} has empty text")

    ordered = list(dict.fromkeys(a.class_id for a in annotate(lex, text)))
    if concepts is not None:
        ordered = [c for c in ordered if c in concepts]

    entries: dict[ClassId, str] = {}
    for class_id in ordered:
        prompt = build_prompt(onto, class_id, text)
        try:
            result = decode(lm, prompt, onto, lex, class_id, text, cfg)
        except (RuntimeError, ValueError) as exc:
            raise PartialCsrError(note_id, dict(entries), exc) from exc
        entries[class_id] = result.text if result.text else NOT_EXTRACTED
    return CSR(note_id=note_id, entries=entries)


def check_prune_options(k: int, alpha: int) -> None:
    """Raise ``ValueError`` unless ``prune_csr`` accepts ``k`` and ``alpha``."""
    check_count("k", k)
    check_count("alpha", alpha, low=0)


def prune_csr(csr: CSR, dcf: DCF, onto: Ontology, k: int, alpha: int) -> CSR:
    """Keep only CSR entries near the domain's top-k classes.

    The keep-set is the k highest-frequency DCF classes (ties broken by
    class id) plus everything within ``alpha`` hops below them.
    """
    check_prune_options(k, alpha)
    # Only a class at or above the k-th highest frequency can rank in the
    # top k, so the (-freq, class id) sort runs over those few alone. An
    # empty DCF has no k-th value, and no class to compare with one.
    largest = heapq.nlargest(k, dcf.freq.values())
    floor = largest[-1] if largest else None
    top = [c for _, c in sorted([(-f, c) for c, f in dcf.freq.items() if f >= floor])[:k]]
    keep = set(top)
    for class_id in top:
        if class_id in onto:
            keep |= onto.descendants_within(class_id, alpha)
    return CSR(
        note_id=csr.note_id,
        entries={c: v for c, v in csr.entries.items() if c in keep},
    )


def render_csr(csr: CSR, onto: Ontology) -> str:
    """Key-value lines for one CSR; entries with no extracted value are skipped."""
    return "\n".join(
        f"{onto.label(class_id)} : {value}"
        for class_id, value in csr.entries.items()
        if value != NOT_EXTRACTED
    )


def verbalize(lm: LmContract, onto: Ontology, lex: Lexicon, csrs: list[CSR],
              task_instruction: str, cfg: DecodeConfig) -> str:
    """Turn CSRs into free text with one final decode pass.

    The rendered blocks double as the similarity reference; with no base
    class the hierarchy and property scores stay 0.
    """
    if not csrs:
        raise ValueError("verbalize requires at least one CSR")
    rendered = f"\n{CSR_SEPARATOR}\n".join(render_csr(csr, onto) for csr in csrs)
    prompt = rendered + "\n" + task_instruction
    result = decode(lm, prompt, onto, lex, None, rendered, cfg)
    return result.text


# --------------------------------------------------------------------------
# Corpus interchange (JSON-lines; one object per note)
# --------------------------------------------------------------------------


@dataclass
class Note:
    id: str
    text: str
    domain: str | None = None


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; any other bytes raise ``ValueError`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def read_corpus(path: str | Path) -> list[Note]:
    """Read a JSONL corpus of {"id", "domain", "text"} objects."""
    notes: list[Note] = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        if "id" not in obj or "text" not in obj:
            raise ValueError(f"{path}:{lineno}: note object needs 'id' and 'text'")
        note_id, text, domain = obj["id"], obj["text"], obj.get("domain")
        if not (isinstance(note_id, str) or is_integer(note_id)):
            raise ValueError(f"{path}:{lineno}: 'id' must be a string or an integer")
        if not isinstance(text, str):
            raise ValueError(f"{path}:{lineno}: 'text' must be a string")
        if not (domain is None or isinstance(domain, str)):
            raise ValueError(f"{path}:{lineno}: 'domain' must be a string or null")
        notes.append(Note(id=str(note_id), text=text, domain=domain))
    return notes
