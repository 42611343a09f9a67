"""Deterministic lexicon-based concept tagging.

The lexicon is derived from class labels and synonyms; matching is exact
(case-insensitive, whitespace-collapsed) over word-boundary spans with a
leftmost-longest policy. There is no statistical disambiguation: the idea
is that coverage comes from explicit synonym lists, keeping annotation
reproducible bit-for-bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ontology import ClassId, Ontology

# Word characters are letters and digits; underscore is a boundary.
_WORD_RE = re.compile(r"[^\W_]+")


class LexiconCollisionError(ValueError):
    """Two classes produce the same normalized surface form."""


@dataclass(frozen=True)
class Annotation:
    start: int
    end: int
    surface: str
    class_id: ClassId


@dataclass
class Lexicon:
    """Normalized surface form -> class id, plus the longest entry width."""

    entries: dict[str, ClassId]
    max_words: int = field(init=False)

    def __post_init__(self) -> None:
        widths = [_word_count(form) for form in self.entries]
        self.max_words = max(widths, default=0)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, form: str) -> bool:
        return normalize_surface(form) in self.entries


def normalize_surface(surface: str) -> str:
    """Lowercase and collapse whitespace runs to single spaces."""
    return " ".join(surface.lower().split())


def _word_count(form: str) -> int:
    return len(_WORD_RE.findall(form))


def build_lexicon(ontology: Ontology) -> Lexicon:
    """Derive the matching lexicon from labels and synonyms.

    Every label and synonym becomes an entry. A plural variant (trailing
    "s" on the final token) is added for forms that do not already end in
    "s". Two classes mapping to one surface form is an error.
    """
    entries: dict[str, ClassId] = {}

    def add(form: str, class_id: ClassId) -> None:
        normalized = normalize_surface(form)
        if not normalized:
            return
        existing = entries.get(normalized)
        if existing is not None and existing != class_id:
            raise LexiconCollisionError(
                f"surface form {normalized!r} maps to both {existing!r} and {class_id!r}"
            )
        entries[normalized] = class_id

    forms: list[tuple[str, ClassId]] = []
    for cls in ontology.classes.values():
        forms.append((cls.label, cls.id))
        for synonym in cls.synonyms:
            forms.append((synonym, cls.id))

    for form, class_id in forms:
        add(form, class_id)
    for form, class_id in forms:
        normalized = normalize_surface(form)
        if normalized and not normalized.endswith("s"):
            add(normalized + "s", class_id)

    return Lexicon(entries=entries)


def annotate(lexicon: Lexicon, text: str) -> list[Annotation]:
    """Tag lexicon concepts in ``text``, leftmost-longest, non-overlapping.

    Candidate spans start and end on word boundaries; the span's
    normalized surface must be a lexicon entry. Output is ordered by
    start offset.
    """
    if not text or not lexicon.entries:
        return []

    words = [(m.start(), m.end()) for m in _WORD_RE.finditer(text)]
    annotations: list[Annotation] = []
    i = 0
    while i < len(words):
        matched = False
        last = min(i + lexicon.max_words - 1, len(words) - 1) if lexicon.max_words else -1
        for j in range(last, i - 1, -1):
            start, end = words[i][0], words[j][1]
            class_id = lexicon.entries.get(normalize_surface(text[start:end]))
            if class_id is not None:
                annotations.append(
                    Annotation(start=start, end=end, surface=text[start:end], class_id=class_id)
                )
                i = j + 1
                matched = True
                break
        if not matched:
            i += 1
    return annotations
