"""Deterministic lexicon-based concept tagging.

The lexicon is derived from class labels and synonyms; matching is exact
(case-insensitive, whitespace-collapsed) over word-boundary spans with a
leftmost-longest policy. There is no statistical disambiguation: the idea
is that coverage comes from explicit synonym lists, keeping annotation
reproducible bit-for-bit.

A span is grown one word at a time and stops as soon as it can no longer
become a longer entry, so tagging costs about one lookup per word. Two
facts of ``str.lower`` make that test subtle. It is context-sensitive for
``Σ`` alone: ``"ΑΣ"`` lowers to ``"ας"`` but ``"ΑΣ.Β"`` to ``"ασ.β"``, so
the test keys ``ς`` and ``σ`` alike. And ``İ`` lowers to ``"i̇"``, whose
combining dot is not a word character, so an entry can continue at a
point that is not a word end; every non-word character of an entry marks
such a point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ontology import ClassId, Ontology

# Word characters are letters and digits; underscore is a boundary.
_WORD_RE = re.compile(r"[^\W_]+")
_NON_WORD_RE = re.compile(r"[\W_]")


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
    """Normalized surface form -> class id, plus the forms a match can grow from.

    ``extends`` holds every non-empty prefix of an entry that ends just
    before a non-word character, with ``ς`` keyed as ``σ``. A span whose
    normalized form is not in it cannot grow into a longer entry.
    """

    entries: dict[str, ClassId]
    extends: set[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.extends = _growable_prefixes(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def normalize_surface(surface: str) -> str:
    """Lowercase and collapse whitespace runs to single spaces."""
    return " ".join(surface.lower().split())


def _growable_prefixes(entries: dict[str, ClassId]) -> set[str]:
    prefixes: set[str] = set()
    add = prefixes.add
    for form in entries:
        if form[-1:] == "s" and form[:-1] in entries:
            continue  # a plural: the same prefixes as its stem
        form = form.replace("ς", "σ")
        if form.replace(" ", "").isalnum():
            # Spaces are the only non-word characters: cut there, without the regex.
            end = form.rfind(" ")
            while end > 0:
                add(form[:end])
                end = form.rfind(" ", 0, end)
        else:
            for match in _NON_WORD_RE.finditer(form, 1):
                add(form[:match.start()])
    return prefixes


def build_lexicon(ontology: Ontology) -> Lexicon:
    """Derive the matching lexicon from labels and synonyms.

    Every label and synonym becomes an entry. A plural variant (trailing
    "s" on the final token) is added for forms that do not already end in
    "s". Two classes mapping to one surface form is an error.
    """
    entries: dict[str, ClassId] = {}

    def add(form: str, class_id: ClassId) -> None:
        existing = entries.get(form)
        if existing is not None and existing != class_id:
            raise LexiconCollisionError(
                f"surface form {form!r} maps to both {existing!r} and {class_id!r}"
            )
        entries[form] = class_id

    forms = [(normalized, cls.id)
             for cls in ontology.classes.values()
             for form in (cls.label, *cls.synonyms)
             if (normalized := normalize_surface(form))]
    for form, class_id in forms:
        add(form, class_id)
    for form, class_id in forms:
        if not form.endswith("s"):
            add(form + "s", class_id)

    return Lexicon(entries=entries)


def annotate(lexicon: Lexicon, text: str) -> list[Annotation]:
    """Tag lexicon concepts in ``text``, leftmost-longest, non-overlapping.

    Candidate spans start and end on word boundaries; the span's
    normalized surface must be a lexicon entry. Output is ordered by
    start offset.
    """
    if not text or not lexicon.entries:
        return []

    entries, extends = lexicon.entries, lexicon.extends
    spans = [m.span() for m in _WORD_RE.finditer(text)]
    annotations: list[Annotation] = []
    i, n = 0, len(spans)
    while i < n:
        start, end = spans[i]
        form = text[start:end].lower()  # a word lowers to no whitespace
        hit = None
        j = i
        while True:
            class_id = entries.get(form)
            if class_id is not None:
                hit = j, end, class_id
            j += 1
            if j == n or form.replace("ς", "σ") not in extends:
                break
            end = spans[j][1]
            form = normalize_surface(text[start:end])
        if hit is None:
            i += 1
            continue
        last, end, class_id = hit
        annotations.append(
            Annotation(start=start, end=end, surface=text[start:end], class_id=class_id)
        )
        i = last + 1
    return annotations
