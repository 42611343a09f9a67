import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontodecode.annotator import (
    Lexicon,
    LexiconCollisionError,
    annotate,
    build_lexicon,
    normalize_surface,
)

from conftest import make_ontology

_WORDS = re.compile(r"[^\W_]+")


def brute_force_annotate(entries: dict[str, str], text: str) -> list[tuple[int, int, str]]:
    """Leftmost-longest reference matcher enumerating every candidate span."""
    words = [(m.start(), m.end()) for m in _WORDS.finditer(text)]
    candidates = []
    for i in range(len(words)):
        for j in range(i, len(words)):
            start, end = words[i][0], words[j][1]
            normalized = " ".join(text[start:end].lower().split())
            if normalized in entries:
                candidates.append((start, end, entries[normalized]))
    chosen = []
    position = 0
    while True:
        viable = [c for c in candidates if c[0] >= position]
        if not viable:
            break
        first = min(c[0] for c in viable)
        best = max((c for c in viable if c[0] == first), key=lambda c: c[1])
        chosen.append(best)
        position = best[1]
    return chosen


class TestBuildLexicon:
    def test_label_and_synonym(self, medical_ontology):
        lex = build_lexicon(medical_ontology)
        assert lex.entries["fever"] == "Fever"
        assert lex.entries["pyrexia"] == "Fever"
        assert lex.entries["acetylsalicylic acid"] == "Aspirin"

    def test_collision_lists_both_ids(self):
        onto = make_ontology([
            {"id": "One", "label": "block"},
            {"id": "Two", "label": "Block"},
        ])
        with pytest.raises(LexiconCollisionError) as err:
            build_lexicon(onto)
        assert "One" in str(err.value) and "Two" in str(err.value)

    def test_plural_variant(self):
        onto = make_ontology([{"id": "HA", "label": "heart attack"}])
        lex = build_lexicon(onto)
        assert lex.entries["heart attacks"] == "HA"

    def test_no_double_s(self):
        onto = make_ontology([{"id": "D", "label": "diabetes"}])
        lex = build_lexicon(onto)
        assert "diabetess" not in lex.entries

    def test_extends_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            Lexicon(entries={}, extends={"a"})
        lex = Lexicon(entries={"heart attack": "HA", "heart attacks": "HA", "ας.β": "X"})
        assert lex.extends == {"heart", "ασ"}

    def test_plural_collision_is_error(self):
        onto = make_ontology([
            {"id": "One", "label": "heart attack"},
            {"id": "Two", "label": "heart attacks"},
        ])
        with pytest.raises(LexiconCollisionError):
            build_lexicon(onto)


class TestAnnotate:
    def test_single_match_offsets(self, medical_lexicon):
        anns = annotate(medical_lexicon, "patient has fever")
        assert len(anns) == 1
        ann = anns[0]
        assert (ann.start, ann.end, ann.surface, ann.class_id) == (12, 17, "fever", "Fever")

    def test_empty_text(self, medical_lexicon):
        assert annotate(medical_lexicon, "") == []

    def test_longest_match_wins(self):
        lex = Lexicon(entries={"body temperature": "BT", "temperature": "T"})
        anns = annotate(lex, "body temperature above reference range")
        assert [(a.surface, a.class_id) for a in anns] == [("body temperature", "BT")]

    def test_case_insensitive(self, medical_lexicon):
        anns = annotate(medical_lexicon, "FEVER noted")
        assert anns[0].class_id == "Fever"
        assert anns[0].surface == "FEVER"

    def test_whitespace_collapse(self):
        lex = Lexicon(entries={"heart attack": "HA"})
        text = "prior heart   attack reported"
        anns = annotate(lex, text)
        assert len(anns) == 1
        assert text[anns[0].start:anns[0].end] == "heart   attack"

    def test_word_boundaries(self, medical_lexicon):
        assert annotate(medical_lexicon, "feverish but no feverX") == []

    def test_digits_are_word_chars(self):
        lex = Lexicon(entries={"covid19": "C"})
        assert annotate(lex, "covid19 positive")[0].class_id == "C"
        assert annotate(lex, "covid197") == []

    def test_no_overlap_and_sorted(self, medical_lexicon):
        anns = annotate(medical_lexicon, "fever fever aspirin fever")
        for a, b in zip(anns, anns[1:]):
            assert a.end <= b.start
        assert [a.class_id for a in anns] == ["Fever", "Fever", "Aspirin", "Fever"]

    def test_surface_is_verbatim_slice(self, medical_lexicon):
        text = "Aspirin, then more ASPIRIN"
        for ann in annotate(medical_lexicon, text):
            assert ann.surface == text[ann.start:ann.end]
            assert normalize_surface(ann.surface) in medical_lexicon.entries

    def test_deterministic(self, medical_lexicon):
        text = "fever and aspirin and pyrexia"
        assert annotate(medical_lexicon, text) == annotate(medical_lexicon, text)


# Pieces that hit the corners of lowercasing: "ΑΣ" lowers to "ας" alone but
# to "ασ" before another letter, "İ" lowers to "i" plus a combining dot
# (not a word character), "ʰ" is a letter without case, "_" is a boundary.
_PIECES = ["ab", "cd", "ΑΣ", "Σ", "xİ", "İ", "aʰ", "zz", ",", ".", ":", "-", "(", ")",
           "  ", " ", "\t", "_", "s"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matches_brute_force(data):
    # A small collision-free lexicon of normalized concatenations of pieces;
    # the text joins pieces and the entries' raw sources, so entries occur in it.
    sources = data.draw(st.lists(
        st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join),
        min_size=1, max_size=10))
    entries: dict[str, str] = {}
    for i, source in enumerate(sources):
        if form := normalize_surface(source):
            entries.setdefault(form, f"K{i}")
    text = "".join(data.draw(st.lists(st.sampled_from(_PIECES + sources), max_size=16)))

    lex = Lexicon(entries=entries)
    got = [(a.start, a.end, a.class_id) for a in annotate(lex, text)]
    assert got == brute_force_annotate(entries, text)


@pytest.mark.parametrize("entries, text", [
    # Alone "ΑΣ" lowers to "ας"; the entry continues from "ασ".
    ({"ασ.β": "K"}, "ΑΣ.Β"),
    # "xİ" lowers to "xi\u0307", which ends in a non-word character.
    ({"xi\u0307 zz": "K"}, "xİ zz"),
])
def test_matches_brute_force_where_lowercasing_changes_a_prefix(entries, text):
    got = [(a.start, a.end, a.class_id) for a in annotate(Lexicon(entries=entries), text)]
    assert got == brute_force_annotate(entries, text) == [(0, len(text), "K")]
