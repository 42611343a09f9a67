import heapq
import random
import re
import sys
from collections import Counter

import pytest

from ontodecode.annotator import annotate, build_lexicon
from ontodecode.decoder import DecodeConfig
from ontodecode.lm import LmUnavailableError
from ontodecode.metrics import NOT_EXTRACTED
from ontodecode.pipeline import (
    CSR,
    DCF,
    DCF_AVERAGE_EPSILON,
    DomainSpec,
    PartialCsrError,
    average_dcf,
    build_dcf,
    build_prompt,
    extract_csr,
    normalize_dcf,
    prune_csr,
    read_corpus,
    render_csr,
    verbalize,
)

from conftest import ConstantLm, bad_counts, count_error, make_ontology, random_dag


def small_cfg(**overrides) -> DecodeConfig:
    base = dict(beam_size=2, num_groups=1, diversity_penalty=0.0, window=4,
                h_bf=3.0, p_bf=10.0, s_bf=10.0, max_tokens=6)
    base.update(overrides)
    return DecodeConfig(**base)


def constant_lm_for(onto, lex, note_texts: list[str], reply: str,
                    extra: str = "") -> ConstantLm:
    """A fixed-reply backend whose vocabulary covers every prompt it will see."""
    words: list[str] = []
    for text in note_texts:
        for ann in annotate(lex, text):
            words += build_prompt(onto, ann.class_id, text).split()
    words += extra.split()
    return ConstantLm(words, reply)


class RecordingLm(ConstantLm):
    """ConstantLm that keeps every text handed to tokenize."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[str] = []

    def tokenize(self, text):
        self.seen.append(text)
        return super().tokenize(text)


def per_class_dcf(onto, lex, corpus: list[str], min_occ: int) -> dict[str, float]:
    """Reference document counts: one ``ancestors`` walk per kept class."""
    freq: dict[str, float] = {}
    for doc in corpus:
        tag_counts = Counter(a.class_id for a in annotate(lex, doc))
        kept = {c: n for c, n in tag_counts.items() if n >= min_occ}
        augmented = set(kept)
        for class_id in kept:
            augmented |= onto.ancestors(class_id)
        for class_id in augmented:
            freq[class_id] = freq.get(class_id, 0.0) + 1.0
    return freq


class TestBuildDcf:
    @pytest.mark.parametrize("min_occ", [1, 2, 3])
    def test_document_counts_equal_the_per_class_walks(self, medical_ontology,
                                                       medical_lexicon, min_occ):
        corpus = ["fever and aspirin, fever again", "pyrexia pyrexia fever aspirin",
                  "body temperature above reference range", "nothing here",
                  "aspirin aspirin aspirin and acetylsalicylic acid"]
        dcf = build_dcf(medical_ontology, medical_lexicon, DomainSpec("d", corpus),
                        min_occ=min_occ)
        assert dcf.freq == per_class_dcf(medical_ontology, medical_lexicon, corpus, min_occ)

    @pytest.mark.parametrize("min_occ", [1, 2, 3])
    def test_document_counts_equal_the_per_class_walks_on_random_dags(self, min_occ):
        rng = random.Random(min_occ)
        for _ in range(10):
            onto = random_dag(rng, max_nodes=30)
            lex = build_lexicon(onto)
            labels = [cls.label for cls in onto.classes.values()]
            corpus = [" and ".join(rng.choices(labels, k=rng.randint(0, 12)))
                      for _ in range(rng.randint(1, 6))]
            dcf = build_dcf(onto, lex, DomainSpec("d", corpus), min_occ=min_occ)
            assert dcf.freq == per_class_dcf(onto, lex, corpus, min_occ)

    def test_document_frequency_with_ancestors(self):
        onto = make_ontology([
            {"id": "Drug", "label": "drug"},
            {"id": "Aspirin", "label": "aspirin", "parents": ["Drug"]},
        ])
        lex = build_lexicon(onto)
        spec = DomainSpec("meds", ["aspirin then aspirin again",
                                   "aspirin aspirin aspirin"])
        dcf = build_dcf(onto, lex, spec, min_occ=2)
        assert dcf.freq == {"Aspirin": 2.0, "Drug": 2.0}

    def test_threshold_filters(self, medical_ontology, medical_lexicon):
        spec = DomainSpec("d", ["fever noted once"])
        dcf = build_dcf(medical_ontology, medical_lexicon, spec, min_occ=2)
        assert "Fever" not in dcf.freq

    def test_no_matches(self, medical_ontology, medical_lexicon):
        dcf = build_dcf(medical_ontology, medical_lexicon,
                        DomainSpec("d", ["nothing relevant here"]))
        assert dcf.freq == {}

    def test_occurrence_mode_sums_counts(self):
        onto = make_ontology([
            {"id": "Drug", "label": "drug"},
            {"id": "Aspirin", "label": "aspirin", "parents": ["Drug"]},
        ])
        lex = build_lexicon(onto)
        spec = DomainSpec("meds", ["aspirin and aspirin"])
        dcf = build_dcf(onto, lex, spec, count="occurrences")
        assert dcf.freq == {"Aspirin": 2.0, "Drug": 2.0}

    def test_ancestor_closure_within_document(self, medical_ontology, medical_lexicon):
        spec = DomainSpec("d", ["patient on aspirin"])
        dcf = build_dcf(medical_ontology, medical_lexicon, spec)
        assert {"Aspirin", "Drug", "Root"} <= set(dcf.freq)

    def test_empty_corpus(self, medical_ontology, medical_lexicon):
        with pytest.raises(ValueError, match="empty corpus"):
            build_dcf(medical_ontology, medical_lexicon, DomainSpec("d", []))

    def test_bad_args(self, medical_ontology, medical_lexicon):
        spec = DomainSpec("d", ["x"])
        with pytest.raises(ValueError):
            build_dcf(medical_ontology, medical_lexicon, spec, min_occ=0)
        with pytest.raises(ValueError):
            build_dcf(medical_ontology, medical_lexicon, spec, count="tokens")


class TestNormalizeDcf:
    def test_ratio_to_average(self):
        a = DCF("A", {"X": 4.0})
        b = DCF("B", {"Y": 1.0})
        normalized = normalize_dcf([a, b])
        assert normalized[0].freq["X"] == pytest.approx(2.0)
        # X is absent from B and stays absent.
        assert "X" not in normalized[1].freq

    def test_identical_frequencies_normalize_to_one(self):
        a = DCF("A", {"X": 3.0})
        b = DCF("B", {"X": 3.0})
        for dcf in normalize_dcf([a, b]):
            assert dcf.freq["X"] == pytest.approx(1.0)

    def test_single_domain_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize_dcf([DCF("A", {"X": 1.0})])

    def test_average(self):
        avg = average_dcf([DCF("A", {"X": 4.0}), DCF("B", {"X": 2.0, "Y": 2.0})])
        assert avg.domain == "average"
        assert avg.freq == {"X": 3.0, "Y": 1.0}

    def test_pruning_order_comes_from_the_epsilon(self):
        """Characterizes today's order, which ``DCF_AVERAGE_EPSILON`` decides.

        A class seen in one domain of n normalizes to n less a term of the
        epsilon's order, whatever its raw count, so such classes rank above
        every class other domains also hold, and among themselves only the
        epsilon term orders them (here by raw count). Replacing the epsilon
        with an explicit ranking must change this test on purpose.
        """
        d0, d1, d2 = normalize_dcf([DCF("d0", {"X": 8.0, "Y": 2.0, "Z": 16.0}),
                                    DCF("d1", {"Z": 12.0}), DCF("d2", {"Z": 13.0})])
        assert DCF_AVERAGE_EPSILON == 1e-9
        assert d0.freq["X"] == pytest.approx(2.999999998875, rel=0, abs=1e-15)
        assert d0.freq["Y"] == pytest.approx(2.9999999955, rel=0, abs=1e-15)
        assert d0.freq["Z"] == pytest.approx(1.17, rel=0, abs=0.001)
        assert 0 < d0.freq["X"] - d0.freq["Y"] < 1e-8

        onto = make_ontology([{"id": c, "label": c.lower()} for c in "XYZ"])
        csr = CSR("n", {"Z": "z", "Y": "y", "X": "x"})
        # The most frequent class, Z, is the one that goes.
        assert list(prune_csr(csr, d0, onto, k=2, alpha=0).entries) == ["Y", "X"]
        assert list(prune_csr(csr, d0, onto, k=1, alpha=0).entries) == ["X"]


class TestBuildPrompt:
    def test_full_template(self, medical_ontology):
        note = "temp 39.2 this morning"
        prompt = build_prompt(medical_ontology, "Fever", note)
        assert prompt == (
            "Here is a clinical note about a patient : temp 39.2 this morning. "
            'In a short sentence, summarize everything related to the "fever" '
            "concept mentioned in the clinical note. "
            '"fever" is characterized by body temperature above reference range. '
            'If nothing is mentioned, answer with "N/A"'
        )

    def test_note_is_verbatim(self, medical_ontology):
        note = "Exact   spacing\tand SYMBOLS %$ preserved"
        assert note in build_prompt(medical_ontology, "Fever", note)

    def test_no_restrictions_drops_characterization(self, medical_ontology):
        prompt = build_prompt(medical_ontology, "Aspirin", "note")
        assert "characterized by" not in prompt
        assert prompt.endswith(
            'concept mentioned in the clinical note. '
            'If nothing is mentioned, answer with "N/A"'
        )

    def test_multiple_restriction_characterization(self):
        onto = make_ontology([
            {"id": "EvalAction", "label": "Evaluation - action"},
            {"id": "HeartStructure", "label": "Heart Structure"},
            {"id": "EcgDevice", "label": "Electrocardiographic monitor and recorder, device"},
            {"id": "Ecg", "label": "electrocardiogram", "restrictions": [
                {"kind": "and", "pairs": [{"property": "Method", "value": "EvalAction"}]},
                {"kind": "and", "pairs": [{"property": "Site", "value": "HeartStructure"}]},
                {"kind": "and", "pairs": [{"property": "Device", "value": "EcgDevice"}]},
            ]},
        ])
        prompt = build_prompt(onto, "Ecg", "note text")
        assert ("characterized by Evaluation - action AND Heart Structure AND "
                "Electrocardiographic monitor and recorder, device") in prompt

    def test_unknown_concept(self, medical_ontology):
        with pytest.raises(KeyError):
            build_prompt(medical_ontology, "ghost", "note")


class TestExtractCsr:
    def test_keys_follow_first_mention(self, medical_ontology, medical_lexicon):
        text = "fever then aspirin then fever again"
        lm = constant_lm_for(medical_ontology, medical_lexicon, [text], "N/A")
        csr = extract_csr(lm, medical_ontology, medical_lexicon, ("n1", text), small_cfg())
        assert list(csr.entries) == ["Fever", "Aspirin"]
        tagged = []
        for ann in annotate(medical_lexicon, text):
            if ann.class_id not in tagged:
                tagged.append(ann.class_id)
        assert set(csr.entries) == set(tagged)

    def test_constant_na_reply(self, medical_ontology, medical_lexicon):
        text = "fever and aspirin"
        lm = constant_lm_for(medical_ontology, medical_lexicon, [text], "N/A")
        csr = extract_csr(lm, medical_ontology, medical_lexicon, ("n1", text), small_cfg())
        assert all(v == "N/A" for v in csr.entries.values())

    def test_empty_reply_becomes_na(self, medical_ontology, medical_lexicon):
        text = "just fever"
        lm = constant_lm_for(medical_ontology, medical_lexicon, [text], "")
        csr = extract_csr(lm, medical_ontology, medical_lexicon, ("n1", text), small_cfg())
        assert csr.entries == {"Fever": NOT_EXTRACTED}

    def test_no_concepts_gives_empty_csr(self, medical_ontology, medical_lexicon):
        lm = ConstantLm("no concepts in here at all".split(), "ok")
        csr = extract_csr(lm, medical_ontology, medical_lexicon,
                          ("n1", "no concepts in here at all"), small_cfg())
        assert csr.entries == {}

    def test_empty_note_errors(self, medical_ontology, medical_lexicon):
        lm = ConstantLm([], "x")
        with pytest.raises(ValueError, match="empty text"):
            extract_csr(lm, medical_ontology, medical_lexicon, ("n1", ""), small_cfg())

    def test_concept_filter(self, medical_ontology, medical_lexicon):
        text = "fever and aspirin"
        lm = constant_lm_for(medical_ontology, medical_lexicon, [text], "N/A")
        csr = extract_csr(lm, medical_ontology, medical_lexicon, ("n1", text),
                          small_cfg(), concepts={"Aspirin"})
        assert list(csr.entries) == ["Aspirin"]

    def test_partial_error_carries_finished_entries(self, medical_ontology, medical_lexicon):
        text = "fever and aspirin"

        class FailsOnSecond(ConstantLm):
            def __init__(self, inner_words):
                super().__init__(inner_words, "N/A")
                self.prompts = 0

            def tokenize(self, t):
                self.prompts += 1
                if self.prompts > 1 and t.startswith("Here is a clinical note"):
                    raise LmUnavailableError("backend gone")
                return super().tokenize(t)

        vocab = constant_lm_for(medical_ontology, medical_lexicon, [text], "N/A").words
        lm = FailsOnSecond(vocab)
        with pytest.raises(PartialCsrError) as err:
            extract_csr(lm, medical_ontology, medical_lexicon, ("n1", text), small_cfg())
        assert err.value.note_id == "n1"
        assert list(err.value.entries) == ["Fever"]


class TestPruneCsr:
    def _csr(self):
        return CSR("n1", {"Aspirin": "took aspirin", "Fever": "febrile"})

    def test_hand_trace(self, medical_ontology):
        dcf = DCF("d", {"Drug": 5.0, "Fever": 1.0})
        pruned = prune_csr(self._csr(), dcf, medical_ontology, k=1, alpha=1)
        assert list(pruned.entries) == ["Aspirin"]

    def test_alpha_zero_keeps_exact_top_k(self, medical_ontology):
        dcf = DCF("d", {"Drug": 5.0, "Fever": 1.0})
        pruned = prune_csr(self._csr(), dcf, medical_ontology, k=1, alpha=0)
        assert pruned.entries == {}

    def test_large_k_keeps_dcf_covered_keys(self, medical_ontology):
        dcf = DCF("d", {"Aspirin": 2.0, "Fever": 1.0})
        pruned = prune_csr(self._csr(), dcf, medical_ontology, k=99, alpha=0)
        assert pruned.entries == self._csr().entries

    def test_subset_and_idempotent(self, medical_ontology):
        dcf = DCF("d", {"Drug": 5.0, "Fever": 1.0})
        once = prune_csr(self._csr(), dcf, medical_ontology, k=1, alpha=1)
        twice = prune_csr(once, dcf, medical_ontology, k=1, alpha=1)
        assert set(once.entries) <= set(self._csr().entries)
        assert twice == once

    def test_tie_break_by_class_id(self, medical_ontology):
        dcf = DCF("d", {"Fever": 1.0, "Aspirin": 1.0})
        pruned = prune_csr(self._csr(), dcf, medical_ontology, k=1, alpha=0)
        assert list(pruned.entries) == ["Aspirin"]

    def test_bad_args(self, medical_ontology):
        dcf = DCF("d", {})
        with pytest.raises(ValueError):
            prune_csr(self._csr(), dcf, medical_ontology, k=0, alpha=0)
        with pytest.raises(ValueError):
            prune_csr(self._csr(), dcf, medical_ontology, k=1, alpha=-1)


def _keyed_top_k(dcf: DCF, k: int) -> set[str]:
    """The keyed heap ``prune_csr`` ranked with before, kept as its oracle."""
    ranked = heapq.nsmallest(k, dcf.freq.items(), key=lambda item: (-item[1], item[0]))
    return {class_id for class_id, _ in ranked}


class TestTopKRanking:
    """``prune_csr`` keeps the classes the keyed heap ranks in the top k."""

    CLASSES = [f"c{i:02d}" for i in range(40)]
    # Few distinct values, so ties are the rule: 0.0 with -0.0, ints with
    # equal floats, and negatives.
    VALUES = [0.0, -0.0, 0, 1, 1.0, 2, 2.5, -1, -1.0, -2.5, 7, 1e-300, -1e300, 1e300]

    @pytest.fixture(scope="class")
    def flat(self):
        return make_ontology([{"id": c, "label": f"class {c}"} for c in self.CLASSES])

    @pytest.mark.parametrize("k_of", [
        lambda n: 1, lambda n: 2, lambda n: n - 1, lambda n: n, lambda n: n + 1,
        lambda n: sys.maxsize,
    ], ids=["1", "2", "len-1", "len", "len+1", "maxsize"])
    def test_matches_keyed_heap(self, flat, k_of):
        rng = random.Random(24)
        csr = CSR("n", {c: "v" for c in self.CLASSES})
        for _ in range(300):
            # A random insertion order, so a ranking without the class-id
            # tie-break keeps other classes than the oracle.
            classes = rng.sample(self.CLASSES, rng.randint(1, len(self.CLASSES)))
            values = rng.sample(self.VALUES, rng.randint(1, 4))
            dcf = DCF("d", {c: rng.choice(values) for c in classes})
            k = k_of(len(classes))
            if k < 1:
                continue
            pruned = prune_csr(csr, dcf, flat, k=k, alpha=0)
            assert set(pruned.entries) == _keyed_top_k(dcf, k), (dcf.freq, k)

    def test_empty_dcf_keeps_nothing(self, flat):
        csr = CSR("n", {c: "v" for c in self.CLASSES})
        assert prune_csr(csr, DCF("d", {}), flat, k=1, alpha=0).entries == {}


@pytest.mark.parametrize("name, low, value", [
    (name, low, value) for name, low in [("min_occ", 1), ("k", 1), ("alpha", 0)]
    for value in bad_counts(low)])
def test_counts_are_integers_in_range(medical_ontology, medical_lexicon, name, low, value):
    calls = {
        "min_occ": lambda: build_dcf(medical_ontology, medical_lexicon,
                                     DomainSpec("d", ["fever"]), min_occ=value),
        "k": lambda: prune_csr(CSR("n", {}), DCF("d", {}), medical_ontology, k=value, alpha=0),
        "alpha": lambda: prune_csr(CSR("n", {}), DCF("d", {}), medical_ontology, k=1,
                                   alpha=value),
    }
    with pytest.raises(ValueError, match=count_error(name, value, low)):
        calls[name]()


class TestVerbalize:
    def test_rendering_format(self, medical_ontology):
        csr = CSR("n1", {"Fever": "patient febrile"})
        assert render_csr(csr, medical_ontology) == "fever : patient febrile"

    def test_prompt_contains_lines_and_separator(self, medical_ontology, medical_lexicon):
        csrs = [CSR("n1", {"Fever": "patient febrile"}),
                CSR("n2", {"Aspirin": "took aspirin"})]
        instruction = "Summarize these clinical notes in a short text."
        vocab = ("fever : patient febrile ========== aspirin : took aspirin "
                 + instruction).split()
        lm = RecordingLm(vocab, "all good")
        text = verbalize(lm, medical_ontology, medical_lexicon, csrs, instruction,
                         small_cfg())
        assert text == "all good"
        prompt = lm.seen[0]
        assert "fever : patient febrile" in prompt
        assert prompt.count("==========") == 1
        assert prompt.endswith(instruction)

    def test_all_na_entries_render_nothing(self, medical_ontology, medical_lexicon):
        csrs = [CSR("n1", {"Fever": "N/A"})]
        lm = RecordingLm("Summarize now".split(), "done")
        text = verbalize(lm, medical_ontology, medical_lexicon, csrs,
                         "Summarize now", small_cfg())
        assert text == "done"
        assert " : " not in lm.seen[0]

    def test_requires_csrs(self, medical_ontology, medical_lexicon):
        lm = ConstantLm([], "x")
        with pytest.raises(ValueError, match="at least one"):
            verbalize(lm, medical_ontology, medical_lexicon, [], "go", small_cfg())


class TestCorpusIo:
    def test_read_corpus(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text(
            '{"id": "a", "domain": "cardio", "text": "t1"}\n'
            "\n"
            '{"id": "b", "domain": null, "text": "t2"}\n'
            '{"id": -7, "text": "t3"}\n'
        )
        notes = read_corpus(path)
        assert [(n.id, n.domain, n.text) for n in notes] == [
            ("a", "cardio", "t1"), ("b", None, "t2"), ("-7", None, "t3"),
        ]

    def test_read_corpus_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="needs 'id' and 'text'"):
            read_corpus(path)

    @pytest.mark.parametrize("line, message", [
        ("5", "expected a JSON object, got int"),
        ("null", "expected a JSON object, got NoneType"),
        ('["a", "t"]', "expected a JSON object, got list"),
        ('{"id": 1, "text": null}', "'text' must be a string"),
        ('{"id": 1, "text": 7}', "'text' must be a string"),
        ('{"id": 1, "text": "t", "domain": 3}', "'domain' must be a string or null"),
        ('{"id": null, "text": "t"}', "'id' must be a string or an integer"),
        ('{"id": {"a": 1}, "text": "t"}', "'id' must be a string or an integer"),
        ('{"id": true, "text": "t"}', "'id' must be a string or an integer"),
        ('{"id": 1.5, "text": "t"}', "'id' must be a string or an integer"),
        ('{"id": ["a"], "text": "t"}', "'id' must be a string or an integer"),
    ])
    def test_read_corpus_rejects_values_it_would_coerce(self, tmp_path, line, message):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"id": "a", "text": "t1"}\n' + line + "\n")
        with pytest.raises(ValueError, match=f"notes.jsonl:2: {re.escape(message)}"):
            read_corpus(path)

    def test_read_corpus_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_bytes('{"id": "a", "text": "caf\u00e9"}\n'.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            read_corpus(path)

    def test_csr_roundtrip(self, medical_ontology):
        csr = CSR("n1", {"Fever": "hot", "Aspirin": "N/A"})
        data = csr.to_dict(medical_ontology)
        assert data["entries"][0] == {"class": "Fever", "label": "fever", "value": "hot"}
        assert CSR.from_dict(data) == csr

    def test_dcf_roundtrip(self):
        dcf = DCF("cardio", {"Heart": 2.0})
        assert DCF.from_dict(dcf.to_dict()) == dcf
        assert type(DCF.from_dict({"domain": "cardio", "freq": {"Heart": 2}}).freq["Heart"]) is float

    @pytest.mark.parametrize("data, message", [
        ([], "DCF 'domain' must be a string"),
        ({"freq": {}}, "DCF 'domain' must be a string"),
        ({"domain": None, "freq": {}}, "DCF 'domain' must be a string"),
        ({"domain": 3, "freq": {}}, "DCF 'domain' must be a string"),
        ({"domain": "d"}, "DCF 'freq' must be an object"),
        ({"domain": "d", "freq": [["Heart", 1.0]]}, "DCF 'freq' must be an object"),
        ({"domain": "d", "freq": {"Heart": True}}, "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": "nan"}}, "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": "2"}}, "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": None}}, "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": float("nan")}},
         "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": float("-inf")}},
         "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {"Heart": 10 ** 400}}, "DCF 'freq' must map class ids to finite"),
        ({"domain": "d", "freq": {7: 1.0}}, "DCF 'freq' must map class ids to finite"),
    ])
    def test_dcf_from_dict_rejects_values_it_would_coerce(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            DCF.from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ([], "CSR 'note_id' must be a string"),
        ({"entries": []}, "CSR 'note_id' must be a string"),
        ({"note_id": 1, "entries": []}, "CSR 'note_id' must be a string"),
        ({"note_id": "n"}, "CSR 'entries' must be an array"),
        ({"note_id": "n", "entries": {"Fever": "hot"}}, "CSR 'entries' must be an array"),
        ({"note_id": "n", "entries": [["Fever", "hot"]]}, "CSR entry 'class' must be a string"),
        ({"note_id": "n", "entries": [{"value": "hot"}]}, "CSR entry 'class' must be a string"),
        ({"note_id": "n", "entries": [{"class": None, "value": "hot"}]},
         "CSR entry 'class' must be a string"),
        ({"note_id": "n", "entries": [{"class": "Fever", "value": None}]},
         "CSR entry 'value' must be a string"),
        ({"note_id": "n", "entries": [{"class": "Fever", "value": 3}]},
         "CSR entry 'value' must be a string"),
        ({"note_id": "n", "entries": [{"class": "Aspirin", "value": "one"},
                                      {"class": "Aspirin", "value": "two"}]},
         "CSR class 'Aspirin' is listed twice"),
    ])
    def test_csr_from_dict_rejects_values_it_would_coerce(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CSR.from_dict(data)
