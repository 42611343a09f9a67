import contextlib
import json
import random
import re
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

import pytest

from ontodecode.annotator import build_lexicon
from ontodecode.lm import LmContract, LmServer, LmStep, NgramLm, train_ngram
from ontodecode.ontology import Ontology
from ontodecode.pipeline import build_prompt


def make_ontology(classes: list[dict], excluded_roots: list[str] | None = None) -> Ontology:
    return Ontology.from_dict({
        "classes": classes,
        "excluded_roots": excluded_roots or [],
    })


@pytest.fixture
def medical_ontology() -> Ontology:
    """Small hierarchy with restrictions, used across modules."""
    return make_ontology([
        {"id": "Root", "label": "root concept"},
        {"id": "Finding", "label": "clinical finding", "parents": ["Root"]},
        {"id": "Drug", "label": "drug", "parents": ["Root"]},
        {"id": "Aspirin", "label": "aspirin", "parents": ["Drug"],
         "synonyms": ["acetylsalicylic acid"]},
        {"id": "Fever", "label": "fever", "parents": ["Finding"], "synonyms": ["pyrexia"],
         "restrictions": [{"kind": "and", "pairs": [
             {"property": "Interprets", "value": "BodyTemp"},
             {"property": "HasInterpretation", "value": "AboveRef"},
         ]}]},
        {"id": "BodyTemp", "label": "body temperature", "parents": ["Root"]},
        {"id": "AboveRef", "label": "above reference range", "parents": ["Root"]},
    ])


@pytest.fixture
def medical_lexicon(medical_ontology):
    return build_lexicon(medical_ontology)


class ConstantLm(LmContract):
    """Deterministic backend that always completes with a fixed text.

    The longest prefix-suffix already matching the target decides the next
    token; once the target is exhausted EOS gets all the mass.
    """

    def __init__(self, vocabulary: list[str], text: str):
        self.words = list(vocabulary)
        for word in text.split():
            if word not in self.words:
                self.words.append(word)
        self._ids = {w: i for i, w in enumerate(self.words)}
        self.eos = len(self.words)
        self.vocab_size = len(self.words) + 1
        self.target = [self._ids[w] for w in text.split()]

    def tokenize(self, text: str) -> list[int]:
        return [self._ids[w] for w in text.split()]

    def detokenize(self, ids: list[int]) -> str:
        return " ".join(self.words[i] for i in ids if i != self.eos)

    def next_logits(self, prefix: list[int]) -> LmStep:
        done = 0
        for k in range(min(len(self.target), len(prefix)), 0, -1):
            if prefix[-k:] == self.target[:k]:
                done = k
                break
        if done < len(self.target):
            return LmStep({self.target[done]: 0.0})
        return LmStep({self.eos: 0.0})


class NoCandidateLm(LmContract):
    """Three-token backend that tokenizes any text but lists no next token."""

    eos = 2
    vocab_size = 3

    def tokenize(self, text: str) -> list[int]:
        return [0 for _ in text.split()]

    def detokenize(self, ids: list[int]) -> str:
        return " ".join("q" for i in ids if i != self.eos)

    def next_logits(self, prefix: list[int]) -> LmStep:
        return LmStep({})


def dense(step: LmStep) -> dict[int, float]:
    """The full distribution ``step`` stands for: one entry per vocabulary id."""
    return {t: step.logits.get(t, step.floor) for t in range(step.vocab_size)} | step.logits


@contextlib.contextmanager
def serving(lm: LmContract) -> Iterator[LmServer]:
    """An ``LmServer`` for ``lm`` on loopback, served by a daemon thread until the block ends."""
    server = LmServer(lm)
    # A short poll interval, so that shutdown() returns at once.
    thread = threading.Thread(target=server.httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
    assert not thread.is_alive()


def bad_counts(low: int = 1) -> list:
    """Values the count rule rejects: no integer, or an integer outside ``[low, sys.maxsize]``."""
    return [1.0, 2.5, True, "3", None, low - 1, sys.maxsize + 1]


def count_error(name: str, value: object, low: int = 1) -> str:
    """A pattern for the whole count-rule message for ``name`` and ``value``."""
    return "^" + re.escape(f"{name} must be an integer in [{low}, {sys.maxsize}], "
                           f"got {value!r}") + "$"


def random_ngram_lm(rng: random.Random, max_words: int = 4, max_lines: int = 5,
                    max_line_len: int = 6, order: int | None = None) -> NgramLm:
    """A small random model; of a random order from 1 to 3 unless ``order`` is given."""
    words = [f"w{i}" for i in range(rng.randint(2, max_words))]
    lines = [
        " ".join(rng.choice(words) for _ in range(rng.randint(1, max_line_len)))
        for _ in range(rng.randint(2, max_lines))
    ]
    return train_ngram(lines, order or rng.randint(1, 3))


def random_dag(rng: random.Random, max_nodes: int = 50) -> Ontology:
    n = rng.randint(2, max_nodes)
    classes = []
    for i in range(n):
        upper = list(range(i))
        parents = rng.sample(upper, k=min(len(upper), rng.randint(0, 3)))
        classes.append({
            "id": f"n{i}",
            "label": f"node {i}",
            "parents": [f"n{p}" for p in parents],
        })
    return make_ontology(classes)


# --------------------------------------------------------------------------
# On-disk fixture tree for CLI and end-to-end tests
# --------------------------------------------------------------------------

FIXTURE_CLASSES = [
    {"id": "Root", "label": "root concept"},
    {"id": "Finding", "label": "clinical finding", "parents": ["Root"]},
    {"id": "Drug", "label": "drug", "parents": ["Root"]},
    {"id": "Aspirin", "label": "aspirin", "parents": ["Drug"]},
    {"id": "Fever", "label": "fever", "parents": ["Finding"],
     "restrictions": [{"kind": "and", "pairs": [
         {"property": "Interprets", "value": "BodyTemp"},
         {"property": "HasInterpretation", "value": "AboveRef"},
     ]}]},
    {"id": "BodyTemp", "label": "body temperature", "parents": ["Root"]},
    {"id": "AboveRef", "label": "above reference range", "parents": ["Root"]},
    {"id": "Heart", "label": "heart", "parents": ["Root"]},
    {"id": "HeartAttack", "label": "heart attack", "parents": ["Heart"]},
    {"id": "Echo", "label": "echocardiogram", "parents": ["Heart"]},
    {"id": "Headache", "label": "headache", "parents": ["Finding"]},
    {"id": "Migraine", "label": "migraine", "parents": ["Headache"]},
]

# Note texts avoid the word "patient": it precedes ":" in every prompt,
# so completions echoing it would cheaply replay the template pattern.
ADMISSION_NOTES = [
    {"id": "note-1", "domain": None,
     "text": "fever spiked overnight and aspirin was given"},
    {"id": "note-2", "domain": None,
     "text": "echocardiogram shows steady rhythm after aspirin"},
]

DCF_CORPUS = (
    [{"id": f"cardio-{i}", "domain": "cardio",
      "text": "heart attack suspected , echocardiogram ordered , aspirin given"}
     for i in range(4)]
    + [{"id": f"neuro-{i}", "domain": "neuro",
        "text": "patient reports headache , migraine history noted"}
       for i in range(4)]
)

TASK_INSTRUCTION = "Summarize these clinical notes in a short text."


def build_fixture_tree(root: Path) -> dict[str, Path]:
    """Materialize ontology, corpora, admission notes, and config under root."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "ontology": root / "ontology.json",
        "corpus": root / "corpus.jsonl",
        "admission": root / "admission",
        "lm_corpus": root / "lm_corpus.txt",
        "config": root / "config.json",
        "output": root / "out",
    }

    paths["ontology"].write_text(
        json.dumps({"classes": FIXTURE_CLASSES, "excluded_roots": []}, indent=2),
        encoding="utf-8",
    )
    paths["corpus"].write_text(
        "\n".join(json.dumps(n) for n in DCF_CORPUS) + "\n", encoding="utf-8"
    )
    paths["admission"].mkdir(exist_ok=True)
    (paths["admission"] / "notes.jsonl").write_text(
        "\n".join(json.dumps(n) for n in ADMISSION_NOTES) + "\n", encoding="utf-8"
    )

    # The n-gram backend can only emit and tokenize words it has seen, so
    # the training corpus must cover every prompt the pipeline will build:
    # extraction prompts for each concept of each admission note, rendered
    # key-value lines, the block separator, and the task instruction. Each
    # prompt line continues into an answer so the model learns to keep
    # talking after the prompt's final token instead of emitting EOS.
    onto = Ontology.from_dict({"classes": FIXTURE_CLASSES})
    lex = build_lexicon(onto)
    from ontodecode.annotator import annotate  # local import to keep fixtures lazy

    answers = {
        "Fever": "fever spiked overnight",
        "Aspirin": "aspirin was given today",
        "Echo": "echocardiogram shows steady rhythm",
    }
    lm_lines: list[str] = []
    for note in ADMISSION_NOTES:
        seen: list[str] = []
        for ann in annotate(lex, note["text"]):
            if ann.class_id not in seen:
                seen.append(ann.class_id)
        for class_id in seen:
            line = build_prompt(onto, class_id, note["text"]) + " " + answers[class_id]
            # Balance first-answer-token counts so neither continuation is
            # pruned before the first window rescore can rerank it.
            lm_lines += [line] * (2 if class_id == "Echo" else 1)
    # Key-value lines teach the rendered-block tokens; their values avoid
    # concept words so no cheap ":"-loops exist for beams to ride.
    lm_lines += [
        "fever : noted this morning",
        "aspirin : given this morning",
        "echocardiogram : completed this morning",
        "==========",
        TASK_INSTRUCTION + " the course was stable overnight",
    ]
    paths["lm_corpus"].write_text("\n".join(lm_lines) + "\n", encoding="utf-8")

    config = {
        "ontology_path": str(paths["ontology"]),
        "corpus_path": str(paths["corpus"]),
        "lm": {"kind": "ngram", "order": 2, "corpus": str(paths["lm_corpus"])},
        "decode": {
            "beam_size": 4,
            "num_groups": 2,
            "diversity_penalty": 0.5,
            "window": 5,
            "h_bf": 3.0,
            "p_bf": 10.0,
            "s_bf": 10.0,
            "max_tokens": 12,
        },
        "dcf": {"min_occ": 1, "domains": ["cardio", "neuro"]},
        "prune": {"k": 3, "alpha": 1},
        "task_instruction": TASK_INSTRUCTION,
        "output_dir": str(paths["output"]),
    }
    paths["config"].write_text(json.dumps(config, indent=2), encoding="utf-8")
    return paths


@pytest.fixture
def fixture_tree(tmp_path):
    return build_fixture_tree(tmp_path / "fixture")
