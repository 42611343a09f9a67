"""Seeded synthetic inputs for the benchmark workloads.

Everything is drawn from ``random.Random(seed)``, so one seed always gives
the same bytes. The program under test only ever sees the files written
here. The n-gram training corpus is built the way
``tests/conftest.py::build_fixture_tree`` builds its own: every extraction
prompt the pipeline will render, every rendered class label, the CSR
separator and the task instruction, so ``NgramLm.tokenize`` never meets a
word it has not seen.

Run as a script to write one workload's inputs:

    python perfbench/gen.py --workload dcf-snomed --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

TASK_INSTRUCTION = "Summarize these clinical notes in a short text."
SEPARATOR = "=========="
PROPERTIES = ("HasSite", "Interprets", "HasInterpretation", "CausativeAgent",
              "HasFocus", "Occurrence")

# Words of the prompt template and instruction. Generated words avoid them
# so that no class label can be tagged inside template text.
_TEMPLATE_WORDS = {
    "here", "is", "a", "clinical", "note", "about", "patient", "in", "short",
    "sentence", "summarize", "everything", "related", "to", "the", "concept",
    "mentioned", "characterized", "by", "if", "nothing", "answer", "with",
    "n", "or", "and", "these", "notes", "text",
}
_ONSETS = "bdfgklmnprtvz"
_VOWELS = "aeiou"

# Sizes per workload. Vocabulary sizes are exact so that decode cost, which
# is linear in the vocabulary, does not vary between seeds.
EXTRACT = dict(classes=300, depth=6, notes=40, note_words=(50, 100), concepts_per_note=3,
               vocab_size=2000)
SUMMARIZE = dict(classes=3000, depth=10, admissions=16, note_words=(1000, 1500), domains=3,
                 dcf_docs_per_domain=16, dcf_doc_words=80, vocab_size=400)
DCF = dict(classes=100_000, depth=15, domains=10, docs_per_domain=30,
           doc_words=300, csrs=60, csr_entries=(10, 30))


def make_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh lowercase pseudo-words; all end in a vowel, never in "s".

    A trailing "s" is how ``build_lexicon`` forms plurals, so forms that
    never end in "s" can never collide with another form's plural.
    """
    out: list[str] = []
    while len(out) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 4)))
        if word not in taken and word not in _TEMPLATE_WORDS:
            taken.add(word)
            out.append(word)
    return out


def make_ontology(rng: random.Random, n_classes: int, depth: int,
                  label_words: list[str], *, synonym_p: float,
                  restriction_p: float, extra_parent_p: float) -> tuple[list[dict], list[str]]:
    """A layered DAG shaped like a clinical terminology.

    Returns the class list and, per class, the level-2 subtree it sits in
    through its first parent (levels 0 to 2 are their own subtree). Level
    sizes follow a bell curve that peaks a little past mid-depth; every
    class below the root has one parent on the level above and sometimes
    more on any higher level.
    """
    top = max(2, min(19, n_classes // 20))
    rest = n_classes - 1 - top
    centre, width = depth * 0.55, depth / 4
    weights = [math.exp(-((lv - centre) ** 2) / (2 * width * width)) for lv in range(2, depth + 1)]
    sizes = [max(1, int(rest * w / sum(weights))) for w in weights]
    sizes[sizes.index(max(sizes))] += rest - sum(sizes)
    sizes = [1, top] + sizes

    forms: set[str] = set()

    def fresh_form() -> str:
        while True:
            form = " ".join(rng.choice(label_words) for _ in range(rng.randint(2, 3)))
            if form not in forms:
                forms.add(form)
                return form

    classes: list[dict] = []
    branch: list[str] = []
    levels: list[list[int]] = []
    for level, size in enumerate(sizes):
        members = []
        for _ in range(size):
            idx = len(classes)
            cls: dict = {"id": f"C{idx:06d}", "label": fresh_form()}
            if level == 0:
                branch.append(cls["id"])
            else:
                first = rng.choice(levels[level - 1])
                parents = [first]
                if level > 1 and rng.random() < extra_parent_p:
                    for _ in range(rng.randint(1, 2)):
                        other = rng.choice(levels[rng.randrange(1, level)])
                        if other not in parents:
                            parents.append(other)
                cls["parents"] = [f"C{p:06d}" for p in parents]
                branch.append(cls["id"] if level <= 2 else branch[first])
            if rng.random() < synonym_p:
                cls["synonyms"] = [fresh_form() for _ in range(rng.randint(1, 2))]
            classes.append(cls)
            members.append(idx)
        levels.append(members)

    for cls in classes[1:]:
        if rng.random() < restriction_p:
            cls["restrictions"] = [{
                "kind": rng.choice(("and", "or")),
                "pairs": [{"property": rng.choice(PROPERTIES),
                           "value": f"C{rng.randrange(1, n_classes):06d}"}
                          for _ in range(rng.randint(1, 3))],
            }]
    return classes, branch


class Chain:
    """Filler text as a random walk on a graph where every word has the same
    number of successors.

    Every seed thus gives the bigram model the same branching, so the cost
    of a beam step, which depends on how many distinct followers each
    context has, does not vary with the seed.
    """

    def __init__(self, rng: random.Random, words: list[str], degree: int):
        self.words = words
        self.successors = {w: rng.sample(words, degree) for w in words}

    def walk(self, rng: random.Random, n: int) -> list[str]:
        word = rng.choice(self.words)
        out = []
        for _ in range(n):
            out.append(word)
            word = rng.choice(self.successors[word])
        return out

    def phrase(self, rng: random.Random, low: int, high: int) -> str:
        return " ".join(self.walk(rng, rng.randint(low, high)))


def make_text(rng: random.Random, n_words: int, mentions: list[str], filler: Chain) -> str:
    """A filler walk with each mention inserted, in order, at distinct slots.

    Distinct slots keep at least one filler word between two mentions, so
    leftmost-longest tagging sees each mention on its own.
    """
    slots = sorted(rng.sample(range(n_words), len(mentions)))
    words: list[str] = []
    pending = list(zip(slots, mentions))
    for i, word in enumerate(filler.walk(rng, n_words)):
        while pending and pending[0][0] == i:
            words.append(pending.pop(0)[1])
        words.append(word)
    return " ".join(words)


def mentions_for(rng: random.Random, classes: dict[str, dict], concepts: list[str],
                 max_repeats: int) -> list[str]:
    """Surface forms mentioning each concept 1..max_repeats times, first
    mentions in ``concepts`` order, repeats after all first mentions."""
    def surface(cid: str) -> str:
        cls = classes[cid]
        return rng.choice([cls["label"], *cls.get("synonyms", [])])

    firsts = [surface(c) for c in concepts]
    repeats = [surface(c) for c in concepts for _ in range(rng.randint(0, max_repeats - 1))]
    rng.shuffle(repeats)
    return firsts + repeats


def domain_pools(rng: random.Random, classes: list[dict], branch: list[str],
                 n_domains: int) -> list[list[str]]:
    """Per domain, the non-root classes in its share of the subtrees.

    Subtrees are dealt out largest first, each to the domain with the
    fewest classes so far, so every domain's pool is about the same size.
    """
    sizes: dict[str, int] = {}
    for top in branch[1:]:
        sizes[top] = sizes.get(top, 0) + 1
    tops = sorted(sizes)
    rng.shuffle(tops)
    tops.sort(key=lambda top: -sizes[top])
    totals = [0] * n_domains
    owner = {}
    for top in tops:
        owner[top] = totals.index(min(totals))
        totals[owner[top]] += sizes[top]
    pools: list[list[str]] = [[] for _ in range(n_domains)]
    for idx, cls in enumerate(classes[1:], start=1):
        pools[owner[branch[idx]]].append(cls["id"])
    return pools


def lm_corpus_lines(onto_classes: list[dict], notes: list[tuple[str, str]],
                    filler: Chain, rng: random.Random, vocab_size: int,
                    taken: set[str]) -> list[str]:
    """Training lines covering every prompt the pipeline renders for ``notes``.

    Each prompt continues into a short answer, so the model keeps talking
    after the prompt's last token. Lines of fresh background words then
    bring the vocabulary to exactly ``vocab_size`` (EOS included).
    """
    from ontodecode.annotator import annotate, build_lexicon
    from ontodecode.ontology import Ontology
    from ontodecode.pipeline import build_prompt

    onto = Ontology.from_dict({"classes": onto_classes})
    lex = build_lexicon(onto)
    lines: list[str] = []
    labels: set[str] = set()
    for _, text in notes:
        seen: list[str] = []
        for ann in annotate(lex, text):
            if ann.class_id not in seen:
                seen.append(ann.class_id)
        for cid in seen:
            answer = filler.phrase(rng, 3, 6)
            lines.append(build_prompt(onto, cid, text) + " " + answer)
            labels.add(onto.label(cid))
    for label in sorted(labels):
        lines.append(f"{label} : " + filler.phrase(rng, 4, 4))
    lines.append(SEPARATOR)
    lines.append(TASK_INSTRUCTION + " " + filler.phrase(rng, 6, 6))

    vocab = {word for line in lines for word in line.split()}
    missing = vocab_size - 1 - len(vocab)
    if missing < 0:
        raise ValueError(f"corpus already has {len(vocab)} words, over vocab_size {vocab_size}")
    background = make_words(rng, missing, taken)
    for i in range(0, len(background), 12):
        chunk = background[i:i + 12]
        lines.append(" ".join(chunk + [rng.choice(chunk) for _ in range(4)]))
    return lines


def config_for(root: Path, lm: dict, decode: dict, domains: list[str]) -> dict:
    """A complete CLI configuration: every key of ``cli.DEFAULTS`` is set."""
    return {
        "ontology_path": str(root / "ontology.json"),
        "corpus_path": str(root / "corpus.jsonl"),
        "lm": {"kind": "ngram", "order": 2, "corpus": str(root / "lm_corpus.txt"),
               "endpoint": None, "top_k": 50, **lm},
        "decode": decode,
        "dcf": {"min_occ": 1, "domains": domains, "count": "documents"},
        "prune": {"k": 30, "alpha": 2},
        "task_instruction": TASK_INSTRUCTION,
        "output_dir": str(root / "out"),
    }


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def gen_extract(seed: int, root: Path) -> None:
    p = EXTRACT
    rng = random.Random(f"extract-bigvocab:{seed}")
    taken: set[str] = set()
    label_words = make_words(rng, 400, taken)
    filler = Chain(rng, make_words(rng, 300, taken), 6)
    classes, _ = make_ontology(rng, p["classes"], p["depth"], label_words,
                               synonym_p=0.3, restriction_p=0.3, extra_parent_p=0.3)
    by_id = {c["id"]: c for c in classes}
    ids = [c["id"] for c in classes[1:]]
    notes = []
    expect = {}
    for i in range(p["notes"]):
        concepts = rng.sample(ids, p["concepts_per_note"])
        text = make_text(rng, rng.randint(*p["note_words"]),
                         mentions_for(rng, by_id, concepts, 2), filler)
        notes.append((f"note-{i:03d}", text))
        expect[notes[-1][0]] = concepts
    _write_json(root / "expect.json", expect)
    _write_json(root / "ontology.json", {"classes": classes, "excluded_roots": []})
    _write_jsonl(root / "notes.jsonl", [{"id": n, "domain": None, "text": t} for n, t in notes])
    lines = lm_corpus_lines(classes, notes, filler, rng, p["vocab_size"], taken)
    (root / "lm_corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def gen_summarize(seed: int, root: Path) -> None:
    p = SUMMARIZE
    rng = random.Random(f"summarize:{seed}")
    taken: set[str] = set()
    label_words = make_words(rng, 100, taken)
    filler = Chain(rng, make_words(rng, 100, taken), 6)
    classes, branch = make_ontology(rng, p["classes"], p["depth"], label_words,
                                    synonym_p=0.3, restriction_p=0.4, extra_parent_p=0.3)
    by_id = {c["id"]: c for c in classes}
    domains = [f"d{i}" for i in range(p["domains"])]
    pools = domain_pools(rng, classes, branch, p["domains"])

    corpus = []
    for d, pool in zip(domains, pools):
        for i in range(p["dcf_docs_per_domain"]):
            concepts = rng.sample(pool, 6)
            corpus.append({"id": f"{d}-{i:03d}", "domain": d,
                           "text": make_text(rng, p["dcf_doc_words"],
                                             mentions_for(rng, by_id, concepts, 1), filler)})

    restricted = [[c for c in pool if "restrictions" in by_id[c]] for pool in pools]
    admissions = []
    all_notes = []
    expect = {}
    for a in range(p["admissions"]):
        d = a % p["domains"]
        notes = []
        # Note lengths vary, but every admission holds the same number of
        # words, so that admissions cost about the same.
        low, high = p["note_words"]
        first = rng.randint(low, high)
        for n, length in enumerate((first, low + high - first)):
            concepts = [rng.choice(restricted[d]), rng.choice(pools[d])]
            while concepts[1] == concepts[0]:
                concepts[1] = rng.choice(pools[d])
            text = make_text(rng, length, mentions_for(rng, by_id, concepts, 2), filler)
            notes.append({"id": f"adm{a:02d}-note{n}", "domain": domains[d], "text": text})
            all_notes.append((notes[-1]["id"], text))
            expect[notes[-1]["id"]] = concepts
        adm_dir = root / "admissions" / f"adm{a:02d}"
        adm_dir.mkdir(parents=True)
        _write_jsonl(adm_dir / "notes.jsonl", notes)
        admissions.append({"id": f"adm{a:02d}", "dir": str(adm_dir), "domain": domains[d]})

    _write_json(root / "ontology.json", {"classes": classes, "excluded_roots": []})
    _write_jsonl(root / "corpus.jsonl", corpus)
    lines = lm_corpus_lines(classes, all_notes, filler, rng, p["vocab_size"], taken)
    (root / "lm_corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    decode = {"beam_size": 10, "num_groups": 2, "diversity_penalty": 0.5, "window": 2,
              "h_bf": 3.0, "p_bf": 10.0, "s_bf": 10.0, "max_tokens": 8,
              "similarity_full_beam": False}
    _write_json(root / "config_ngram.json",
                config_for(root, {}, decode, domains))
    # The remote config is completed with the server's endpoint at run time.
    _write_json(root / "config_remote.json",
                config_for(root, {"kind": "remote", "top_k": 1000}, decode, domains))
    _write_json(root / "admissions.json", admissions)
    _write_json(root / "expect.json", expect)


def gen_dcf(seed: int, root: Path) -> None:
    p = DCF
    rng = random.Random(f"dcf-snomed:{seed}")
    taken: set[str] = set()
    label_words = make_words(rng, 4000, taken)
    filler = Chain(rng, make_words(rng, 400, taken), 6)
    classes, branch = make_ontology(rng, p["classes"], p["depth"], label_words,
                                    synonym_p=0.3, restriction_p=0.2, extra_parent_p=0.35)
    by_id = {c["id"]: c for c in classes}
    domains = [f"d{i}" for i in range(p["domains"])]
    pools = domain_pools(rng, classes, branch, p["domains"])
    everything = [c["id"] for c in classes[1:]]

    corpus = []
    expect = {}
    domain_concepts: list[list[str]] = [[] for _ in domains]
    n_mentions = p["doc_words"] // 6
    for d, pool in enumerate(pools):
        for i in range(p["docs_per_domain"]):
            concepts = list(dict.fromkeys(
                rng.choice(pool) if rng.random() < 0.8 else rng.choice(everything)
                for _ in range(n_mentions)))
            domain_concepts[d].extend(concepts)
            text = make_text(rng, p["doc_words"] - n_mentions,
                             mentions_for(rng, by_id, concepts, 1), filler)
            corpus.append({"id": f"{domains[d]}-{i:03d}", "domain": domains[d], "text": text})
            expect[corpus[-1]["id"]] = concepts

    csr_dir = root / "csrs"
    csr_dir.mkdir()
    csrs = []
    for i in range(p["csrs"]):
        d = i % p["domains"]
        pool = sorted(set(domain_concepts[d]))
        chosen = rng.sample(pool, rng.randint(*p["csr_entries"]))
        entries = [{"class": c, "label": by_id[c]["label"],
                    "value": "N/A" if rng.random() < 0.2 else
                    filler.phrase(rng, 2, 6)}
                   for c in chosen]
        path = csr_dir / f"csr_{i:03d}.json"
        _write_json(path, {"note_id": f"csr-{i:03d}", "entries": entries})
        csrs.append({"path": str(path), "domain": domains[d]})

    _write_json(root / "ontology.json", {"classes": classes, "excluded_roots": []})
    _write_jsonl(root / "corpus.jsonl", corpus)
    _write_json(root / "csrs.json", csrs)
    _write_json(root / "expect.json", expect)


GENERATORS = {
    "extract-bigvocab": gen_extract,
    "summarize-remote": gen_summarize,
    "summarize-longnote": gen_summarize,
    "dcf-snomed": gen_dcf,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(args.out).resolve()
    root.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](args.seed, root)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
