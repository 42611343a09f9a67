"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from ontodecode.annotator import Lexicon, build_lexicon
from ontodecode.cli import main
from ontodecode.decoder import (
    DecodeConfig,
    decode,
    hierarchy_score,
    property_score,
    similarity_score,
)
from ontodecode.lm import RemoteLm, train_ngram
from ontodecode.metrics import (
    adjusted_hallucination_score,
    hallucination_score,
    rouge2,
)
from ontodecode.pipeline import DCF, CSR, DomainSpec, build_dcf, normalize_dcf, prune_csr

from conftest import build_fixture_tree, dense, make_ontology, random_dag
from test_decoder import _ForkLm
from test_metrics import brute_rouge2


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


EMPTY_ONTO = make_ontology([{"id": "X", "label": "unused label"}])
EMPTY_LEX = Lexicon(entries={})


def exhaustive_best_text(lm, max_tokens: int) -> str:
    """Enumerate every token sequence up to max_tokens; best finished wins.

    Ties go to the lexicographically smaller token sequence.
    """
    best: tuple[float, list[int]] | None = None

    def walk(seq: list[int], score: float) -> None:
        nonlocal best
        if len(seq) >= max_tokens:
            return
        logits = dense(lm.next_logits(seq))
        for token in sorted(logits):
            total = score + logits[token]
            if token == lm.eos:
                candidate = (total, seq + [token])
                if (best is None or total > best[0]
                        or (total == best[0] and candidate[1] < best[1])):
                    best = candidate
            else:
                walk(seq + [token], total)

    walk([], 0.0)
    assert best is not None
    return lm.detokenize([t for t in best[1] if t != lm.eos])


class TestAcceptance:
    def test_beam_search_oracle(self):
        with criterion("beam-search oracle: decode == exhaustive enumeration, 50 LMs"):
            rng = random.Random(101)
            started = time.monotonic()
            for _ in range(50):
                n_words = rng.randint(2, 4)
                words = [f"w{i}" for i in range(n_words)]
                lines = [
                    " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(2, 4))
                ]
                lm = train_ngram(lines, rng.randint(1, 3))
                max_tokens = rng.randint(2, 4)
                # Beam wide enough that nothing is ever pruned, so the
                # search must agree with enumeration exactly.
                cfg = DecodeConfig(
                    beam_size=lm.vocab_size ** max_tokens, num_groups=1,
                    diversity_penalty=0.0, window=max_tokens + 1,
                    h_bf=0.0, p_bf=0.0, s_bf=0.0, max_tokens=max_tokens,
                )
                got = decode(lm, "", EMPTY_ONTO, EMPTY_LEX, None, "", cfg)
                assert not got.truncated
                assert got.text == exhaustive_best_text(lm, max_tokens)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"took {elapsed:.2f}s"

    def test_score_formulas(self):
        with criterion("score formulas: H/P/S hand values at 1e-9; P'(Fever) byte-exact"):
            hierarchy_onto = make_ontology([
                {"id": "Drug", "label": "drug"},
                {"id": "Aspirin", "label": "aspirin", "parents": ["Drug"]},
                {"id": "Fever", "label": "fever"},
            ])
            assert hierarchy_score(hierarchy_onto, "Drug", set(), 3.0) == 0.0
            assert hierarchy_score(
                hierarchy_onto, "Drug", {"Aspirin", "Fever"}, 3.0
            ) == pytest.approx(1.5, abs=1e-9)
            assert hierarchy_score(
                hierarchy_onto, "Drug", {"Aspirin"}, 3.0
            ) == pytest.approx(3.0, abs=1e-9)

            property_onto = make_ontology([
                {"id": "Fever", "label": "Fever", "restrictions": [
                    {"kind": "and", "pairs": [
                        {"property": "Interprets", "value": "BodyTemp"},
                        {"property": "HasInterpretation", "value": "AboveRef"},
                    ]},
                ]},
                {"id": "BodyTemp", "label": "Body Temperature"},
                {"id": "AboveRef", "label": "Above Reference Range"},
            ])
            verbalized = property_onto.verbalize_restrictions("Fever")
            assert verbalized == "Body Temperature Above Reference Range"
            assert property_score(
                property_onto, "Fever", {"BodyTemp"},
                "body temperature above reference range", 10.0,
            ) == pytest.approx(6.0, abs=1e-9)

            # bigram overlap 2 of (candidate 2, note 5) -> F1 = 4/7
            assert similarity_score(
                "took aspirin for", "patient took aspirin for chest pain", 10.0
            ) == pytest.approx(40.0 / 7.0, abs=1e-9)

    def test_steering_flips_winner(self, medical_ontology, medical_lexicon):
        with criterion("steering: h_bf=3 flips the winning beam vs h_bf=0"):
            lm = _ForkLm()  # continuations: aspirin p=0.45, banana p=0.55
            results = {}
            for h_bf in (0.0, 3.0):
                cfg = DecodeConfig(beam_size=2, num_groups=1, diversity_penalty=0.0,
                                   window=1, h_bf=h_bf, p_bf=0.0, s_bf=0.0,
                                   max_tokens=4)
                results[h_bf] = decode(lm, "q", medical_ontology, medical_lexicon,
                                       "Drug", "unrelated note", cfg).text
            assert results[0.0] == "banana"
            assert results[3.0] == "aspirin"
            assert results[0.0] != results[3.0]

    def test_rouge2_brute_force(self):
        with criterion("ROUGE-2 == brute-force clipped bigrams on 200 pairs; R2(x,x)=1"):
            rng = random.Random(202)
            words = ["the", "cat", "sat", "ran", "dog", "x9", "mat"]
            for _ in range(200):
                a = " ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
                b = " ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
                assert rouge2(a, b) == brute_rouge2(a, b)
            for _ in range(20):
                x = " ".join(rng.choice(words) for _ in range(rng.randint(2, 9)))
                assert rouge2(x, x) == 1.0

    def test_hallucination_brute_force(self):
        with criterion("HS/AHS == set arithmetic on 100 triples; AHS <= HS; HS=0 fixture"):
            rng = random.Random(303)
            universe = [f"c{i}" for i in range(30)]
            for _ in range(100):
                s = set(rng.sample(universe, rng.randint(1, len(universe))))
                n = set(rng.sample(universe, rng.randint(0, len(universe))))
                r = set(rng.sample(universe, rng.randint(0, len(universe))))
                hs = hallucination_score(s, n)
                ahs = adjusted_hallucination_score(s, n, r)
                assert hs == sum(1 for x in s if x not in n) / len(s)
                assert ahs == sum(1 for x in s if x not in n | r) / len(s)
                assert ahs <= hs
            notes = {"Fever", "Aspirin", "Echo"}
            assert hallucination_score(set(notes), notes) == 0.0

    def test_dcf_domain_separation_and_pruning(self, medical_ontology):
        with criterion("DCF: planted families fill each top-5 exactly; prune keeps {Aspirin}"):
            classes = [{"id": "Shared", "label": "shared root"}]
            for family in ("alpha", "beta"):
                classes.append({"id": f"{family}0", "label": f"{family}0",
                                "parents": ["Shared"]})
                classes += [
                    {"id": f"{family}{i}", "label": f"{family}{i}",
                     "parents": [f"{family}0"]}
                    for i in range(1, 5)
                ]
            onto = make_ontology(classes)
            lex = build_lexicon(onto)
            doc = {
                "alpha": "alpha0 with alpha1 alpha2 then alpha3 alpha4 seen",
                "beta": "beta0 with beta1 beta2 then beta3 beta4 seen",
            }
            raws = [
                build_dcf(onto, lex, DomainSpec(fam, [doc[fam]] * 20), min_occ=1)
                for fam in ("alpha", "beta")
            ]
            normalized = normalize_dcf(raws)
            for dcf, family in zip(normalized, ("alpha", "beta")):
                planted = {f"{family}{i}" for i in range(5)}
                ranked = sorted(dcf.freq.items(), key=lambda kv: (-kv[1], kv[0]))
                top5 = {class_id for class_id, _ in ranked[:5]}
                assert top5 == planted  # precision = recall = 1.0

            csr = CSR("n1", {"Aspirin": "took aspirin", "Fever": "febrile"})
            dcf = DCF("d", {"Drug": 5.0, "Fever": 1.0})
            pruned = prune_csr(csr, dcf, medical_ontology, k=1, alpha=1)
            assert set(pruned.entries) == {"Aspirin"}

    def test_graph_ops_match_bfs_oracles(self):
        with criterion("ontology ops == BFS oracles on 50 random DAGs; duality holds"):
            rng = random.Random(404)
            for _ in range(50):
                onto = random_dag(rng, max_nodes=50)
                parents = {cid: list(onto.classes[cid].parents) for cid in onto.classes}
                children: dict[str, list[str]] = {cid: [] for cid in onto.classes}
                for cid, ps in parents.items():
                    for p in ps:
                        children[p].append(cid)

                def bfs(start: str, edges: dict[str, list[str]],
                        limit: int | None = None) -> set[str]:
                    seen: set[str] = set()
                    frontier = [start]
                    depth = 0
                    while frontier and (limit is None or depth < limit):
                        nxt = []
                        for node in frontier:
                            for other in edges[node]:
                                if other not in seen and other != start:
                                    seen.add(other)
                                    nxt.append(other)
                        frontier = nxt
                        depth += 1
                    return seen

                size = len(onto)
                for cid in onto.classes:
                    assert onto.ancestors(cid) == bfs(cid, parents)
                    assert onto.descendants_within(cid, size) == bfs(cid, children)
                    alpha = rng.randint(0, 3)
                    assert (onto.descendants_within(cid, alpha)
                            == bfs(cid, children, limit=alpha))
                # duality: d below c within |V| hops iff c is an ancestor of d
                for cid in onto.classes:
                    below = onto.descendants_within(cid, size)
                    for other in onto.classes:
                        assert (other in below) == (cid in onto.ancestors(other))

    def test_end_to_end_determinism(self, tmp_path, capsys):
        with criterion("end-to-end: summarize twice is byte-identical in < 30 s"):
            paths = build_fixture_tree(tmp_path / "fixture")
            started = time.monotonic()
            outputs = []
            for run_dir in ("run1", "run2"):
                out_dir = tmp_path / run_dir
                code = main([
                    "summarize", str(paths["admission"]),
                    "--config", str(paths["config"]),
                    "--domain", "cardio",
                    "--set", f"output_dir={out_dir}",
                ])
                assert code == 0
                outputs.append((
                    (out_dir / "structured_summary.json").read_bytes(),
                    (out_dir / "summary.txt").read_bytes(),
                ))
            capsys.readouterr()
            elapsed = time.monotonic() - started
            assert outputs[0] == outputs[1]
            assert outputs[0][1].strip()
            assert elapsed < 30.0, f"took {elapsed:.2f}s"

    def test_wire_protocol_roundtrip(self, tmp_path):
        with criterion("wire protocol: serve-ngram + remote client == in-process, bitwise"):
            paths = build_fixture_tree(tmp_path / "fixture")
            proc = subprocess.Popen(
                [sys.executable, "-m", "ontodecode.cli", "serve-ngram",
                 "--config", str(paths["config"]), "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                line = proc.stdout.readline()
                assert line, proc.stderr.read()
                info = json.loads(line)

                corpus_lines = [
                    l for l in paths["lm_corpus"].read_text().splitlines() if l.strip()
                ]
                local_lm = train_ngram(corpus_lines, 2)
                remote_lm = RemoteLm(info["endpoint"], top_k=info["vocab_size"])

                onto = make_ontology(json.loads(paths["ontology"].read_text())["classes"])
                lex = build_lexicon(onto)
                cfg = DecodeConfig(beam_size=4, num_groups=2, diversity_penalty=0.5,
                                   window=3, h_bf=3.0, p_bf=10.0, s_bf=10.0,
                                   max_tokens=8)
                note = "patient took aspirin today"
                local = decode(local_lm, "the patient", onto, lex, "Drug", note, cfg)
                remote = decode(remote_lm, "the patient", onto, lex, "Drug", note, cfg)
                assert remote.text == local.text
                assert remote.score == local.score
                assert remote.tokens == local.tokens
            finally:
                proc.terminate()
                proc.communicate(timeout=10)
