"""Sparse beam expansion matches the dense full-sort decode bitwise.

``dense_next_logits`` and ``reference_decode`` keep the n-gram
distribution and the decoder's group loop as they were before beam
expansion became sparse: every token of the vocabulary gets an explicit
log-prob, and every (beam, token) pair of a group is scored and sorted.
The library must return the same text, tokens, score and truncation flag,
and a served ``/v1/logits`` batch must list the dense ranking's top k,
or the dense distribution itself when k covers the vocabulary.
"""

import json
import math
import random
from collections import Counter

import pytest

from ontodecode.annotator import build_lexicon
from ontodecode.decoder import (
    BeamState, DecodeConfig, DecodeResult, ScoringContext, decode, window_rescore,
)
from ontodecode.lm import LmContract, LmStep, RemoteLm, train_ngram
from ontodecode.ontology import UnknownClassError

from conftest import dense, make_ontology, serving

ONTO = make_ontology([
    {"id": "A", "label": "w0"},
    {"id": "B", "label": "w1", "parents": ["A"],
     "restrictions": [{"kind": "and", "pairs": [{"property": "Has", "value": "C"}]}]},
    {"id": "C", "label": "w2"},
])
LEX = build_lexicon(ONTO)


def dense_next_logits(lm, prefix):
    """The n-gram model's distribution with one entry per vocabulary token."""
    context = lm._context(prefix)
    total = lm._context_totals.get(context, 0)
    followers = lm._follower_counts.get(context, {})
    denom = total + lm.vocab_size
    return {
        tid: math.log((followers.get(tid, 0) + 1) / denom)
        for tid in range(lm.vocab_size)
    }


def _rescore(lm, beams, ctx):
    """``window_rescore`` on each window's text from ``lm.detokenize``."""
    texts = [lm.detokenize([t for t in b.tokens[b.window_start:] if t != lm.eos])
             for b in beams if b.window_start < len(b.tokens)]
    return window_rescore(texts, beams, ctx)


def reference_decode(lm, next_logits, prompt, onto, lex, base, note, cfg):
    """``decode`` with the full sort over every (beam, token) pair."""
    if base is not None and base not in onto:
        raise UnknownClassError(f"unknown class id: {base!r}")

    ctx = ScoringContext.build(onto, lex, base, note, cfg)
    prompt_ids = lm.tokenize(prompt)
    per_group = cfg.beam_size // cfg.num_groups
    groups = [
        [BeamState(tokens=list(prompt_ids), cum_logprob=0.0,
                   window_start=len(prompt_ids))]
        for g in range(cfg.num_groups)
    ]

    for _ in range(cfg.max_tokens):
        if all(b.finished for beams in groups for b in beams):
            break
        chosen_counts = Counter()
        for g, beams in enumerate(groups):
            if all(b.finished for b in beams):
                continue
            candidates = []
            for idx, beam in enumerate(beams):
                if beam.finished:
                    candidates.append((beam.cum_logprob, idx, -1, beam))
                    continue
                logits = next_logits(beam.tokens)
                for token in sorted(logits):
                    score = (beam.cum_logprob + logits[token]
                             - cfg.diversity_penalty * chosen_counts[token])
                    candidates.append((score, idx, token, beam))
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

            new_beams = []
            group_chosen = []
            for score, _, token, parent in candidates[:per_group]:
                if token == -1:
                    new_beams.append(parent)
                    continue
                new_beams.append(BeamState(
                    tokens=parent.tokens + [token],
                    cum_logprob=score,
                    window_start=parent.window_start,
                    finished=(token == lm.eos),
                ))
                group_chosen.append(token)
            groups[g] = new_beams
            chosen_counts.update(group_chosen)

            active = [b for b in new_beams if not b.finished]
            window_full = active and (len(active[0].tokens) - active[0].window_start
                                      >= cfg.window)
            if window_full or not active:
                _rescore(lm, new_beams, ctx)

    for beams in groups:
        _rescore(lm, beams, ctx)

    ranked = []
    for g, beams in enumerate(groups):
        for slot, beam in enumerate(beams):
            ranked.append((beam.cum_logprob, g * per_group + slot, beam))
    finished = [r for r in ranked if r[2].finished]
    pool = finished if finished else ranked
    best = max(pool, key=lambda r: (r[0], -r[1]))[2]

    generated = [t for t in best.tokens[len(prompt_ids):] if t != lm.eos]
    return DecodeResult(
        text=lm.detokenize(generated),
        truncated=not best.finished,
        score=best.cum_logprob,
        tokens=generated,
    )


class _DictLm(LmContract):
    """Lists a seeded random subset per context as a plain dict (floor -inf).

    Log-probs come from a small set of values, so equal scores are common.
    """

    def __init__(self, seed: int, vocab_size: int):
        self.seed = seed
        self.vocab_size = vocab_size
        self.eos = vocab_size - 1

    def tokenize(self, text):
        return [int(w[1:]) for w in text.split()]

    def detokenize(self, ids):
        return " ".join(f"w{i}" for i in ids if i != self.eos)

    def next_logits(self, prefix):
        rng = random.Random(f"{self.seed}:{prefix[-2:]}")
        listed = rng.sample(range(self.vocab_size), rng.randint(1, min(3, self.vocab_size)))
        return LmStep({t: rng.choice([-0.5, -1.0, -2.0]) for t in listed})


def _random_ngram(rng: random.Random):
    words = [f"w{i}" for i in range(rng.randint(2, 20))]
    lines = [
        " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(2, 6))
    ]
    return train_ngram(lines, rng.randint(1, 3)), lines


def _random_config(rng: random.Random, penalty: float, groups: int) -> DecodeConfig:
    max_tokens = rng.randint(2, 7)
    return DecodeConfig(
        beam_size=groups * rng.randint(1, 6), num_groups=groups,
        diversity_penalty=penalty, window=rng.randint(1, max_tokens + 1),
        max_tokens=max_tokens,
    )


def _assert_same(got: DecodeResult, want: DecodeResult) -> None:
    assert got.text == want.text
    assert got.tokens == want.tokens
    assert got.score.hex() == want.score.hex()
    assert got.truncated == want.truncated


@pytest.mark.parametrize("groups", [1, 2, 3])
@pytest.mark.parametrize("penalty", [0.0, 0.5, 1.0])
def test_decode_matches_dense_full_sort(penalty, groups):
    rng = random.Random(f"ngram:{penalty}:{groups}")
    orders = set()
    for _ in range(25):
        lm, lines = _random_ngram(rng)
        orders.add(lm.order)
        cfg = _random_config(rng, penalty, groups)
        prompt = rng.choice(["", lines[0].split()[0], lines[-1]])
        base = rng.choice([None, "A", "B"])
        note = rng.choice(lines)
        got = decode(lm, prompt, ONTO, LEX, base, note, cfg)
        want = reference_decode(lm, lambda seq: dense_next_logits(lm, seq),
                                prompt, ONTO, LEX, base, note, cfg)
        _assert_same(got, want)
    assert orders == {1, 2, 3}


@pytest.mark.parametrize("groups", [1, 2, 3])
@pytest.mark.parametrize("penalty", [0.0, 0.5, 1.0])
def test_plain_dict_steps_match_dense_full_sort(penalty, groups):
    rng = random.Random(f"dict:{penalty}:{groups}")
    for seed in range(15):
        lm = _DictLm(seed, rng.randint(2, 12))
        cfg = _random_config(rng, penalty, groups)
        base = rng.choice([None, "A"])
        got = decode(lm, "w0", ONTO, LEX, base, "w0 w1 w2", cfg)
        want = reference_decode(lm, lambda seq: lm.next_logits(seq).logits,
                                "w0", ONTO, LEX, base, "w0 w1 w2", cfg)
        _assert_same(got, want)


def test_ngram_view_equals_dense_distribution():
    rng = random.Random(7)
    for _ in range(30):
        lm, _ = _random_ngram(rng)
        prefix = [rng.randrange(lm.vocab_size - 1) for _ in range(rng.randint(0, 3))]
        logits = dense(lm.next_logits(prefix))
        want = dense_next_logits(lm, prefix)
        assert list(logits) == list(want)
        assert [v.hex() for v in logits.values()] == [v.hex() for v in want.values()]
        assert logits == want


def test_served_logits_body_matches_dense_ranking(monkeypatch):
    rng = random.Random(11)
    words = [f"w{i}" for i in range(15)]
    lm = train_ngram([" ".join(rng.choice(words) for _ in range(12)) for _ in range(3)], 2)
    original = RemoteLm._exchange
    sent = []

    def exchange(self, path, body):
        sent.append(json.loads(body))
        return original(self, path, body)

    monkeypatch.setattr(RemoteLm, "_exchange", exchange)
    with serving(lm) as server:
        V = lm.vocab_size
        for top_k in sorted({1, 2, V - 1, V, V + 5}):
            remote = RemoteLm(server.endpoint, top_k=top_k)
            shared = [rng.randrange(V - 1) for _ in range(rng.randint(1, 3))]
            batches = [
                # One prefix, then suffixes of different lengths.
                (shared, [[rng.randrange(V - 1) for _ in range(n)] for n in range(4)]),
                # No prefix: distinct first tokens, and the empty suffix.
                ([], [[t] + [rng.randrange(V - 1) for _ in range(rng.randint(0, 2))]
                      for t in rng.sample(range(V - 1), 4)] + [[]]),
            ]
            for prefix, suffixes in batches:
                sent.clear()
                steps, _ = remote.step(prefix, suffixes, [])
                assert sent == [{"prefix": prefix, "suffixes": suffixes, "detokenize": [],
                                 "top_k": top_k}]
                assert len(steps) == len(suffixes)
                for suffix, step in zip(suffixes, steps):
                    want = dense_next_logits(lm, prefix + suffix)
                    if top_k < V:
                        ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
                        assert list(step.logits.items()) == ranked[:top_k]
                        assert step.truncated
                    else:
                        assert not step.truncated
                        got = dense(step)
                        assert list(got) == list(want)
                        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
            sent.clear()
            assert remote.step(shared, [], []) == ([], [])
            assert sent == []


class _TableLm(LmContract):
    """Dyadic log-probs keyed by the last token, with a finite floor, so ties are exact."""

    vocab_size, eos = 6, 5
    TABLE = {
        (): ({1: -0.0, 2: 0.0, 3: -1.0}, -1.5),
        (1,): ({5: -0.5, 3: -0.5}, -2.0),
        (2,): ({5: -1.0, 0: -0.5}, -1.5),
        (3,): ({4: -0.0, 2: -0.0}, -1.0),
    }

    def tokenize(self, text):
        return [int(w[1:]) for w in text.split()]

    def detokenize(self, ids):
        return " ".join(f"w{i}" for i in ids if i != self.eos)

    def next_logits(self, prefix):
        listed, floor = self.TABLE.get(tuple(prefix[-1:]), ({5: -0.5}, -1.0))
        return LmStep(dict(listed), floor, self.vocab_size)


@pytest.mark.parametrize("beam_size, groups", [(4, 2), (2, 2), (6, 2), (3, 1), (6, 3)])
@pytest.mark.parametrize("penalty", [0.5, 1.0])
def test_exact_ties_match_dense_full_sort(beam_size, groups, penalty):
    # With beam_size 4, two groups and penalty 0.5, selection meets:
    # - step 1: zero scores (a log-prob of -0.0 and one of 0.0), which enter
    #   as the key -0.0 and must come back as a cum_logprob of +0.0; decode
    #   starts each beam at +0.0 and never adds two negative zeros, so a
    #   cum_logprob of -0.0 shows only as that key;
    # - step 2: equal log-probs across a group's two beams at one score,
    #   and in group 1 a penalized listed token (-1.0 - 0.5) scoring the
    #   same as the floor tokens (-1.5), and a penalized unlisted token
    #   scoring the same as the other beam's floor tokens;
    # - step 3: a finished beam whose score equals two live candidates',
    #   which win the slots on the lower beam index.
    lm = _TableLm()
    cfg = DecodeConfig(beam_size=beam_size, num_groups=groups, diversity_penalty=penalty,
                       window=2, h_bf=0.0, p_bf=0.0, s_bf=0.0, max_tokens=5)
    got = decode(lm, "", ONTO, LEX, None, "", cfg)
    want = reference_decode(lm, lambda seq: dense(lm.next_logits(seq)),
                            "", ONTO, LEX, None, "", cfg)
    _assert_same(got, want)
