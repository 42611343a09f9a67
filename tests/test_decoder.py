import dataclasses
import functools
import itertools
import math
import operator
import random
import sys

import pytest

from ontodecode import decoder, metrics
from ontodecode.decoder import (
    BeamState,
    DecodeConfig,
    ScoringContext,
    decode,
    hierarchy_score,
    property_score,
    similarity_score,
    window_rescore,
)
from ontodecode.annotator import Lexicon, annotate, build_lexicon
from ontodecode.lm import LmContract, LmStep
from ontodecode.metrics import rouge2
from ontodecode.ontology import UnknownClassError

from conftest import (
    FIXTURE_CLASSES,
    ConstantLm,
    NoCandidateLm,
    bad_counts,
    count_error,
    dense,
    make_ontology,
    random_dag,
    random_ngram_lm,
)


def _config(**overrides) -> DecodeConfig:
    base = dict(beam_size=2, num_groups=1, diversity_penalty=0.0, window=10,
                h_bf=0.0, p_bf=0.0, s_bf=0.0, max_tokens=8)
    base.update(overrides)
    return DecodeConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert (cfg.beam_size, cfg.num_groups, cfg.window) == (10, 2, 10)
        assert (cfg.h_bf, cfg.p_bf, cfg.s_bf) == (3.0, 10.0, 10.0)

    def test_frozen(self):
        cfg = DecodeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window = 0  # type: ignore[misc]
        assert cfg.window == 10

    @pytest.mark.parametrize("overrides", [
        {"beam_size": 0},
        {"beam_size": 10, "num_groups": 3},
        {"num_groups": 0},
        {"window": 0},
        {"max_tokens": 0},
        {"diversity_penalty": -0.1},
        {"h_bf": -1.0},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)

    @pytest.mark.parametrize("value", bad_counts(), ids=repr)
    @pytest.mark.parametrize("name", ["beam_size", "num_groups", "window", "max_tokens"])
    def test_counts_are_integers_in_range(self, name, value):
        # A float or a bool decoded, or failed deep inside decode, before the count rule.
        with pytest.raises(ValueError, match=count_error(name, value)):
            DecodeConfig(**{name: value})

    def test_beam_size_at_most_sys_maxsize(self, medical_ontology, medical_lexicon):
        # Above sys.maxsize decode would fail inside itertools.islice instead.
        with pytest.raises(ValueError,
                           match=r"^beam_size must be an integer in \[1, \d+\], got 2\d{30}$"):
            DecodeConfig(beam_size=2 * 10 ** 30, num_groups=2)
        lm = random_ngram_lm(random.Random(3))
        wide = decode(lm, "", medical_ontology, medical_lexicon, None, "",
                      _config(beam_size=sys.maxsize, max_tokens=3))
        every = decode(lm, "", medical_ontology, medical_lexicon, None, "",
                       _config(beam_size=lm.vocab_size ** 3, max_tokens=3))
        assert (wide.tokens, wide.score.hex()) == (every.tokens, every.score.hex())

    @pytest.mark.parametrize("name", ["diversity_penalty", "h_bf", "p_bf", "s_bf"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="10**400")])
    def test_rejects_non_finite_boosts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got "):
            DecodeConfig(**{name: value})


class TestScores:
    def test_hierarchy_empty_window(self, medical_ontology):
        assert hierarchy_score(medical_ontology, "Drug", set(), 3.0) == 0.0

    def test_hierarchy_half(self, medical_ontology):
        got = hierarchy_score(medical_ontology, "Drug", {"Aspirin", "Fever"}, 3.0)
        assert got == pytest.approx(1.5, abs=1e-9)

    def test_hierarchy_max(self, medical_ontology):
        got = hierarchy_score(medical_ontology, "Drug", {"Aspirin"}, 3.0)
        assert got == pytest.approx(3.0, abs=1e-9)

    def test_hierarchy_unknown_window_class(self, medical_ontology):
        with pytest.raises(UnknownClassError):
            hierarchy_score(medical_ontology, "Drug", {"ghost"}, 3.0)

    def test_property_class_hit_plus_text_match(self, medical_ontology):
        got = property_score(
            medical_ontology, "Fever", {"BodyTemp"},
            "body temperature above reference range", 10.0,
        )
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_property_no_restrictions(self, medical_ontology):
        assert property_score(medical_ontology, "Drug", {"Aspirin"}, "aspirin", 10.0) == 0.0

    def test_property_empty_window(self, medical_ontology):
        assert property_score(medical_ontology, "Fever", set(), "unrelated words here", 10.0) == 0.0

    def test_property_bounds(self, medical_ontology):
        rng = random.Random(3)
        ids = list(medical_ontology.classes)
        for _ in range(50):
            classes = set(rng.sample(ids, rng.randint(0, len(ids))))
            score = property_score(medical_ontology, "Fever", classes, "body temperature", 10.0)
            assert 0.0 <= score <= 10.0 + 1.0

    def test_similarity_is_scaled_rouge(self):
        note = "patient took aspirin for chest pain"
        window = "took aspirin for"
        assert similarity_score(window, note, 10.0) == pytest.approx(
            10.0 * rouge2(window, note), abs=1e-12
        )

    def test_similarity_disjoint_and_empty(self):
        assert similarity_score("alpha beta", "gamma delta", 10.0) == 0.0
        assert similarity_score("", "gamma delta", 10.0) == 0.0

    def test_hierarchy_monotone_under_descendant_superset(self):
        rng = random.Random(17)
        for _ in range(50):
            onto = random_dag(rng, max_nodes=20)
            ids = list(onto.classes)
            base = rng.choice(ids)
            descendants = [c for c in ids if base in onto.ancestors(c)]
            classes = set(rng.sample(ids, rng.randint(0, len(ids) // 2)))
            if not descendants:
                continue
            extra = set(rng.sample(descendants, rng.randint(1, len(descendants))))
            h_before = hierarchy_score(onto, base, classes, 3.0) if classes else 0.0
            h_after = hierarchy_score(onto, base, classes | extra, 3.0)
            assert h_after >= h_before - 1e-12


class TestScoringContext:
    @pytest.mark.parametrize("full_beam", [False, True])
    @pytest.mark.parametrize("classes", ["medical", "fixture"])
    def test_scores_equal_the_score_functions(self, medical_ontology, classes, full_beam):
        onto = medical_ontology if classes == "medical" else make_ontology(FIXTURE_CLASSES)
        lex = build_lexicon(onto)
        # Labels and verbalized restrictions, so windows tag classes and
        # share bigrams with the references.
        phrases = sorted({onto.label(c) for c in onto.classes}
                         | {onto.verbalize_restrictions(c) for c in onto.classes}
                         | {"the", "was", "given"})
        rng = random.Random(41)
        cfg = _config(h_bf=3.0, p_bf=10.0, s_bf=10.0, similarity_full_beam=full_beam)
        for base in [None, *sorted(onto.classes)]:
            note = " ".join(rng.choices(phrases, k=rng.randint(0, 12)))
            ctx = ScoringContext.build(onto, lex, base, note, cfg)
            for _ in range(30):
                window = " ".join(rng.choices(phrases, k=rng.randint(0, 4)))
                full = window + " " + " ".join(rng.choices(phrases, k=rng.randint(0, 4)))
                h, p, s = ctx.scores(window, full if full_beam else None)
                assert s == similarity_score(full if full_beam else window, note, cfg.s_bf)
                if base is None:
                    assert h == p == 0.0
                    continue
                found = {a.class_id for a in annotate(lex, window)}
                assert h == hierarchy_score(onto, base, found, cfg.h_bf)
                assert p == property_score(onto, base, found, window, cfg.p_bf)

    def test_decode_counts_the_note_once(self, medical_ontology, medical_lexicon,
                                         monkeypatch):
        note = "w0 w1 w0 aspirin fever w1 w0"
        counted: list[str] = []
        original = metrics.ngram_counts

        def counting(text, n):
            counted.append(text)
            return original(text, n)

        monkeypatch.setattr(metrics, "ngram_counts", counting)
        monkeypatch.setattr(decoder, "ngram_counts", counting)
        cfg = _config(beam_size=4, num_groups=2, diversity_penalty=0.5,
                      window=1, max_tokens=6, h_bf=3, p_bf=10, s_bf=10)
        decode(random_ngram_lm(random.Random(37)), "", medical_ontology, medical_lexicon,
               "Fever", note, cfg)
        assert counted.count(note) == 1
        assert len(counted) > 2  # the windows went through the patched counter too


# Score groups whose log-softmax comes out differently from a left-to-right
# float sum (Python 3.10's and 3.11's sum) than from a correctly rounded one.
# Found by random search; a group of two sums exactly either way.
_SUM_SENSITIVE = [
    [13.783, 1.442, 9.399],
    [6.927, 16.92, 2.631],
    [4.647, 4.963, 9.007, 0.945],
    [8.775, 16.402, 0.584, 13.798],
    [15.721, 0.219, 1.643, 0.687, 14.252],
    [6.608, 2.898, 1.928, 8.395, 4.592],
    [1.974, 10.968, 1.975, 11.621, 2.996, 5.123],
    [4.797, 0.959, 12.55, 13.164, 8.369, 0.38],
]


def _log_softmax_with(total, raw: list[float]) -> list[str]:
    m = max(raw)
    lse = m + math.log(total(math.exp(r - m) for r in raw))
    return [(r - lse).hex() for r in raw]


@pytest.mark.parametrize("raw", _SUM_SENSITIVE)
def test_log_softmax_sums_exactly_on_every_interpreter(raw):
    left_to_right = functools.partial(functools.reduce, operator.add)
    assert _log_softmax_with(left_to_right, raw) != _log_softmax_with(math.fsum, raw)
    assert [v.hex() for v in decoder._log_softmax(raw)] == _log_softmax_with(math.fsum, raw)


def _rescore(lm, beams: list[BeamState], ctx: ScoringContext):
    """``window_rescore`` on the texts ``decode`` asks ``lm`` for."""
    ids = decoder._window_ids([beams], lm.eos, ctx.cfg.similarity_full_beam)
    return window_rescore([lm.detokenize(i) for i in ids], beams, ctx)


class TestWindowRescore:
    def _beam(self, lm, text: str) -> BeamState:
        tokens = lm.tokenize(text)
        return BeamState(tokens=tokens, cum_logprob=-1.0, window_start=0)

    def test_singleton_group_is_noop(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["aspirin"], "aspirin")
        beam = self._beam(lm, "aspirin")
        cfg = _config()
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, None, "", cfg)
        [breakdown] = _rescore(lm, [beam], ctx)
        assert breakdown.adjusted == 0.0
        assert beam.cum_logprob == -1.0
        assert beam.window_start == len(beam.tokens)

    def test_two_beam_softmax(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["aspirin", "banana"], "aspirin")
        beams = [self._beam(lm, "aspirin"), self._beam(lm, "banana")]
        cfg = _config(h_bf=2.0)
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, "Drug", "", cfg)
        results = _rescore(lm, beams, ctx)
        raw = [2.0, 0.0]
        expected = [r - math.log(math.exp(2.0) + 1.0) for r in raw]
        assert results[0].adjusted == pytest.approx(expected[0], abs=1e-9)
        assert results[1].adjusted == pytest.approx(expected[1], abs=1e-9)
        assert results[0].adjusted == pytest.approx(-0.126928, abs=1e-6)
        assert results[1].adjusted == pytest.approx(-2.126928, abs=1e-6)
        assert beams[0].cum_logprob == pytest.approx(-1.0 + expected[0])

    def test_equal_raws_split_evenly(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["banana", "orange"], "banana")
        beams = [self._beam(lm, "banana"), self._beam(lm, "orange")]
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, "Drug", "",
                                   _config(h_bf=3.0))
        results = _rescore(lm, beams, ctx)
        assert results[0].adjusted == pytest.approx(math.log(0.5), abs=1e-12)
        assert results[1].adjusted == pytest.approx(math.log(0.5), abs=1e-12)

    def test_group_probabilities_sum_to_one(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["aspirin", "fever", "banana"], "aspirin")
        beams = [self._beam(lm, t) for t in ("aspirin", "fever", "banana")]
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, "Drug",
                                   "aspirin fever please", _config(h_bf=3, p_bf=10, s_bf=10))
        results = _rescore(lm, beams, ctx)
        assert sum(math.exp(r.adjusted) for r in results) == pytest.approx(1.0, abs=1e-9)
        assert all(r.adjusted <= 0.0 for r in results)

    @pytest.mark.parametrize("full_beam", [False, True])
    def test_window_texts_per_group(self, medical_ontology, medical_lexicon, full_beam):
        lm = ConstantLm(["aspirin", "fever", "banana", "was", "given"], "aspirin")
        beams = [self._beam(lm, "fever was given aspirin"),
                 self._beam(lm, "banana fever aspirin given")]
        beams[0].window_start = 3
        beams[1].window_start = 1
        beams[1].tokens.append(lm.eos)
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, "Drug",
                                   "fever given aspirin",
                                   _config(h_bf=3, p_bf=10, s_bf=10,
                                           similarity_full_beam=full_beam))
        windows = ["aspirin", "fever aspirin given"]
        fulls = ["fever was given aspirin", "banana fever aspirin given"]
        ids = decoder._window_ids([beams], lm.eos, full_beam)
        assert all(lm.eos not in i for i in ids)
        texts = [lm.detokenize(i) for i in ids]
        assert texts == (windows + fulls if full_beam else windows)
        results = window_rescore(texts, beams, ctx)
        for result, window, full in zip(results, windows, fulls):
            want = ctx.scores(window, full if full_beam else None)
            assert (result.hierarchy, result.property, result.similarity) == want

    def test_already_rescored_beams_skipped(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["aspirin"], "aspirin")
        fresh = self._beam(lm, "aspirin")
        spent = self._beam(lm, "aspirin")
        spent.window_start = len(spent.tokens)
        ctx = ScoringContext.build(medical_ontology, medical_lexicon, None, "", _config())
        results = _rescore(lm, [fresh, spent], ctx)
        assert results[0] is not None
        assert results[1] is None
        assert spent.cum_logprob == -1.0


class _ForkLm(LmContract):
    """Prompt token, then one of two continuations, then EOS."""

    def __init__(self, p_first: float = 0.45, p_second: float = 0.55):
        self.words = ["q", "aspirin", "banana"]
        self.eos = 3
        self.vocab_size = 4
        self.p = {1: math.log(p_first), 2: math.log(p_second)}

    def tokenize(self, text):
        return [self.words.index(w) for w in text.split()]

    def detokenize(self, ids):
        return " ".join(self.words[i] for i in ids if i != self.eos)

    def next_logits(self, prefix):
        if prefix and prefix[-1] == 0:
            return LmStep(dict(self.p))
        return LmStep({self.eos: 0.0})


class _TrapLm(LmContract):
    """First token "a" looks best but only finishes badly; "b" finishes well."""

    def __init__(self):
        self.words = ["q", "a", "b"]
        self.eos = 3
        self.vocab_size = 4

    def tokenize(self, text):
        return [self.words.index(w) for w in text.split()]

    def detokenize(self, ids):
        return " ".join(self.words[i] for i in ids if i != self.eos)

    def next_logits(self, prefix):
        if prefix and prefix[-1] == 0:
            return LmStep({1: math.log(0.5), 2: math.log(0.3), self.eos: math.log(0.2)})
        if prefix and prefix[-1] == 1:
            return LmStep({1: math.log(0.99), self.eos: math.log(0.01)})
        return LmStep({self.eos: 0.0})


class TestDecode:
    def test_greedy_degenerate(self):
        rng = random.Random(23)
        for _ in range(20):
            lm = random_ngram_lm(rng)
            cfg = _config(beam_size=1, max_tokens=6, window=7)
            got = decode(lm, "", make_ontology([{"id": "X", "label": "xx"}]),
                         Lexicon(entries={}), None, "", cfg)
            seq: list[int] = []
            for _ in range(6):
                logits = dense(lm.next_logits(seq))
                token = max(sorted(logits), key=lambda t: logits[t])
                seq.append(token)
                if token == lm.eos:
                    break
            assert got.text == lm.detokenize([t for t in seq if t != lm.eos])

    @pytest.mark.parametrize("full_beam", [False, True])
    def test_one_step_call_per_step(self, medical_ontology, medical_lexicon, monkeypatch,
                                    full_beam):
        lm = random_ngram_lm(random.Random(43))
        calls: list[tuple[list[int], list[list[int]], list[list[int]]]] = []
        original = lm.step

        def spy(prefix, suffixes, texts):
            calls.append((list(prefix), [list(s) for s in suffixes], [list(t) for t in texts]))
            return original(prefix, suffixes, texts)

        rescored: list[list[str]] = []

        def rescore_spy(texts, beams, ctx):
            # The beams are as they were when their window ids were sent.
            participants = [b for b in beams if b.window_start < len(b.tokens)]
            want = [lm.detokenize(b.tokens[b.window_start:]) for b in participants]
            if full_beam:
                want += [lm.detokenize(b.tokens) for b in participants]
            texts = list(itertools.islice(texts, len(want)))
            assert texts == want
            rescored.append(texts)
            return window_rescore(texts, beams, ctx)

        lm.step = spy
        monkeypatch.setattr(decoder, "window_rescore", rescore_spy)
        cfg = _config(beam_size=4, num_groups=2, diversity_penalty=0.5, window=2,
                      max_tokens=6, similarity_full_beam=full_beam)
        prompt = lm.detokenize([0, 1, 0])
        result = decode(lm, prompt, medical_ontology, medical_lexicon, None, "", cfg)
        *steps, (last_prefix, last_suffixes, last_texts) = calls
        assert steps[0][1:] == ([[], []], [])  # one beam per group, no window yet
        assert len(steps) <= cfg.max_tokens
        for step, (prefix, suffixes, texts) in enumerate(steps):
            # The prompt is sent once as the prefix; each suffix is a beam's
            # tokens as the step started from them.
            assert prefix == [0, 1, 0]
            assert [len(s) for s in suffixes] == [step] * len(suffixes)
            assert 1 <= len(suffixes) <= cfg.beam_size
        # Windows that filled mid-decode rode on a later step's call.
        assert any(texts for _, _, texts in steps)
        # The last call asks only for texts: the windows still open, then
        # every beam's full text.
        assert (last_prefix, last_suffixes) == ([], [])
        fulls = last_texts[-cfg.beam_size:]
        assert result.tokens in fulls and lm.eos not in sum(fulls, [])
        assert result.text == lm.detokenize(result.tokens)
        sent = sum(len(texts) for _, _, texts in calls)
        assert sent == sum(map(len, rescored)) + cfg.beam_size

    def test_matches_vanilla_beam_search(self):
        rng = random.Random(29)
        onto = make_ontology([{"id": "X", "label": "xx"}])
        lex = Lexicon(entries={})
        for _ in range(50):
            lm = random_ngram_lm(rng)
            beam_size = rng.choice([2, 3, 6])
            max_tokens = rng.randint(2, 6)
            cfg = _config(beam_size=beam_size, max_tokens=max_tokens,
                          window=max_tokens + 1)
            got = decode(lm, "", onto, lex, None, "", cfg)
            want = _vanilla_beam_text(lm, [], beam_size, max_tokens)
            assert got.text == want

    def test_steering_flip(self, medical_ontology, medical_lexicon):
        lm = _ForkLm()
        outputs = {}
        for h_bf in (0.0, 3.0):
            cfg = _config(window=1, max_tokens=4, h_bf=h_bf)
            outputs[h_bf] = decode(lm, "q", medical_ontology, medical_lexicon,
                                   "Drug", "unrelated note text", cfg).text
        assert outputs[0.0] == "banana"
        assert outputs[3.0] == "aspirin"

    def test_truncation_flag(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["q"], "q q q q q q q q q q")
        cfg = _config(beam_size=1, max_tokens=3)
        result = decode(lm, "q", medical_ontology, medical_lexicon, None, "", cfg)
        assert result.truncated
        assert result.text == "q q q"

    def test_unknown_base(self, medical_ontology, medical_lexicon):
        lm = ConstantLm(["q"], "q")
        with pytest.raises(UnknownClassError, match="unknown class id: 'ghost'"):
            decode(lm, "q", medical_ontology, medical_lexicon, "ghost", "", _config())

    def test_diversity_penalty_separates_groups(self, medical_ontology, medical_lexicon):
        lm = _TrapLm()
        base_cfg = dict(beam_size=2, num_groups=2, window=5, max_tokens=4,
                        h_bf=0.0, p_bf=0.0, s_bf=0.0)
        # Without a penalty the second group duplicates the first and both
        # ride the trap path "a", which never reaches EOS.
        plain = decode(lm, "q", medical_ontology, medical_lexicon, None, "",
                       DecodeConfig(diversity_penalty=0.0, **base_cfg))
        assert plain.truncated and plain.text == "a a a a"
        diverse = decode(lm, "q", medical_ontology, medical_lexicon, None, "",
                         DecodeConfig(diversity_penalty=1.0, **base_cfg))
        assert not diverse.truncated and diverse.text == "b"

    def test_no_next_token_candidate_is_a_value_error(self, medical_ontology,
                                                      medical_lexicon):
        cfg = _config(beam_size=2, num_groups=1)
        with pytest.raises(ValueError, match="no next-token candidate"):
            decode(NoCandidateLm(), "q", medical_ontology, medical_lexicon, None, "", cfg)

    def test_deterministic(self, medical_ontology, medical_lexicon):
        rng = random.Random(31)
        lm = random_ngram_lm(rng)
        cfg = _config(beam_size=4, num_groups=2, diversity_penalty=0.5,
                      window=2, max_tokens=6, h_bf=3, p_bf=10, s_bf=10)
        first = decode(lm, "", medical_ontology, medical_lexicon, "Drug", "w0 w1 w0", cfg)
        second = decode(lm, "", medical_ontology, medical_lexicon, "Drug", "w0 w1 w0", cfg)
        assert first == second


def _vanilla_beam_text(lm, prompt_ids: list[int], beam_size: int, max_tokens: int) -> str:
    """Plain beam search sharing only the documented tie-break contract."""
    beams: list[tuple[list[int], float, bool]] = [(list(prompt_ids), 0.0, False)]
    for _ in range(max_tokens):
        if all(done for _, _, done in beams):
            break
        candidates = []
        for idx, (seq, score, done) in enumerate(beams):
            if done:
                candidates.append((score, idx, -1, seq, True))
                continue
            logits = dense(lm.next_logits(seq))
            for token in sorted(logits):
                candidates.append((score + logits[token], idx, token,
                                   seq + [token], token == lm.eos))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        beams = [(seq, score, done) for score, _, _, seq, done in candidates[:beam_size]]
    finished = [(i, b) for i, b in enumerate(beams) if b[2]]
    pool = finished if finished else list(enumerate(beams))
    _, best = max(pool, key=lambda item: (item[1][1], -item[0]))
    return lm.detokenize([t for t in best[0][len(prompt_ids):] if t != lm.eos])
