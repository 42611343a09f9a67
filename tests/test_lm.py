import contextlib
import gc
import http.client
import itertools
import json
import logging
import math
import pickle
import random
import re
import socket
import sys
import threading
import time
from collections import Counter, defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ontodecode import cli
from ontodecode.annotator import build_lexicon
from ontodecode.decoder import DecodeConfig, decode
from ontodecode.lm import (
    MAX_BODY,
    LmProtocolError,
    LmStep,
    LmUnavailableError,
    NgramLm,
    RemoteLm,
    _id_list,
    is_finite_number,
    is_integer,
    train_ngram,
)

from conftest import (
    bad_counts, count_error, dense, make_ontology, random_ngram_lm, serving,
)


def _per_token_train_ngram(corpus: list[str], n: int) -> NgramLm:
    """The per-token counting loop ``train_ngram`` replaced, kept as its oracle."""
    words, ids = [], {}
    for doc in corpus:
        for word in doc.split():
            if word not in ids:
                ids[word] = len(words)
                words.append(word)
    context_totals, follower_counts = Counter(), defaultdict(Counter)
    for doc in corpus:
        sequence = [ids[w] for w in doc.split()]
        for t, token in enumerate(sequence):
            context = tuple(sequence[max(0, t - (n - 1)):t])
            context_totals[context] += 1
            follower_counts[context][token] += 1
    return NgramLm(words, n, dict(context_totals), dict(follower_counts))


def _id_counting_train_ngram(corpus: list[str], n: int) -> NgramLm:
    """The id-counting ``train_ngram`` that now counts word grams, kept as its oracle."""
    ids: dict[str, int] = {}
    for doc in corpus:
        for word in doc.split():
            ids.setdefault(word, len(ids))
    grams: Counter = Counter()
    for doc in corpus:
        sequence = list(map(ids.__getitem__, doc.split()))
        grams.update(tuple(sequence[:t + 1]) for t in range(min(n - 1, len(sequence))))
        if n <= len(sequence):
            grams.update(zip(*(sequence[i:] for i in range(n))))
    context_totals: dict = {}
    follower_counts: dict = {}
    for gram, count in grams.items():
        context = gram[:-1]
        context_totals[context] = context_totals.get(context, 0) + count
        follower_counts.setdefault(context, Counter())[gram[-1]] = count
    return NgramLm(list(ids), n, context_totals, follower_counts)


class TestTrainNgram:
    @pytest.mark.parametrize("seed", range(40))
    def test_model_pickles_as_the_per_token_loop(self, seed):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(1, 6))]
        corpus = [rng.choice([" ", "  ", "\t"]).join(
                      rng.choice(words) for _ in range(rng.randint(0, 9)))
                  for _ in range(rng.randint(1, 6))]
        corpus.insert(rng.randint(0, len(corpus)), rng.choice(["", " ", "\t \n"]))
        for n in range(1, 6):
            assert (pickle.dumps(train_ngram(corpus, n).__dict__)
                    == pickle.dumps(_per_token_train_ngram(corpus, n).__dict__))

    def test_model_pickles_as_the_id_counting_loop(self):
        # Pickled dicts keep insertion order, so every order is compared too.
        rng = random.Random(28)
        for _ in range(300):
            words = [f"w{i}" for i in range(rng.randint(1, 8))]
            corpus = [" ".join(rng.choice(words) for _ in range(rng.choice([0, 1, 2, 3, 12])))
                      for _ in range(rng.randint(1, 5))]
            for n in range(1, 6):
                assert (pickle.dumps(train_ngram(corpus, n).__dict__)
                        == pickle.dumps(_id_counting_train_ngram(corpus, n).__dict__)), corpus

    def test_contexts_and_followers_keep_first_occurrence_order(self):
        # a=0, b=1, c=2. Sorted order, or every document's short contexts
        # before the full ones, would list the contexts differently.
        lm = train_ngram(["a b a c", "b c", "a a"], 3)
        assert list(lm._context_totals.items()) == [
            ((), 3), ((0,), 2), ((0, 1), 1), ((1, 0), 1), ((1,), 1)]
        assert [(context, list(followers.items()))
                for context, followers in lm._follower_counts.items()] == [
            ((), [(0, 2), (1, 1)]), ((0,), [(1, 1), (0, 1)]), ((0, 1), [(0, 1)]),
            ((1, 0), [(2, 1)]), ((1,), [(2, 1)])]
        assert all(type(followers) is Counter for followers in lm._follower_counts.values())

    def test_order_beyond_every_document_counts_as_the_next_order_up(self):
        # No document has a full n-gram, so only the short contexts count,
        # in time and memory that do not grow with the order.
        corpus = ["a b a c", "b c", "a a b c a"]
        longest = max(len(doc.split()) for doc in corpus)
        huge, fitted = train_ngram(corpus, 10 ** 9), train_ngram(corpus, longest + 1)
        assert list(huge._context_totals.items()) == list(fitted._context_totals.items())
        assert list(huge._follower_counts.items()) == list(fitted._follower_counts.items())

    def test_bigram_conditional(self):
        lm = train_ngram(["a b", "a c"], 2)
        # vocab = {a, b, c} + EOS -> V = 4; count(a)=2, count(a b)=1
        step = lm.next_logits(lm.tokenize("a"))
        b = lm.tokenize("b")[0]
        assert math.exp(step.logits[b]) == pytest.approx((1 + 1) / (2 + 4))

    def test_unigram_single_word(self):
        lm = train_ngram(["x"], 1)
        step = lm.next_logits([])
        x = lm.tokenize("x")[0]
        # x counted once, EOS holds only its pseudo-count; V = 2
        assert math.exp(dense(step)[x]) == pytest.approx(2 / 3)
        assert math.exp(dense(step)[lm.eos]) == pytest.approx(1 / 3)
        assert dense(step)[x] > dense(step)[lm.eos]

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_ngram([], 2)

    def test_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            train_ngram(["a"], 0)

    def test_vocabulary_first_occurrence_order(self):
        lm = train_ngram(["b a", "c a"], 2)
        assert lm.tokenize("b a c") == [0, 1, 2]

    def test_unknown_word(self):
        lm = train_ngram(["a b"], 2)
        # The first unknown word is named.
        with pytest.raises(ValueError, match="^word not in model vocabulary: 'z'$"):
            lm.tokenize("a z y")

    @pytest.mark.parametrize("text", ["", " \t\n "])
    def test_blank_text_has_no_ids(self, text):
        assert train_ngram(["a b"], 2).tokenize(text) == []

    def test_detokenize_roundtrip_skips_eos(self):
        lm = train_ngram(["a b c"], 2)
        ids = lm.tokenize("a b c")
        assert lm.detokenize(ids + [lm.eos]) == "a b c"

    def test_detokenize_bad_id(self):
        lm = train_ngram(["a"], 1)
        with pytest.raises(ValueError, match="out of range"):
            lm.detokenize([99])

    def test_full_vocab_normalization_on_random_prefixes(self):
        rng = random.Random(13)
        lm = train_ngram(["a b c d", "b c a", "d d a"], 3)
        for _ in range(100):
            prefix = [rng.randrange(lm.vocab_size - 1) for _ in range(rng.randint(0, 6))]
            step = lm.next_logits(prefix)
            assert set(dense(step)) == set(range(lm.vocab_size))
            assert sum(math.exp(v) for v in dense(step).values()) == pytest.approx(1.0, abs=1e-6)
            assert not step.truncated

    def test_bitwise_determinism(self):
        rng = random.Random(5)
        for _ in range(20):
            lm = random_ngram_lm(rng)
            prefix = [0] if lm.vocab_size > 1 else []
            first = dense(lm.next_logits(prefix))
            second = dense(lm.next_logits(prefix))
            assert first == second


def _unmemoized(lm: NgramLm, prefix: list[int]) -> list[tuple[int, str]]:
    """``next_logits`` as computed before the per-context memo, floats in hex."""
    context = lm._context(prefix)
    total = lm._context_totals.get(context, 0)
    followers = lm._follower_counts.get(context, {})
    denom = total + lm.vocab_size
    listed = {tid: math.log((n + 1) / denom) for tid, n in followers.items()}
    return [(t, v.hex()) for t, v in listed.items()] + [(-1, math.log(1 / denom).hex())]


def _bits(step: LmStep) -> list[tuple[int, str]]:
    return [(t, v.hex()) for t, v in step.logits.items()] + [(-1, step.floor.hex())]


def _random_prefixes(rng: random.Random, lm: NgramLm, count: int) -> list[list[int]]:
    # Any id, EOS too: EOS never occurs in training, so it makes unseen contexts.
    return [[rng.randrange(lm.vocab_size) for _ in range(rng.randint(0, 5))]
            for _ in range(count)]


class TestStepMemo:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_first_and_repeated_calls_equal_the_formula(self, order):
        rng = random.Random(order)
        for _ in range(10):
            lm = random_ngram_lm(rng, order=order)
            prefixes = _random_prefixes(rng, lm, 15)
            for prefix in prefixes + prefixes:
                step = lm.next_logits(prefix)
                assert _bits(step) == _unmemoized(lm, prefix)
                assert step.vocab_size == lm.vocab_size
            assert lm._steps

    def test_returned_logits_are_the_callers_own(self):
        lm = train_ngram(["a b", "a c", "d a"], 2)
        prefix = lm.tokenize("d")
        want = _bits(lm.next_logits(prefix))
        for _ in range(3):
            step = lm.next_logits(prefix)
            assert _bits(step) == want
            step.logits.clear()
            step.logits[0] = 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_memo_holds_only_contexts_the_model_holds(self, seed):
        rng = random.Random(seed)
        lm = random_ngram_lm(rng, order=rng.randint(1, 4))
        prefixes = _random_prefixes(rng, lm, 50) + [[lm.eos] * lm.order]
        for prefix in prefixes:
            lm.next_logits(prefix)
        queried = {lm._context(prefix) for prefix in prefixes}
        assert set(lm._steps) == queried & set(lm._follower_counts)
        if lm.order > 1:
            assert queried - set(lm._follower_counts)

    def test_threads_sharing_the_model_get_the_formula(self):
        rng = random.Random(17)
        lm = random_ngram_lm(rng, max_words=12, max_lines=20, order=3)
        prefixes = _random_prefixes(rng, lm, 200)
        want = [_unmemoized(lm, prefix) for prefix in prefixes]
        wrong: list[list[int]] = []

        def work(shift: int) -> None:
            for i in range(len(prefixes)):
                prefix = prefixes[(i + shift) % len(prefixes)]
                if _bits(lm.next_logits(prefix)) != want[(i + shift) % len(prefixes)]:
                    wrong.append(prefix)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert set(lm._steps) <= set(lm._follower_counts)


# V = 5: a=0, b=1, c=2, d=3, EOS=4. After "a" the listed ids are b and c,
# so the floor ids are 0, 3 and 4.
_ABCD = train_ngram(["a b", "a c", "d a"], 2)


class TestLmStep:
    @pytest.mark.parametrize("k, skip, want", [
        (2, (), [0, 3]),
        (0, (), []),
        (3, (), [0, 3, 4]),
        (10, (), [0, 3, 4]),
        (2, {0}, [3, 4]),
        (10, {1, 3}, [0, 4]),
        (10, {0, 3, 4}, []),
    ])
    def test_floor_ids(self, k, skip, want):
        step = _ABCD.next_logits(_ABCD.tokenize("a"))
        assert list(step.floor_ids(k, skip)) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_floor_ids_are_the_lowest_unlisted_in_increasing_order(self, seed):
        rng = random.Random(seed)
        lm = random_ngram_lm(rng)
        for _ in range(20):
            prefix = [rng.randrange(lm.vocab_size - 1) for _ in range(rng.randint(0, 3))]
            step = lm.next_logits(prefix)
            k = rng.randint(0, lm.vocab_size + 1)
            skip = set(rng.sample(range(lm.vocab_size), rng.randint(0, lm.vocab_size)))
            at_floor = [t for t in range(lm.vocab_size)
                        if dense(step)[t] == step.floor and t not in step.logits]
            assert list(step.floor_ids(k, skip)) == [t for t in at_floor if t not in skip][:k]

    @pytest.mark.parametrize("seed", range(5))
    def test_ngram_lists_only_the_observed_followers(self, seed):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(2, 6))]
        lines = [[rng.choice(words) for _ in range(rng.randint(1, 6))]
                 for _ in range(rng.randint(2, 5))]
        n = rng.randint(1, 3)
        lm = train_ngram([" ".join(line) for line in lines], n)
        seen = sorted({w for line in lines for w in line})
        for _ in range(20):
            prefix = [rng.choice(seen) for _ in range(rng.randint(0, 3))]
            context = prefix[max(0, len(prefix) - (n - 1)):]
            followers = {line[t] for line in lines for t in range(len(line))
                         if line[max(0, t - (n - 1)):t] == context}
            step = lm.next_logits(lm.tokenize(" ".join(prefix)))
            assert len(step.logits) == len(followers)
            assert set(step.logits) == set(lm.tokenize(" ".join(followers)))

    def test_plain_dict_defaults(self):
        step = LmStep({0: -0.5})
        assert step.floor == -math.inf
        assert step.vocab_size == 0
        assert step.truncated
        assert list(step.floor_ids(10)) == []

    @pytest.mark.parametrize("logits", [{}, {0: -0.5, 3: -1.2}])
    def test_plain_dict_has_no_floor_ids(self, logits):
        assert list(LmStep(logits).floor_ids(10)) == []

    @pytest.mark.parametrize("make_step, truncated", [
        (lambda: _ABCD.next_logits(_ABCD.tokenize("a")), False),
        (lambda: LmStep({1: -0.1, 2: -2.4}), True),
    ])
    def test_truncated_means_floor_minus_inf(self, make_step, truncated):
        step = make_step()
        assert step.truncated is truncated
        assert (step.floor == -math.inf) is truncated


@pytest.fixture
def served_ngram():
    lm = train_ngram(["the dog barks", "the cat sleeps", "the dog sleeps"], 2)
    with serving(lm) as server:
        yield lm, server


def _post_json(server, path: str, payload: object) -> tuple[int, dict]:
    """``payload`` (a str as is, anything else as JSON) posted on a new connection:
    the reply's status and its JSON body."""
    body = payload if isinstance(payload, str) else json.dumps(payload)
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", path, body.encode("utf-8"), {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


def _sent_bodies(monkeypatch) -> list[tuple[str, dict]]:
    """The path and JSON body of each attempt that a ``RemoteLm`` sends from now on."""
    original = RemoteLm._exchange
    sent = []

    def exchange(self, path, body):
        sent.append((path, json.loads(body)))
        return original(self, path, body)

    monkeypatch.setattr(RemoteLm, "_exchange", exchange)
    return sent


_COUNTS = {
    "order": lambda value: train_ngram(["the dog barks"], value),
    "top_k": lambda value: RemoteLm("http://127.0.0.1:9", top_k=value),
    "retries": lambda value: RemoteLm("http://127.0.0.1:9", top_k=1, retries=value),
}


@pytest.mark.parametrize("value", bad_counts(), ids=repr)
@pytest.mark.parametrize("name", [*_COUNTS, "served top_k"])
def test_counts_are_integers_in_range(request, name, value):
    if name == "served top_k":
        _, server = request.getfixturevalue("served_ngram")
        status, reply = _post_json(server, "/v1/logits", {
            "prefix": [], "suffixes": [[]], "detokenize": [], "top_k": value})
        assert status == 400
        assert re.search(count_error("top_k", value), reply["error"])
    else:
        with pytest.raises(ValueError, match=count_error(name, value)):
            _COUNTS[name](value)


_BAD_WAITS = [0, -1.0, math.nan, math.inf, True, "1"]


@pytest.mark.parametrize("name, bound, value", [
    *(("timeout", "> 0", value) for value in _BAD_WAITS),
    *(("backoff", ">= 0", value) for value in _BAD_WAITS[1:]),  # a backoff of 0 waits not at all
], ids=repr)
def test_timeout_and_backoff_are_checked_before_any_request(monkeypatch, name, bound, value):
    # They failed only at the first request, with the HTTP client's or time.sleep's message.
    posts = []
    monkeypatch.setattr(RemoteLm, "_post", lambda *args: posts.append(args))
    message = f"{name} must be a finite number {bound}, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RemoteLm("http://127.0.0.1:9", top_k=1, **{name: value})
    assert posts == []


def test_zero_backoff_and_float_timeout_are_allowed(served_ngram):
    lm, server = served_ngram
    remote = RemoteLm(server.endpoint, top_k=lm.vocab_size, timeout=0.5, backoff=0)
    assert dense(remote.next_logits([])) == dense(lm.next_logits([]))


def _connections(server, monkeypatch) -> tuple[list, list]:
    """The sockets ``server`` accepts from now on, and those it has closed."""
    accepted, closed = [], []
    process, shutdown = server.httpd.process_request, server.httpd.shutdown_request

    def process_spy(request, client_address):
        accepted.append(request)
        process(request, client_address)

    def shutdown_spy(request):
        shutdown(request)
        closed.append(request)

    monkeypatch.setattr(server.httpd, "process_request", process_spy)
    monkeypatch.setattr(server.httpd, "shutdown_request", shutdown_spy)
    return accepted, closed


def _until(condition, timeout: float = 5.0) -> None:
    """Wait until ``condition()`` holds, for at most ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def _raw_reply(server, *writes: bytes, half_close: bool = False) -> bytes:
    """All that ``server`` sends on one new connection after ``writes``, one ``sendall``
    each, up to EOF; ``half_close`` then ends the client's side of the stream."""
    with socket.create_connection((server.host, server.port), timeout=2) as sock:
        for data in writes:
            sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


_TOKENIZE = b'POST /v1/tokenize HTTP/1.1\r\nHost: lm\r\nContent-Length: 15\r\n\r\n{"text": "the"}'


def _per_id_rule(value: object, vocab_size: int) -> bool:
    """The per-id check ``_id_list`` replaced, kept as its oracle."""
    return isinstance(value, list) and all(is_integer(i) and 0 <= i < vocab_size
                                           for i in value)


class TestWireProtocol:
    def test_tokenize_detokenize_roundtrip(self, served_ngram):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        ids = remote.tokenize("the dog sleeps")
        assert ids == lm.tokenize("the dog sleeps")
        assert remote.detokenize(ids) == "the dog sleeps"

    def test_logits_match_and_truncate(self, served_ngram):
        lm, server = served_ngram
        prefix = lm.tokenize("the")
        full = RemoteLm(server.endpoint, top_k=lm.vocab_size).next_logits(prefix)
        assert not full.truncated
        assert dense(full) == dense(lm.next_logits(prefix))

        top2 = RemoteLm(server.endpoint, top_k=2).next_logits(prefix)
        assert len(top2.logits) == 2
        local = dense(lm.next_logits(prefix))
        # Only tokens from the true distribution, never fabricated ones.
        for token, logprob in top2.logits.items():
            assert local[token] == logprob

    def test_batch_sends_the_given_prefix_once(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        the, dog, cat = lm.tokenize("the dog cat")
        sent = _sent_bodies(monkeypatch)
        suffixes = [[dog], [cat], []]
        prefixes = [[the] + suffix for suffix in suffixes]
        steps, texts = remote.step([the], suffixes, [])
        assert sent == [("/v1/logits", {"prefix": [the], "suffixes": [[dog], [cat], []],
                                        "detokenize": [], "top_k": lm.vocab_size})]
        assert [dense(step) for step in steps] == [dense(lm.next_logits(p)) for p in prefixes]
        assert texts == []

        # The client factors out nothing itself: a start the suffixes share
        # is sent once per suffix. The texts ride on the same request.
        steps, texts = remote.step([], prefixes, prefixes + [[]])
        assert sent[1][1] == {"prefix": [], "suffixes": prefixes, "detokenize": prefixes + [[]],
                              "top_k": lm.vocab_size}
        assert [dense(step) for step in steps] == [dense(lm.next_logits(p)) for p in prefixes]
        assert texts == ["the dog", "the cat", "the", ""]

        steps, texts = remote.step([the], [], [[dog], []])
        assert sent[2][1] == {"prefix": [the], "suffixes": [], "detokenize": [[dog], []],
                              "top_k": lm.vocab_size}
        assert (steps, texts) == ([], ["dog", ""])

        # The connection holds [the] now, so the next step sends it as null.
        steps, texts = remote.step([the], suffixes, [])
        assert sent[3][1] == {"prefix": None, "suffixes": [[dog], [cat], []], "detokenize": [],
                              "top_k": lm.vocab_size}
        assert [dense(step) for step in steps] == [dense(lm.next_logits(p)) for p in prefixes]
        assert len(sent) == 4

    def test_empty_batches_send_no_request(self, served_ngram, monkeypatch):
        _, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=2)

        def post(*args):
            raise AssertionError("an empty batch sent a request")

        monkeypatch.setattr(RemoteLm, "_post", post)
        assert remote.step([], [], []) == ([], [])
        assert remote.step([1], [], []) == ([], [])

    @pytest.mark.parametrize("path, payload", [
        ("/v1/logits", {"prefix": [], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [0], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [[0], "01"], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": "01", "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": 0, "suffixes": [[]], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "detokenize": [0], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "batch": [[0]], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "detokenize": []}),
        ("/v1/logits", {"prefix": [0.7], "suffixes": [[True]], "detokenize": [],
                        "top_k": 2.9}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "detokenize": [], "top_k": "2"}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "detokenize": [], "top_k": True}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "detokenize": [], "top_k": 0}),
        ("/v1/logits", {"prefix": [], "suffixes": [[99]], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [[-1]], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [6], "suffixes": [[]], "detokenize": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "detokenize": [[1.9, True]],
                        "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "detokenize": [[6]], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [], "detokenize": "01", "top_k": 2}),
        # A new connection holds no prefix.
        ("/v1/logits", {"prefix": None, "suffixes": [[]], "detokenize": [], "top_k": 2}),
        ("/v1/tokenize", {"text": 5}),
        ("/v1/tokenize", {"text": ["the"]}),
        ("/v1/logits", "{not json"),
    ])
    def test_malformed_batch_gets_400_and_server_keeps_serving(self, served_ngram,
                                                                path, payload):
        lm, server = served_ngram
        status, reply = _post_json(server, path, payload)
        assert status == 400
        assert reply["error"]
        remote = RemoteLm(server.endpoint, top_k=2)
        assert len(remote.next_logits(lm.tokenize("the")).logits) == 2
        assert remote.detokenize(lm.tokenize("the dog")) == "the dog"

    def test_served_decode_makes_one_request_per_step(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        onto = make_ontology([{"id": "Dog", "label": "dog"}])
        cfg = DecodeConfig(beam_size=4, num_groups=2, diversity_penalty=0.5, window=2,
                           max_tokens=6)
        local_steps = []
        step = lm.step

        def spy(prefix, suffixes, texts):
            local_steps.append(len(suffixes))
            return step(prefix, suffixes, texts)

        monkeypatch.setattr(lm, "step", spy)
        want = decode(lm, "the", onto, build_lexicon(onto), "Dog", "the dog barks", cfg)
        monkeypatch.undo()
        n_steps = len(local_steps) - 1
        assert n_steps == cfg.max_tokens and local_steps[-1] == 0

        sent = _sent_bodies(monkeypatch)
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        assert decode(remote, "the", onto, build_lexicon(onto), "Dog", "the dog barks",
                      cfg) == want
        # One tokenize, one logits request per step, and one final request
        # that asks only for texts.
        assert [path for path, _ in sent] == ["/v1/tokenize"] + ["/v1/logits"] * (n_steps + 1)
        *steps, (_, last) = sent[1:]
        assert all(len(body["suffixes"]) >= 1 for _, body in steps)
        # The prompt crossed once, as text: the connection holds its ids from
        # the tokenize reply, and no logits request sends them.
        assert sent[0][1] == {"text": "the"}
        assert all(body["prefix"] is None for _, body in steps)
        assert (last["prefix"], last["suffixes"]) == ([], [])
        assert any(body["detokenize"] for _, body in steps)  # windows rode on steps
        assert want.tokens in last["detokenize"]

    def test_served_decode_uses_one_connection(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        onto = make_ontology([{"id": "Dog", "label": "dog"}])
        # Every step of this decode runs to max_tokens (see the test above).
        cfg = DecodeConfig(beam_size=4, num_groups=2, diversity_penalty=0.5, window=2,
                           max_tokens=6)
        original = RemoteLm._post
        paths = []

        def post(self, path, payload):
            paths.append(path)
            return original(self, path, payload)

        monkeypatch.setattr(RemoteLm, "_post", post)
        accepted, _ = _connections(server, monkeypatch)
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        decode(remote, "the", onto, build_lexicon(onto), "Dog", "the dog barks", cfg)
        assert paths == ["/v1/tokenize"] + ["/v1/logits"] * (cfg.max_tokens + 1)
        assert len(accepted) == 1

    def test_accepted_socket_sends_without_delay(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        accepted, _ = _connections(server, monkeypatch)
        remote = RemoteLm(server.endpoint, top_k=2)
        assert remote.tokenize("the dog") == lm.tokenize("the dog")
        (sock,) = accepted
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_served_summarize_leaves_no_connection_open(self, fixture_tree, tmp_path,
                                                        monkeypatch, capsys):
        lines = fixture_tree["lm_corpus"].read_text(encoding="utf-8").splitlines()
        lm = train_ngram([line for line in lines if line.strip()], 2)
        with serving(lm) as server:
            accepted, closed = _connections(server, monkeypatch)
            # With the collector off, only reference counting can close the
            # sessions of the RemoteLm that main drops.
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                code = cli.main([
                    "summarize", str(fixture_tree["admission"]), "--domain", "cardio",
                    "--config", str(fixture_tree["config"]),
                    "--set", f"output_dir={tmp_path / 'out'}", "--set", "lm.kind=remote",
                    "--set", f"lm.endpoint={server.endpoint}",
                    "--set", f"lm.top_k={lm.vocab_size}"])
                assert code == 0, capsys.readouterr().err
                # Every request of the call goes over one kept-alive connection.
                assert len(accepted) == 1
                deadline = time.monotonic() + 5
                while len(closed) < len(accepted) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert sorted(map(id, closed)) == sorted(map(id, accepted))
            finally:
                if gc_was_enabled:
                    gc.enable()

    @pytest.mark.parametrize("value", [
        True, False, 1.0, -1, 2, 10 ** 400, -10 ** 400, "3", [1], None, [], {}, 0, 1])
    def test_id_list_equals_the_per_id_rule(self, value):
        vocab_size = 2
        valid = [1, 0, 1]
        cases = [value] + [valid[:pos] + [value] + valid[pos:length]
                           for length in range(len(valid) + 1) for pos in range(length + 1)]
        for case in cases:
            case = json.loads(json.dumps(case))  # the values a request body can hold
            if _per_id_rule(case, vocab_size):
                assert _id_list(case, "ids", vocab_size) is case
            else:
                with pytest.raises(ValueError, match=re.escape("ids must be a list of token "
                                                               "ids in [0, 2)")):
                    _id_list(case, "ids", vocab_size)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_logprob_check_equals_the_per_entry_rule(self, length):
        # The per-entry rule the array passes replaced, kept as their oracle: a
        # NaN anywhere must not hide an int too large for a float from min and max.
        remote = RemoteLm("http://127.0.0.1:9", top_k=length)
        pool = [-1.0, 0, -0.0, 0.5, 2, math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400,
                True, "-1", None]
        for values in itertools.product(pool, repeat=length):
            step = {"ids": list(range(length)), "logprobs": list(values), "floor": None}
            if all(is_finite_number(value) and value <= 0 for value in values):
                logits = remote._parse_step(step, length).logits
                assert logits == dict(enumerate(map(float, values)))
                assert all(type(value) is float for value in logits.values())
            else:
                with pytest.raises(LmProtocolError, match="non-finite or positive logprob"):
                    remote._parse_step(step, length)

    @pytest.mark.parametrize("path, length, body, status", [
        ("/v1/tokenize", "-1", b'{"text": "the"}', 400),
        ("/v1/tokenize", None, b'{"text": "the"}', 400),
        ("/v1/tokenize", "abc", b'{"text": "the"}', 400),
        # Too long for a read, or for int(): each had raised in the handler, with no reply.
        ("/v1/tokenize", "1" * 19, b'{"text": "the"}', 400),
        ("/v1/tokenize", "1" * 5000, b'{"text": "the"}', 400),
        # Over the cap: answered before any body byte is read, so none is sent.
        ("/v1/tokenize", "1" + "0" * 17, b"", 413),
        ("/v1/tokenize", str(MAX_BODY + 1), b"", 413),
        ("/v1/tokenize", "15", b'{"text": "the"]', 400),
        ("/v1/generate", "15", b'{"text": "the"}', 404),
    ])
    def test_error_reply_ends_the_connection(self, served_ngram, capfd,
                                             path, length, body, status):
        lm, server = served_ngram
        headers = "" if length is None else f"Content-Length: {length}\r\n"
        reply = _raw_reply(server, f"POST {path} HTTP/1.1\r\nHost: lm\r\n{headers}\r\n"
                                   .encode("ascii") + body)
        # Exactly one reply, then EOF: a body left unread is never taken
        # for a second request.
        assert re.findall(rb"HTTP/1\.[01] (\d{3})", reply) == [str(status).encode("ascii")]
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in head
        assert json.loads(payload)["error"]
        assert capfd.readouterr().err == ""
        assert RemoteLm(server.endpoint, top_k=2).tokenize("the dog") == lm.tokenize("the dog")

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"GET /v1/tokenize HTTP/1.1\r\nHost: lm\r\n\r\n", 501, id="GET"),
        pytest.param(_TOKENIZE.replace(b"HTTP/1.1", b"HTTP/1.0"), 200, id="HTTP/1.0"),
        pytest.param(_TOKENIZE.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"), 200,
                     id="Connection: close"),
        pytest.param(b"POST /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414,
                     id="request line over 65536 bytes"),
        pytest.param(b"POST /v1/tokenize HTTP/1.1\r\nX: " + b"a" * 65536 + b"\r\n\r\n", 431,
                     id="header line over 65536 bytes"),
        pytest.param(b"POST /v1/tokenize HTTP/1.1\r\n" + b"X: a\r\n" * 101 + b"\r\n", 431,
                     id="101 headers"),
        pytest.param(b"POST /v1/tokenize HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b'f\r\n{"text": "the"}\r\n0\r\n\r\n', 400, id="chunked"),
    ])
    def test_request_answered_then_the_server_closes(self, served_ngram, capfd,
                                                     request_bytes, status):
        lm, server = served_ngram
        # The client keeps writing open: the EOF that ends the reply is the server's.
        reply = _raw_reply(server, request_bytes)
        assert re.findall(rb"HTTP/1\.[01] (\d{3})", reply) == [str(status).encode("ascii")]
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        if status == 200:
            assert json.loads(payload) == {"ids": lm.tokenize("the")}
        else:
            assert json.loads(payload)["error"]
        assert capfd.readouterr().err == ""
        assert RemoteLm(server.endpoint, top_k=2).tokenize("the dog") == lm.tokenize("the dog")

    @pytest.mark.parametrize("bytewise", [False, True], ids=["one write", "one byte a write"])
    def test_pipelined_requests_get_one_write_per_reply(self, served_ngram, monkeypatch,
                                                        bytewise):
        lm, server = served_ngram
        sendall = socket.socket.sendall
        writes = []

        def spy(sock, data, *args):
            if sock.getsockname()[1] == server.port:  # the server's end, not the client's
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", spy)
        requests = _TOKENIZE + _TOKENIZE.replace(b"the", b"dog")
        reply = _raw_reply(server, *([requests[i:i + 1] for i in range(len(requests))]
                                     if bytewise else [requests]), half_close=True)
        assert b"".join(writes) == reply
        assert len(writes) == 2
        for write, text in zip(writes, ["the", "dog"]):
            head, _, body = write.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"Connection" not in head
            assert f"\r\nContent-Length: {len(body)}".encode("ascii") in head
            assert json.loads(body) == {"ids": lm.tokenize(text)}

    @pytest.mark.parametrize("path, payload", [
        ("/v1/generate", {"text": "the"}),
        # The texts ride on /v1/logits; there is no detokenize endpoint.
        ("/v1/detokenize", {"batch": [[0]]}),
    ])
    def test_unknown_path_gets_404(self, served_ngram, path, payload):
        _, server = served_ngram
        assert _post_json(server, path, payload) == (404, {"error": f"unknown path {path!r}"})

    def test_bad_content_length_gets_400(self, served_ngram):
        _, server = served_ngram
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/tokenize")
            conn.putheader("Content-Length", "abc")
            conn.endheaders(b'{"text": "the"}')
            reply = conn.getresponse()
            assert reply.status == 400
            assert json.loads(reply.read())["error"]
        finally:
            conn.close()

    def test_eos_and_vocab_size_probe(self, served_ngram):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=3)
        assert remote.eos == lm.eos
        assert remote.vocab_size == lm.vocab_size

    def test_bad_top_k(self, served_ngram):
        _, server = served_ngram
        with pytest.raises(ValueError):
            RemoteLm(server.endpoint, top_k=0).next_logits([])

    def test_each_thread_posts_through_its_own_session(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=2)
        original = RemoteLm._post
        both_posting = threading.Barrier(2)
        seen = []

        def post(self, path, payload):
            seen.append(threading.get_ident())
            # Both threads post at once, so neither can reuse the other's
            # thread id or find the other's connection idle.
            both_posting.wait(timeout=5)
            return original(self, path, payload)

        monkeypatch.setattr(RemoteLm, "_post", post)
        accepted, _ = _connections(server, monkeypatch)
        prefix = lm.tokenize("the")
        steps = []
        workers = [threading.Thread(target=lambda: steps.append(remote.next_logits(prefix)))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert [len(step.logits) for step in steps] == [2, 2]
        thread_a, thread_b = seen
        assert thread_a != thread_b
        assert len(accepted) == 2

    def test_connection_closed_while_idle_is_replaced_silently(self, served_ngram,
                                                               monkeypatch, caplog):
        lm, server = served_ngram
        accepted, closed = _connections(server, monkeypatch)

        def drop_idle_connection():
            accepted[-1].shutdown(socket.SHUT_RD)  # the handler reads EOF and closes it
            _until(lambda: len(closed) == len(accepted))
            assert closed == accepted

        # A retried attempt would wait 5 s before the next one.
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size, backoff=5)
        ids = remote.tokenize("the dog")
        assert ids == lm.tokenize("the dog")
        sent = _sent_bodies(monkeypatch)
        start = time.monotonic()
        with caplog.at_level(logging.WARNING, logger="ontodecode.lm"):
            drop_idle_connection()
            # The new connection holds no prefix, so the step sends it in full.
            (step,), _ = remote.step(ids, [[]], [])
            assert dense(step) == dense(lm.next_logits(ids))
            assert sent == [("/v1/logits", {"prefix": ids, "suffixes": [[]], "detokenize": [],
                                             "top_k": lm.vocab_size})]
            drop_idle_connection()
            assert remote.tokenize("the cat") == lm.tokenize("the cat")
        assert time.monotonic() - start < 2
        assert caplog.records == []
        assert len(accepted) == 3

    def test_only_the_prefix_the_connection_holds_is_sent_as_null(self, served_ngram,
                                                                  monkeypatch):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        dog = remote.tokenize("the dog")
        sent = _sent_bodies(monkeypatch)
        cat = lm.tokenize("the cat")
        want = [cat.copy(), None, dog]
        for _ in range(2):
            (step,), _ = remote.step(cat, [[]], [])
            assert dense(step) == dense(lm.next_logits(cat))
        # The caller changes its list in place: the connection holds a copy.
        cat[-1] = dog[-1]
        (step,), _ = remote.step(cat, [[]], [])
        assert dense(step) == dense(lm.next_logits(dog))
        assert [body["prefix"] for _, body in sent] == want

    def test_retry_after_a_server_error_sends_the_prefix_in_full(self, served_ngram,
                                                                 monkeypatch, caplog):
        lm, server = served_ngram
        failed = []

        class FailNullOnce(server.httpd.RequestHandlerClass):
            def do_POST(self, path, body):  # noqa: N802 - the handler's name
                if not failed and json.loads(body).get("prefix", []) is None:
                    failed.append(body)
                    # A 500 that keeps the connection open: the client must leave it.
                    self.request.sendall(b"HTTP/1.1 500 Internal Server Error\r\n"
                                         b"Content-Length: 0\r\n\r\n")
                    return
                super().do_POST(path, body)

        monkeypatch.setattr(server.httpd, "RequestHandlerClass", FailNullOnce)
        accepted, _ = _connections(server, monkeypatch)
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size, backoff=0)
        ids = remote.tokenize("the dog")
        sent = _sent_bodies(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="ontodecode.lm"):
            (step,), _ = remote.step(ids, [[]], [])
        assert dense(step) == dense(lm.next_logits(ids))
        assert [body["prefix"] for _, body in sent] == [None, ids]
        assert len(failed) == 1 and len(accepted) == 2
        (record,) = caplog.records
        assert "attempt 1 of 3 failed, retrying: " in record.getMessage()
        assert "server error 500" in record.getMessage()

    def test_threads_sharing_a_client_hold_their_own_prefixes(self, served_ngram):
        lm, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=lm.vocab_size)
        texts = ["the dog", "the cat"]
        prompts = [lm.tokenize(text) for text in texts]
        suffixes = [[], lm.tokenize("sleeps")]
        # One thread acts per turn, in this order. Each tokenizes its text,
        # steps on the other's prompt, then twice on its own, the second
        # time sending null. A prefix held per client would send null for
        # the other's prompt; one held per server would decode it.
        script = [(0, None, 0), (1, None, 1), (0, 1, None), (1, 0, None),
                  (0, 0, None), (1, 1, None), (0, 0, None), (1, 1, None)]
        turn = threading.Barrier(2)
        got = []

        def run(me):
            for who, prompt, text in script:
                if who == me and text is not None:
                    assert remote.tokenize(texts[text]) == prompts[text]
                elif who == me:
                    got.append((prompt, remote.step(prompts[prompt], suffixes, [])[0]))
                turn.wait(timeout=5)

        workers = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert [prompt for prompt, _ in got] == [1, 0, 0, 1, 0, 1]
        for prompt, steps in got:
            want = lm.step(prompts[prompt], suffixes, [])[0]
            assert ([[value.hex() for value in dense(step).values()] for step in steps]
                    == [[value.hex() for value in dense(step).values()] for step in want])

    def test_each_request_is_one_write(self, served_ngram, monkeypatch):
        lm, server = served_ngram
        sendall = socket.socket.sendall
        writes = []

        def spy(sock, data, *args):
            if sock.getpeername()[1] == server.port:  # the client's end, not the server's
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", spy)
        remote = RemoteLm(server.endpoint, top_k=2)
        the, dog = remote.tokenize("the dog")
        remote.step([the], [[], [dog]], [[dog]])
        remote.next_logits([dog])
        assert len(writes) == 3
        for write, path in zip(writes, ["/v1/tokenize", "/v1/logits", "/v1/logits"]):
            head, _, body = write.partition(b"\r\n\r\n")
            assert head.startswith(f"POST {path} HTTP/1.1\r\nHost: {server.host}:{server.port}\r\n"
                                   .encode("ascii"))
            assert f"\r\nContent-Length: {len(body)}".encode("ascii") in head
            assert isinstance(json.loads(body), dict)

    def test_endpoint_path_prefixes_every_request(self, served_ngram, monkeypatch, caplog):
        _, server = served_ngram
        accepted, _ = _connections(server, monkeypatch)
        # serve-ngram knows no /lm prefix, so its 404 names the path it got.
        remote = RemoteLm(server.endpoint + "/lm/", top_k=2, backoff=5)
        message = "unexpected status 404: " + json.dumps(
            {"error": "unknown path '/lm/v1/tokenize'"})
        # The 404 says Connection: close, so the second request goes out on
        # a new connection, with no failed attempt.
        with caplog.at_level(logging.WARNING, logger="ontodecode.lm"):
            for _ in range(2):
                with pytest.raises(LmProtocolError, match=re.escape(message)):
                    remote.tokenize("the")
        assert caplog.records == []
        assert len(accepted) == 2

    def test_connections_close_with_their_thread_and_with_the_client(self, served_ngram,
                                                                      monkeypatch):
        lm, server = served_ngram
        accepted, closed = _connections(server, monkeypatch)
        remote = RemoteLm(server.endpoint, top_k=2)
        worker = threading.Thread(target=remote.tokenize, args=("the",))
        worker.start()
        worker.join(timeout=10)
        assert remote.tokenize("the dog") == lm.tokenize("the dog")
        assert len(accepted) == 2
        # The worker's connection closed when the worker ended, the main
        # thread's when the client was dropped; neither warns.
        _until(lambda: closed)
        assert closed == [accepted[0]]
        del remote
        _until(lambda: len(closed) == 2)
        assert sorted(map(id, closed)) == sorted(map(id, accepted))

    def test_shutdown_ends_kept_alive_connections(self):
        lm = train_ngram(["the dog barks"], 2)
        with serving(lm) as server:
            remote = RemoteLm(server.endpoint, top_k=2, retries=2, backoff=0)
            assert remote.tokenize("the dog") == lm.tokenize("the dog")
        with pytest.raises(LmUnavailableError, match="2 attempts"):
            remote.tokenize("the dog")

    def test_client_that_leaves_early_prints_no_traceback(self, served_ngram, monkeypatch,
                                                          capfd):
        _, server = served_ngram
        accepted, closed = _connections(server, monkeypatch)
        with socket.create_connection((server.host, server.port), timeout=2) as sock:
            sock.sendall(b"POST /v1/tokenize HTTP/1.1\r\nHost: lm\r\n"
                         b"Content-Length: 15\r\n\r\n" + b'{"text": "the"}'[:14])
        # The server reads the short body, answers 400 and finds no reader.
        _until(lambda: accepted and closed)
        assert closed == accepted
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("error, printed", [
        (BrokenPipeError(32, "Broken pipe"), False),
        (ConnectionResetError(104, "Connection reset by peer"), False),
        (RuntimeError("handler bug"), True),
        (ValueError("handler bug"), True),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_only_a_client_that_left_early_is_no_error(self, served_ngram, capfd,
                                                       error, printed):
        _, server = served_ngram
        try:
            raise error
        except type(error):
            server.httpd.handle_error(None, ("127.0.0.1", 1))
        err = capfd.readouterr().err
        assert ("Traceback" in err and type(error).__name__ in err) is printed

    def test_unreachable_endpoint(self):
        with pytest.raises(LmUnavailableError, match="3 attempts"):
            RemoteLm("http://127.0.0.1:9", top_k=1, timeout=0.2, retries=3,
                     backoff=0.01).next_logits([])


@pytest.mark.parametrize("endpoint", [
    "localhost:8000", "ftp://x/", "http://", "http:///v1", "//h:1", "", None, 8000,
    "http://h:abc", "http://h:70000", "http://[::1", "http://u:p@h:1", "http://h:1/?q=1",
    "http://h:1/#top", "http://h:1/a b", "http://h\u00e9:1", "http://h:1/\u00e9",
])
def test_endpoint_must_be_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError):
        RemoteLm(endpoint, top_k=1)


@pytest.mark.parametrize("endpoint", [
    "http://127.0.0.1:9", "http://Example.org/", "https://h.example:8443/lm/",
    "http://[::1]:8000/a/b", "HTTP://h:1",
])
def test_endpoint_with_a_host_is_taken(endpoint):
    assert RemoteLm(endpoint, top_k=1).endpoint == endpoint.rstrip("/")


def _canned_server(body: str, status: int = 200, fail_times: int = 0):
    state = {"hits": 0}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            state["hits"] += 1
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if state["hits"] <= fail_times:
                self.send_response(500)
                self.end_headers()
                return
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval, so that shutdown() returns at once.
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    return httpd, state


def _next_logits(remote: RemoteLm):
    return remote.next_logits([1])


class TestRemoteValidation:
    def run_against(self, body: str, status: int = 200, fail_times: int = 0, top_k: int = 5,
                    call=_next_logits):
        httpd, state = _canned_server(body, status, fail_times)
        endpoint = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            remote = RemoteLm(endpoint, top_k=top_k, timeout=1, retries=3, backoff=0.01)
            return call(remote), state
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_passthrough(self):
        body = json.dumps({"steps": [{"ids": [4], "logprobs": [-0.1], "floor": None}],
                           "texts": [], "eos_id": 9, "vocab_size": 10})
        step, _ = self.run_against(body)
        assert step.logits == {4: -0.1}
        assert step.truncated

    def test_floor_with_top_k_covering_the_vocabulary(self):
        step, _ = self.run_against(_logits_body([4], floor=-2.5), top_k=10)
        assert step == LmStep({4: -1.0}, -2.5, 10)
        assert not step.truncated

    @pytest.mark.parametrize("logprob", ["NaN", pytest.param("1" + "0" * 400, id="10**400"),
                                         pytest.param("-1" + "0" * 400, id="-10**400")])
    @pytest.mark.parametrize("position", [0, 1])
    def test_nan_logprob_rejected(self, logprob, position):
        # First or after a number: min and max treat a NaN in each place differently.
        logprobs = ["-1.0", "-1.0"]
        logprobs[position] = logprob
        body = ('{"steps": [{"ids": [3, 4], "logprobs": [%s], "floor": null}], '
                '"texts": [], "eos_id": 9, "vocab_size": 10}' % ", ".join(logprobs))
        with pytest.raises(LmProtocolError, match="non-finite"):
            self.run_against(body)

    def test_missing_field_rejected(self):
        body = json.dumps({"steps": []})
        with pytest.raises(LmProtocolError, match="missing field"):
            self.run_against(body)

    @pytest.mark.parametrize("step", [
        {"ids": [], "logprobs": []},
        {"floor": None},
        [],
        {"logprobs": [], "floor": None},
        {"ids": [], "floor": None},
        {"ids": None, "logprobs": [], "floor": None},
        {"ids": [], "logprobs": None, "floor": None},
        {"ids": 5, "logprobs": [-1.0], "floor": None},
        {"ids": [5], "logprobs": -1.0, "floor": None},
        {"ids": [4, 5], "logprobs": [-1.0], "floor": None},
        {"ids": [4], "logprobs": [-1.0, -2.0], "floor": None},
        {"ids": [], "logprobs": [-1.0], "floor": None},
    ])
    def test_malformed_step_rejected(self, step):
        body = json.dumps({"steps": [step], "texts": [], "eos_id": 9, "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="malformed logits step"):
            self.run_against(body)

    def test_non_json_rejected(self):
        with pytest.raises(LmProtocolError, match="not JSON"):
            self.run_against("<html>oops</html>")

    def test_retry_then_succeed(self):
        body = json.dumps({"steps": [{"ids": [0], "logprobs": [-1.0], "floor": None}],
                           "texts": [], "eos_id": 1, "vocab_size": 2})
        step, state = self.run_against(body, fail_times=2)
        assert state["hits"] == 3
        assert step.logits == {0: -1.0}

    def test_each_retry_logs_a_warning(self, caplog):
        body = _logits_body([0])
        with caplog.at_level(logging.WARNING, logger="ontodecode.lm"):
            self.run_against(body, fail_times=2)
        assert len(caplog.records) == 2
        for attempt, record in enumerate(caplog.records, start=1):
            assert record.levelno == logging.WARNING
            assert "/v1/logits" in record.getMessage()
            assert f"attempt {attempt} of 3" in record.getMessage()
            assert "server error 500" in record.getMessage()

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ontodecode.lm"):
            self.run_against(body)
        assert caplog.records == []

    @pytest.mark.parametrize("status", [400, 404])
    def test_client_error_status_is_not_retried(self, status):
        httpd, state = _canned_server('{"error": "no"}', status=status)
        remote = RemoteLm(f"http://127.0.0.1:{httpd.server_address[1]}", top_k=5,
                          timeout=1, retries=3, backoff=0.01)
        try:
            with pytest.raises(LmProtocolError, match=f"unexpected status {status}"):
                remote.next_logits([1])
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert state["hits"] == 1

    @pytest.mark.parametrize("body", [{"id": [0]}, {"ids": 3}, {"ids": None}])
    def test_tokenize_reply_without_ids_list_rejected(self, body):
        with pytest.raises(LmProtocolError, match="missing 'ids' list"):
            self.run_against(json.dumps(body), call=lambda remote: remote.tokenize("a"))

    @pytest.mark.parametrize("logprob", [True, False, "-1.0", None, [-1.0], {}, math.inf,
                                         -math.inf])
    def test_logprob_not_a_number_rejected(self, logprob):
        body = json.dumps({"steps": [{"ids": [3, 4], "logprobs": [-1.0, logprob], "floor": None}],
                           "texts": [], "eos_id": 9, "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="non-finite or positive logprob"):
            self.run_against(body)

    def test_more_entries_than_top_k_rejected(self):
        with pytest.raises(LmProtocolError, match="3 tokens for top_k=2"):
            self.run_against(_logits_body([0, 1, 2]), top_k=2)

    def test_persistent_server_error(self):
        with pytest.raises(LmUnavailableError):
            self.run_against("", status=500, fail_times=99)

    def test_duplicate_token_id_rejected(self):
        with pytest.raises(LmProtocolError, match="listed twice"):
            self.run_against(_logits_body([4, 2, 4]))

    @pytest.mark.parametrize("tid", [10, 11, -1, "x", 1.7, True, False, None, [0]])
    def test_token_id_outside_vocabulary_rejected(self, tid):
        with pytest.raises(LmProtocolError, match=re.escape(
                "logits step ids must be a list of token ids in [0, 10)")):
            self.run_against(_logits_body([0, tid]))

    @pytest.mark.parametrize("n_steps, prefixes", [
        (2, [[1]]),
        (0, [[1]]),
        (1, [[1], [2]]),
        (3, [[1], [2]]),
    ])
    def test_step_count_other_than_the_suffix_count_rejected(self, n_steps, prefixes):
        with pytest.raises(LmProtocolError,
                           match=f"{n_steps} steps for {len(prefixes)} suffixes"):
            self.run_against(_logits_body([0], steps=n_steps),
                             call=lambda remote: remote.step([], prefixes, []))

    def test_steps_not_a_list_rejected(self):
        body = json.dumps({"steps": {"ids": [], "logprobs": []}, "texts": [], "eos_id": 9,
                           "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="dict steps for 1 suffixes"):
            self.run_against(body)

    @pytest.mark.parametrize("eos_id, vocab_size", [
        (9, None),
        ("x", 10),
        (9, 2.5),
        (True, 10),
    ])
    def test_eos_id_or_vocab_size_not_an_integer_rejected(self, eos_id, vocab_size):
        with pytest.raises(LmProtocolError, match="must be integers"):
            self.run_against(_logits_body([0], eos_id, vocab_size))

    @pytest.mark.parametrize("body", [
        {"ids": ["x"]},
        {"ids": [None]},
        {"ids": [1.9]},
        {"ids": [0, True]},
        {"ids": [True]},
        {"ids": [1.5]},
        {"ids": ["3"]},
        {"ids": [0, 1, 2.0]},
    ])
    def test_tokenize_id_not_an_integer_rejected(self, body):
        with pytest.raises(LmProtocolError, match="not an integer"):
            self.run_against(json.dumps(body), call=lambda remote: remote.tokenize("a"))

    @pytest.mark.parametrize("floor", ['"-1.0"', "true", "[]", "NaN", "Infinity", "-Infinity",
                                       pytest.param("1" + "0" * 400, id="10**400")])
    def test_floor_not_a_finite_number_rejected(self, floor):
        body = ('{"steps": [{"ids": [], "logprobs": [], "floor": %s}], "texts": [], '
                '"eos_id": 9, "vocab_size": 10}' % floor)
        with pytest.raises(LmProtocolError, match="floor must be a finite number"):
            self.run_against(body, top_k=10)

    @pytest.mark.parametrize("value", [1e-9, 0.5, 1])
    @pytest.mark.parametrize("field", ["logprob", "floor"])
    def test_log_prob_above_zero_rejected(self, field, value):
        # A probability is at most 1, so a log-prob above 0 is a broken reply.
        body = (_logits_body([4], floor=value) if field == "floor" else json.dumps(
            {"steps": [{"ids": [3, 4], "logprobs": [-1.0, value], "floor": None}],
             "texts": [], "eos_id": 9, "vocab_size": 10}))
        match = ("floor must be a finite number <= 0 or null" if field == "floor"
                 else "logits step holds a non-finite or positive logprob")
        with pytest.raises(LmProtocolError, match=re.escape(match)):
            self.run_against(body, top_k=10)

    @pytest.mark.parametrize("value", [0.0, 0, -0.0])
    def test_log_prob_of_zero_accepted(self, value):
        step, _ = self.run_against(_logits_body([4], floor=value), top_k=10)
        assert step == LmStep({4: -1.0}, 0.0, 10)
        step, _ = self.run_against(json.dumps(
            {"steps": [{"ids": [4], "logprobs": [value], "floor": None}],
             "texts": [], "eos_id": 9, "vocab_size": 10}))
        assert step == LmStep({4: 0.0})
        assert all(type(logprob) is float for logprob in step.logits.values())

    def test_floor_below_full_vocabulary_top_k_rejected(self):
        with pytest.raises(LmProtocolError, match="floor sent for top_k=9"):
            self.run_against(_logits_body([0], floor=-2.0), top_k=9)

    def test_texts_passthrough(self):
        (steps, texts), _ = self.run_against(
            _logits_body([0], steps=0, texts=["a b", ""]),
            call=lambda remote: remote.step([], [], [[0, 1], []]))
        assert (steps, texts) == ([], ["a b", ""])

    @pytest.mark.parametrize("texts, match", [
        (["a"], "1 texts for 2 id lists"),
        (["a", "b", "c"], "3 texts for 2 id lists"),
        (["a", 1], "not a string"),
        (["a", None], "not a string"),
        ("a b", "str texts for 2 id lists"),
        (None, "NoneType texts for 2 id lists"),
    ])
    def test_bad_texts_reply_rejected(self, texts, match):
        with pytest.raises(LmProtocolError, match=match):
            self.run_against(_logits_body([0], steps=0, texts=texts),
                             call=lambda remote: remote.step([], [], [[0], [1]]))

    def test_reply_without_texts_rejected(self):
        body = json.dumps({"steps": [], "eos_id": 9, "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="missing field 'texts'"):
            self.run_against(body, call=lambda remote: remote.detokenize([0]))

    def test_texts_reply_not_an_object_rejected(self):
        with pytest.raises(LmProtocolError, match="not a JSON object"):
            self.run_against(json.dumps(["a", "b"]),
                             call=lambda remote: remote.step([], [], [[0], [1]]))


def _logits_body(ids: list[int], eos_id: int = 9, vocab_size: int = 10,
                 floor: float | None = None, steps: int = 1, texts: object = ()) -> str:
    step = {"ids": ids, "logprobs": [-1.0] * len(ids), "floor": floor}
    return json.dumps({"steps": [step] * steps, "texts": texts, "eos_id": eos_id,
                       "vocab_size": vocab_size})


def _scripted_server(bodies: list[str]):
    """Serves ``bodies`` in order, one per request, repeating the last."""
    state = {"hits": 0}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            payload = bodies[min(state["hits"], len(bodies) - 1)].encode("utf-8")
            state["hits"] += 1
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval, so that shutdown() returns at once.
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    return httpd


@pytest.mark.parametrize("eos_id, vocab_size", [(8, 10), (9, 11)])
def test_remote_lm_rejects_changed_eos_or_vocab_size(eos_id, vocab_size):
    httpd = _scripted_server([_logits_body([0]), _logits_body([0], eos_id, vocab_size)])
    try:
        remote = RemoteLm(f"http://127.0.0.1:{httpd.server_address[1]}",
                          top_k=5, timeout=1, retries=1)
        assert (remote.eos, remote.vocab_size) == (9, 10)
        with pytest.raises(LmProtocolError, match="changed"):
            remote.next_logits([1])
    finally:
        httpd.shutdown()
        httpd.server_close()



def _raw_server(reply: bytes, bytewise: bool = False):
    """A stdlib server that answers each POST with the bytes ``reply``, one byte a
    write if ``bytewise``, and ends the connection after a reply that is HTTP/1.0 or
    says ``Connection: close``. Returns it and its hits and client ports."""
    state = {"hits": 0, "ports": set()}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # each byte of a bytewise reply is its own segment

        def log_message(self, *args):
            pass

        def do_POST(self):
            state["hits"] += 1
            state["ports"].add(self.client_address[1])
            self.rfile.read(int(self.headers["Content-Length"]))
            # A client that rejects the head may close before the rest is written.
            with contextlib.suppress(OSError):
                for i in range(len(reply)) if bytewise else [None]:
                    self.wfile.write(reply if i is None else reply[i:i + 1])
            self.close_connection = (reply.startswith(b"HTTP/1.0 ")
                                     or b"\r\nConnection: close\r\n" in reply)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval, so that shutdown() returns at once.
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    return httpd, state


def _against_raw_server(reply: bytes, call, bytewise: bool = False, retries: int = 1):
    """``call(remote)`` for a ``RemoteLm`` of the given ``retries`` against ``_raw_server``:
    what it returns, and the server's state."""
    httpd, state = _raw_server(reply, bytewise)
    try:
        remote = RemoteLm(f"http://127.0.0.1:{httpd.server_address[1]}", top_k=5, timeout=1,
                          retries=retries, backoff=0)
        return call(remote), state
    finally:
        httpd.shutdown()
        httpd.server_close()


_BODY = _logits_body([0]).encode("utf-8")


@pytest.mark.parametrize("reply, bytewise, connections", [
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_BODY), _BODY),
                 True, 1, id="one byte a write"),
    pytest.param(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _BODY,
                 False, 2, id="HTTP/1.0, close-delimited"),
    pytest.param(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s"
                 % (len(_BODY), _BODY), False, 2, id="Connection: close"),
])
def test_remote_lm_reads_each_framing_of_a_reply(reply, bytewise, connections):
    # One attempt each: a reply read wrong would raise LmUnavailableError.
    steps, state = _against_raw_server(
        reply, lambda remote: [remote.next_logits([1]) for _ in range(2)], bytewise)
    assert [step.logits for step in steps] == [{0: -1.0}] * 2
    assert state["hits"] == 2
    # A reply that ends its connection sends the next request on a new one.
    assert len(state["ports"]) == connections


@pytest.mark.parametrize("reply, error, hits, match", [
    # Chunked framing and a body over the cap are outside the protocol: no retry can fix them.
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"%x\r\n%s\r\n0\r\n\r\n" % (len(_BODY), _BODY), LmProtocolError, 1,
                 "Transfer-Encoding", id="chunked"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (MAX_BODY + 1, _BODY),
                 LmProtocolError, 1, f"of {MAX_BODY + 1} bytes, over {MAX_BODY}",
                 id="Content-Length over the cap"),
    pytest.param(b"HTTP/1.0 200 OK\r\n\r\n" + _BODY + b" " * MAX_BODY, LmProtocolError, 1,
                 f"over {MAX_BODY} bytes", id="close-framed body over the cap"),
    pytest.param(b"garbage\r\n\r\n", LmUnavailableError, 3, None, id="garbage status line"),
    pytest.param(b"HTTP/1.1 200 OK\r\nX: " + b"a" * 65536 + b"\r\nContent-Length: %d\r\n\r\n%s"
                 % (len(_BODY), _BODY), LmUnavailableError, 3, None,
                 id="header line over 65536 bytes"),
])
def test_remote_lm_rejects_a_bad_framing(reply, error, hits, match):
    def call(remote):
        with pytest.raises(error) as caught:
            remote.next_logits([1])
        return caught.value

    raised, state = _against_raw_server(reply, call, retries=3)
    assert state["hits"] == hits
    if error is LmUnavailableError:  # each attempt failed on the head
        assert isinstance(raised.__cause__, http.client.HTTPException)
    else:
        assert match in str(raised)
