import json
import logging
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from ontodecode.lm import (
    LmProtocolError,
    LmServer,
    LmStep,
    LmUnavailableError,
    RemoteLm,
    train_ngram,
)

from conftest import dense, random_ngram_lm


class TestTrainNgram:
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
        with pytest.raises(ValueError, match="vocabulary"):
            lm.tokenize("a z")

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
    server = LmServer(lm)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield lm, server
    finally:
        server.shutdown()
        thread.join(timeout=5)


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
        assert full.truncated
        assert full.logits == dense(lm.next_logits(prefix))

        top2 = RemoteLm(server.endpoint, top_k=2).next_logits(prefix)
        assert len(top2.logits) == 2
        local = dense(lm.next_logits(prefix))
        # Only tokens from the true distribution, never fabricated ones.
        for token, logprob in top2.logits.items():
            assert local[token] == logprob

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
        original = requests.Session.post
        both_posting = threading.Barrier(2)
        seen = []

        def post(session, *args, **kwargs):
            seen.append((threading.get_ident(), id(session)))
            # Both threads hold their session here at once, so neither
            # thread id nor session id can be recycled between them.
            both_posting.wait(timeout=5)
            return original(session, *args, **kwargs)

        monkeypatch.setattr(requests.Session, "post", post)
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
        (thread_a, session_a), (thread_b, session_b) = seen
        assert thread_a != thread_b
        assert session_a != session_b

    def test_unreachable_endpoint(self):
        with pytest.raises(LmUnavailableError, match="3 attempts"):
            RemoteLm("http://127.0.0.1:9", top_k=1, timeout=0.2, retries=3,
                     backoff=0.01).next_logits([])


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
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, state


class TestRemoteValidation:
    def run_against(self, body: str, status: int = 200, fail_times: int = 0, top_k: int = 5):
        httpd, state = _canned_server(body, status, fail_times)
        endpoint = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            remote = RemoteLm(endpoint, top_k=top_k, timeout=1, retries=3, backoff=0.01)
            return remote.next_logits([1]), state
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_passthrough(self):
        body = json.dumps({"tokens": [{"id": 4, "logprob": -0.1}],
                           "eos_id": 9, "vocab_size": 10})
        step, _ = self.run_against(body)
        assert step.logits == {4: -0.1}
        assert step.truncated

    def test_nan_logprob_rejected(self):
        body = '{"tokens": [{"id": 4, "logprob": NaN}], "eos_id": 9, "vocab_size": 10}'
        with pytest.raises(LmProtocolError, match="non-finite"):
            self.run_against(body)

    def test_missing_field_rejected(self):
        body = json.dumps({"tokens": []})
        with pytest.raises(LmProtocolError, match="missing field"):
            self.run_against(body)

    def test_non_json_rejected(self):
        with pytest.raises(LmProtocolError, match="not JSON"):
            self.run_against("<html>oops</html>")

    def test_retry_then_succeed(self):
        body = json.dumps({"tokens": [{"id": 0, "logprob": -1.0}],
                           "eos_id": 1, "vocab_size": 2})
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

    def test_persistent_server_error(self):
        with pytest.raises(LmUnavailableError):
            self.run_against("", status=500, fail_times=99)

    def test_duplicate_token_id_rejected(self):
        with pytest.raises(LmProtocolError, match="listed twice"):
            self.run_against(_logits_body([4, 2, 4]))

    @pytest.mark.parametrize("tid", [10, 11, -1])
    def test_token_id_outside_vocabulary_rejected(self, tid):
        with pytest.raises(LmProtocolError, match="outside"):
            self.run_against(_logits_body([0, tid]))


def _logits_body(ids: list[int], eos_id: int = 9, vocab_size: int = 10) -> str:
    return json.dumps({"tokens": [{"id": i, "logprob": -1.0} for i in ids],
                       "eos_id": eos_id, "vocab_size": vocab_size})


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
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
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

