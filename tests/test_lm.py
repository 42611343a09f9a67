import http.client
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
        original = requests.Session.post
        sent = []

        def post(session, url, json=None, **kwargs):
            sent.append(json)
            return original(session, url, json=json, **kwargs)

        monkeypatch.setattr(requests.Session, "post", post)
        the, dog, cat = lm.tokenize("the dog cat")
        suffixes = [[dog], [cat], []]
        prefixes = [[the] + suffix for suffix in suffixes]
        steps = remote.next_logits_batch([the], suffixes)
        assert sent == [{"prefix": [the], "suffixes": [[dog], [cat], []],
                         "top_k": lm.vocab_size}]
        assert [dense(step) for step in steps] == [dense(lm.next_logits(p)) for p in prefixes]

        # The client factors out nothing itself: a start the suffixes share
        # is sent once per suffix.
        steps = remote.next_logits_batch([], prefixes)
        assert sent[1] == {"prefix": [], "suffixes": prefixes, "top_k": lm.vocab_size}
        assert [dense(step) for step in steps] == [dense(lm.next_logits(p)) for p in prefixes]

        texts = remote.detokenize_batch(prefixes + [[]])
        assert sent[2] == {"batch": prefixes + [[]]}
        assert texts == ["the dog", "the cat", "the", ""]

    def test_empty_batches_send_no_request(self, served_ngram, monkeypatch):
        _, server = served_ngram
        remote = RemoteLm(server.endpoint, top_k=2)

        def post(*args, **kwargs):
            raise AssertionError("an empty batch sent a request")

        monkeypatch.setattr(requests.Session, "post", post)
        assert remote.next_logits_batch([], []) == []
        assert remote.next_logits_batch([1], []) == []
        assert remote.detokenize_batch([]) == []

    @pytest.mark.parametrize("path, payload", [
        ("/v1/logits", {"prefix": [], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [0], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [[0], "01"], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": "01", "top_k": 2}),
        ("/v1/logits", {"prefix": 0, "suffixes": [[]], "top_k": 2}),
        ("/v1/detokenize", {"batch": [0]}),
        ("/v1/detokenize", {"ids": [0]}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]]}),
        ("/v1/logits", {"prefix": [0.7], "suffixes": [[True]], "top_k": 2.9}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "top_k": "2"}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "top_k": True}),
        ("/v1/logits", {"prefix": [], "suffixes": [[]], "top_k": 0}),
        ("/v1/logits", {"prefix": [], "suffixes": [[99]], "top_k": 2}),
        ("/v1/logits", {"prefix": [], "suffixes": [[-1]], "top_k": 2}),
        ("/v1/logits", {"prefix": [6], "suffixes": [[]], "top_k": 2}),
        ("/v1/detokenize", {"batch": [[1.9, True]]}),
        ("/v1/tokenize", {"text": 5}),
        ("/v1/tokenize", {"text": ["the"]}),
        ("/v1/logits", "{not json"),
    ])
    def test_malformed_batch_gets_400_and_server_keeps_serving(self, served_ngram,
                                                                path, payload):
        lm, server = served_ngram
        body = {"data": payload} if isinstance(payload, str) else {"json": payload}
        reply = requests.post(server.endpoint + path, **body, timeout=10)
        assert reply.status_code == 400
        assert reply.json()["error"]
        remote = RemoteLm(server.endpoint, top_k=2)
        assert len(remote.next_logits(lm.tokenize("the")).logits) == 2
        assert remote.detokenize(lm.tokenize("the dog")) == "the dog"

    def test_unknown_path_gets_404(self, served_ngram):
        _, server = served_ngram
        reply = requests.post(server.endpoint + "/v1/generate", json={"text": "the"},
                              timeout=10)
        assert reply.status_code == 404
        assert reply.json() == {"error": "unknown path '/v1/generate'"}

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
        body = json.dumps({"steps": [{"tokens": [{"id": 4, "logprob": -0.1}], "floor": None}],
                           "eos_id": 9, "vocab_size": 10})
        step, _ = self.run_against(body)
        assert step.logits == {4: -0.1}
        assert step.truncated

    def test_floor_with_top_k_covering_the_vocabulary(self):
        step, _ = self.run_against(_logits_body([4], floor=-2.5), top_k=10)
        assert step == LmStep({4: -1.0}, -2.5, 10)
        assert not step.truncated

    def test_nan_logprob_rejected(self):
        body = ('{"steps": [{"tokens": [{"id": 4, "logprob": NaN}], "floor": null}], '
                '"eos_id": 9, "vocab_size": 10}')
        with pytest.raises(LmProtocolError, match="non-finite"):
            self.run_against(body)

    def test_missing_field_rejected(self):
        body = json.dumps({"steps": []})
        with pytest.raises(LmProtocolError, match="missing field"):
            self.run_against(body)

    @pytest.mark.parametrize("step", [
        {"tokens": []},
        {"floor": None},
        [],
        {"tokens": None, "floor": None},
        {"tokens": 5, "floor": None},
    ])
    def test_malformed_step_rejected(self, step):
        body = json.dumps({"steps": [step], "eos_id": 9, "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="malformed logits step"):
            self.run_against(body)

    def test_non_json_rejected(self):
        with pytest.raises(LmProtocolError, match="not JSON"):
            self.run_against("<html>oops</html>")

    def test_retry_then_succeed(self):
        body = json.dumps({"steps": [{"tokens": [{"id": 0, "logprob": -1.0}], "floor": None}],
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

    @pytest.mark.parametrize("entry", [4, [4, -1.0], None, {"id": 4}, {"logprob": -1.0}])
    def test_token_entry_not_an_id_logprob_object_rejected(self, entry):
        body = json.dumps({"steps": [{"tokens": [entry], "floor": None}],
                           "eos_id": 9, "vocab_size": 10})
        with pytest.raises(LmProtocolError, match="malformed token entry"):
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

    @pytest.mark.parametrize("tid", [10, 11, -1, "x", 1.7, True])
    def test_token_id_outside_vocabulary_rejected(self, tid):
        with pytest.raises(LmProtocolError, match="outside"):
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
                             call=lambda remote: remote.next_logits_batch([], prefixes))

    def test_steps_not_a_list_rejected(self):
        body = json.dumps({"steps": {"tokens": []}, "eos_id": 9, "vocab_size": 10})
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
    ])
    def test_tokenize_id_not_an_integer_rejected(self, body):
        with pytest.raises(LmProtocolError, match="not an integer"):
            self.run_against(json.dumps(body), call=lambda remote: remote.tokenize("a"))

    @pytest.mark.parametrize("floor", ['"-1.0"', "true", "[]", "NaN", "Infinity", "-Infinity"])
    def test_floor_not_a_finite_number_rejected(self, floor):
        body = ('{"steps": [{"tokens": [], "floor": %s}], "eos_id": 9, "vocab_size": 10}'
                % floor)
        with pytest.raises(LmProtocolError, match="floor must be a finite number"):
            self.run_against(body, top_k=10)

    def test_floor_below_full_vocabulary_top_k_rejected(self):
        with pytest.raises(LmProtocolError, match="floor sent for top_k=9"):
            self.run_against(_logits_body([0], floor=-2.0), top_k=9)

    def test_detokenize_passthrough(self):
        texts, _ = self.run_against(json.dumps({"texts": ["a b", ""]}),
                                    call=lambda remote: remote.detokenize_batch([[0, 1], []]))
        assert texts == ["a b", ""]

    @pytest.mark.parametrize("body, match", [
        ({"texts": ["a"]}, "1 texts for 2 id lists"),
        ({"texts": ["a", "b", "c"]}, "3 texts for 2 id lists"),
        ({"texts": ["a", 1]}, "not a string"),
        ({"texts": ["a", None]}, "not a string"),
        ({"texts": "a b"}, "missing 'texts' list"),
        ({"text": "a b"}, "missing 'texts' list"),
        (["a", "b"], "not a JSON object"),
    ])
    def test_bad_detokenize_reply_rejected(self, body, match):
        with pytest.raises(LmProtocolError, match=match):
            self.run_against(json.dumps(body),
                             call=lambda remote: remote.detokenize_batch([[0], [1]]))


def _logits_body(ids: list[int], eos_id: int = 9, vocab_size: int = 10,
                 floor: float | None = None, steps: int = 1) -> str:
    step = {"tokens": [{"id": i, "logprob": -1.0} for i in ids], "floor": floor}
    return json.dumps({"steps": [step] * steps, "eos_id": eos_id, "vocab_size": vocab_size})


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

