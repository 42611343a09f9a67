"""Language-model contract, reference n-gram backend, and remote client.

The decoder only ever needs token log-probabilities for a prefix, so the
contract is exactly that: tokenize/detokenize plus ``next_logits``, and
batch forms of the last two that a backend may answer in one round trip.
The add-one-smoothed n-gram model is the deterministic reference backend
used throughout the tests; real models sit behind the HTTP wire protocol
(``/v1/tokenize``, ``/v1/detokenize``, ``/v1/logits``) and may return
top-k-truncated distributions. All log-probabilities are natural log.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import json
import logging
import math
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Container, Iterator
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import requests

logger = logging.getLogger(__name__)

TokenId = int


class LmProtocolError(RuntimeError):
    """The remote backend violated the wire protocol."""


class LmUnavailableError(RuntimeError):
    """The remote backend stayed unreachable across retries."""


@dataclass
class LmStep:
    """Log-probabilities for the next token; may cover only the top k.

    ``logits`` holds the listed entries. Every other id in
    ``range(vocab_size)`` has the ``floor`` log-prob: finite for the
    n-gram model (its add-one mass for unseen continuations), ``-inf``
    when the ids left out are impossible (remote top-k replies, hand-built
    LMs, which leave ``vocab_size`` at 0).

    The decoder expands a beam over the listed ids, the ids that carry a
    diversity penalty, and ``floor_ids(per_group)`` of the rest. That is
    exact: every other id scores the same as those floor ids and loses the
    (score, beam, token) tie-break to each of them, so it cannot be in the
    beam's top ``per_group``.
    """

    logits: dict[TokenId, float]
    floor: float = -math.inf
    vocab_size: int = 0

    @property
    def truncated(self) -> bool:
        """Whether the ids that ``logits`` leaves out are impossible: floor ``-inf``."""
        return self.floor == -math.inf

    def floor_ids(self, k: int, skip: Container[TokenId] = ()) -> Iterator[TokenId]:
        """The ``k`` lowest floor ids not in ``skip``, lazily and in increasing order.

        Floor ids share one log-prob and rank among themselves by id, so no
        other floor id can reach a top ``k``. None when the floor is ``-inf``.
        """
        if self.truncated:
            return iter(())
        listed = self.logits
        return itertools.islice(
            (t for t in range(self.vocab_size) if t not in listed and t not in skip), k)


class LmContract(abc.ABC):
    """Token-probability interface every backend implements."""

    eos: TokenId
    vocab_size: int

    @abc.abstractmethod
    def tokenize(self, text: str) -> list[TokenId]: ...

    @abc.abstractmethod
    def detokenize(self, ids: list[TokenId]) -> str: ...

    @abc.abstractmethod
    def next_logits(self, prefix: list[TokenId]) -> LmStep: ...

    def next_logits_batch(self, prefix: list[TokenId],
                          suffixes: list[list[TokenId]]) -> list[LmStep]:
        """``next_logits`` of ``prefix + suffix`` for each suffix, in order."""
        return [self.next_logits(prefix + suffix) for suffix in suffixes]

    def detokenize_batch(self, batch: list[list[TokenId]]) -> list[str]:
        """``detokenize`` of each id list, in order."""
        return [self.detokenize(ids) for ids in batch]


class NgramLm(LmContract):
    """Whitespace-token n-gram model with add-one smoothing.

    The vocabulary is fixed at training time (first-occurrence order, EOS
    last); the full distribution is returned at every step, as the
    context's observed followers plus one floor log-prob for every unseen
    token, so the exponentiated logits sum to exactly one. EOS is
    predictable but never a counted event: it holds only its add-one
    pseudo-count, so observed continuations always outweigh stopping.
    """

    def __init__(self, words: list[str], order: int,
                 context_totals: dict, follower_counts: dict):
        self._words = words
        self._ids = {w: i for i, w in enumerate(words)}
        self.order = order
        self._context_totals = context_totals
        self._follower_counts = follower_counts
        self.eos = len(words)
        self.vocab_size = len(words) + 1

    def tokenize(self, text: str) -> list[TokenId]:
        ids = []
        for word in text.split():
            if word not in self._ids:
                raise ValueError(f"word not in model vocabulary: {word!r}")
            ids.append(self._ids[word])
        return ids

    def detokenize(self, ids: list[TokenId]) -> str:
        words = []
        for tid in ids:
            if tid == self.eos:
                continue
            if not 0 <= tid < len(self._words):
                raise ValueError(f"token id out of range: {tid}")
            words.append(self._words[tid])
        return " ".join(words)

    def _context(self, prefix: list[TokenId]) -> tuple[TokenId, ...]:
        return tuple(prefix[max(0, len(prefix) - (self.order - 1)):])

    def next_logits(self, prefix: list[TokenId]) -> LmStep:
        context = self._context(prefix)
        total = self._context_totals.get(context, 0)
        followers = self._follower_counts.get(context, {})
        denom = total + self.vocab_size
        listed = {tid: math.log((n + 1) / denom) for tid, n in followers.items()}
        return LmStep(listed, math.log(1 / denom), self.vocab_size)


def train_ngram(corpus: list[str], n: int) -> NgramLm:
    """Train the reference n-gram model on whitespace-tokenized documents."""
    if not corpus:
        raise ValueError("training corpus must be non-empty")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")

    words: list[str] = []
    ids: dict[str, int] = {}
    for doc in corpus:
        for word in doc.split():
            if word not in ids:
                ids[word] = len(words)
                words.append(word)

    context_totals: Counter[tuple[TokenId, ...]] = Counter()
    follower_counts: defaultdict[tuple[TokenId, ...], Counter] = defaultdict(Counter)
    for doc in corpus:
        sequence = [ids[w] for w in doc.split()]
        for t, token in enumerate(sequence):
            context = tuple(sequence[max(0, t - (n - 1)):t])
            context_totals[context] += 1
            follower_counts[context][token] += 1

    # Plain dicts, so that a lookup of an unseen context never inserts it.
    return NgramLm(words, n, dict(context_totals), dict(follower_counts))


# --------------------------------------------------------------------------
# Remote backend (HTTP wire protocol)
# --------------------------------------------------------------------------

_TRANSIENT = (requests.exceptions.ConnectionError, requests.exceptions.Timeout)


def _integer(value: object) -> bool:
    """A JSON integer: neither ``true`` nor ``1.7``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value: object) -> bool:
    """A JSON number other than NaN and the infinities; ``true`` is no number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class RemoteLm(LmContract):
    """Client for a backend speaking the HTTP wire protocol.

    ``eos`` and ``vocab_size`` come from the first ``/v1/logits`` response
    and are cached; accessing them before any call triggers one probe
    request with an empty prefix. A later response that reports different
    values raises ``LmProtocolError``. Each thread posts through its own
    ``requests.Session``, and every retried attempt is logged at WARNING.

    A batch is one request; the single-item methods are batches of one.
    A step the backend sends with a ``floor`` (only allowed when ``top_k``
    covers the vocabulary) stands for the whole distribution; a step
    without one lists every id that is possible.
    """

    def __init__(self, endpoint: str, top_k: int, *, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 0.1):
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.endpoint = endpoint.rstrip("/")
        self.top_k = top_k
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._local = threading.local()
        # (eos_id, vocab_size), set in one assignment so that threads
        # sharing the client never see half of it.
        self._meta: tuple[TokenId, int] | None = None

    def _post(self, path: str, payload: dict) -> dict:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        url = self.endpoint + path
        last_error: Exception | None = None
        for attempt in range(1, self.retries + 1):
            try:
                response = session.post(url, json=payload, timeout=self.timeout)
                status = response.status_code
                if status == 200:
                    try:
                        data = response.json()
                    except ValueError as exc:
                        raise LmProtocolError(f"{url}: response is not JSON") from exc
                    if not isinstance(data, dict):
                        raise LmProtocolError(f"{url}: response is not a JSON object")
                    return data
                if status < 500:
                    raise LmProtocolError(
                        f"{url}: unexpected status {status}: {response.text[:200]}"
                    )
                last_error = LmUnavailableError(f"{url}: server error {status}")
            except _TRANSIENT as exc:
                last_error = exc
            if attempt < self.retries:
                logger.warning("%s: attempt %d of %d failed, retrying: %s",
                               url, attempt, self.retries, last_error)
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise LmUnavailableError(
            f"{url}: unreachable after {self.retries} attempts"
        ) from last_error

    def tokenize(self, text: str) -> list[TokenId]:
        data = self._post("/v1/tokenize", {"text": text})
        ids = data.get("ids")
        if not isinstance(ids, list):
            raise LmProtocolError("tokenize response missing 'ids' list")
        if not all(_integer(i) for i in ids):
            raise LmProtocolError("tokenize response holds an id that is not an integer")
        return ids

    def detokenize(self, ids: list[TokenId]) -> str:
        return self.detokenize_batch([ids])[0]

    def detokenize_batch(self, batch: list[list[TokenId]]) -> list[str]:
        if not batch:
            return []
        data = self._post("/v1/detokenize", {"batch": [list(ids) for ids in batch]})
        texts = data.get("texts")
        if not isinstance(texts, list):
            raise LmProtocolError("detokenize response missing 'texts' list")
        if len(texts) != len(batch):
            raise LmProtocolError(
                f"detokenize response has {len(texts)} texts for {len(batch)} id lists")
        if not all(isinstance(text, str) for text in texts):
            raise LmProtocolError("detokenize response holds a text that is not a string")
        return texts

    def next_logits(self, prefix: list[TokenId]) -> LmStep:
        """The next-token distribution the backend reports, top-k truncated or floored."""
        return self.next_logits_batch(prefix, [[]])[0]

    def next_logits_batch(self, prefix: list[TokenId],
                          suffixes: list[list[TokenId]]) -> list[LmStep]:
        """One ``/v1/logits`` request; ``prefix`` is sent once for all suffixes."""
        if not suffixes:
            return []
        data = self._post("/v1/logits",
                          {"prefix": prefix, "suffixes": suffixes, "top_k": self.top_k})
        for key in ("steps", "eos_id", "vocab_size"):
            if key not in data:
                raise LmProtocolError(f"logits response missing field {key!r}")
        steps = data["steps"]
        if not isinstance(steps, list) or len(steps) != len(suffixes):
            got = len(steps) if isinstance(steps, list) else type(steps).__name__
            raise LmProtocolError(
                f"logits response has {got} steps for {len(suffixes)} suffixes")
        meta = (data["eos_id"], data["vocab_size"])
        if not all(_integer(value) for value in meta):
            raise LmProtocolError(f"eos_id and vocab_size must be integers, got {meta}")
        vocab_size = meta[1]
        parsed = [self._parse_step(step, vocab_size) for step in steps]
        if self._meta is None:
            self._meta = meta
        elif meta != self._meta:
            raise LmProtocolError(
                f"backend changed (eos_id, vocab_size) from {self._meta} to {meta}"
            )
        return parsed

    def _parse_step(self, step: object, vocab_size: int) -> LmStep:
        if (not isinstance(step, dict) or "floor" not in step
                or not isinstance(step.get("tokens"), list)):
            raise LmProtocolError(f"malformed logits step: {step!r}")
        logits: dict[TokenId, float] = {}
        for entry in step["tokens"]:
            if not isinstance(entry, dict) or "id" not in entry or "logprob" not in entry:
                raise LmProtocolError(f"malformed token entry: {entry!r}")
            tid, logprob = entry["id"], entry["logprob"]
            if not _finite_number(logprob):
                raise LmProtocolError(f"non-finite logprob for token {tid!r}")
            if not (_integer(tid) and 0 <= tid < vocab_size):
                raise LmProtocolError(f"token id {tid!r} outside [0, {vocab_size})")
            if tid in logits:
                raise LmProtocolError(f"token id {tid} listed twice")
            logits[tid] = float(logprob)
        if len(logits) > self.top_k:
            raise LmProtocolError(
                f"server returned {len(logits)} tokens for top_k={self.top_k}"
            )
        floor = step["floor"]
        if floor is None:
            return LmStep(logits)
        if not _finite_number(floor):
            raise LmProtocolError(f"floor must be a finite number or null, got {floor!r}")
        if self.top_k < vocab_size:
            raise LmProtocolError(
                f"floor sent for top_k={self.top_k} below vocab_size {vocab_size}")
        return LmStep(logits, float(floor), vocab_size)

    def _probe(self) -> tuple[TokenId, int]:
        if self._meta is None:
            self.next_logits([])
        assert self._meta is not None
        return self._meta

    @property
    def eos(self) -> TokenId:  # type: ignore[override]
        return self._probe()[0]

    @property
    def vocab_size(self) -> int:  # type: ignore[override]
        return self._probe()[1]


# --------------------------------------------------------------------------
# Wire-protocol server around an in-process model
# --------------------------------------------------------------------------


class LmServer:
    """Threaded HTTP server exposing an ``LmContract`` over the wire protocol."""

    def __init__(self, lm: LmContract, host: str = "127.0.0.1", port: int = 0):
        self.lm = lm
        handler = _make_handler(lm)
        self.httpd = ThreadingHTTPServer((host, port), handler)

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


def _rank_key(entry: tuple[TokenId, float]) -> tuple[float, TokenId]:
    return -entry[1], entry[0]


def _top_k(step: LmStep, k: int) -> list[tuple[TokenId, float]]:
    """The k best (id, log-prob) pairs, by log-prob then lower id.

    Equal to ranking the full distribution, but only the listed entries
    are sorted; ``step.floor_ids(k)`` are already in rank order.
    """
    floor = step.floor
    ranked = heapq.merge(sorted(step.logits.items(), key=_rank_key),
                         ((t, floor) for t in step.floor_ids(k)), key=_rank_key)
    return list(itertools.islice(ranked, k))


def _wire_step(step: LmStep, top_k: int, vocab_size: int) -> dict:
    """One reply step: the ``LmStep`` itself when ``top_k`` covers the
    vocabulary and its floor is finite, else its top k with no floor."""
    if top_k >= vocab_size and not step.truncated:
        entries, floor = step.logits.items(), step.floor
    else:
        entries, floor = _top_k(step, top_k), None
    return {"tokens": [{"id": tid, "logprob": logprob} for tid, logprob in entries],
            "floor": floor}


def _id_list(value: object, what: str, vocab_size: int) -> list[TokenId]:
    if not (isinstance(value, list)
            and all(_integer(i) and 0 <= i < vocab_size for i in value)):
        raise ValueError(f"{what} must be a list of token ids in [0, {vocab_size})")
    return value


def _id_lists(value: object, what: str, vocab_size: int) -> list[list[TokenId]]:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of token-id lists")
    return [_id_list(item, f"each item of {what}", vocab_size) for item in value]


def _make_handler(lm: LmContract):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # noqa: N802 - stdlib signature
            logger.debug("lm server: " + fmt, *args)

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):  # noqa: N802 - stdlib signature
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                self._reply(400, {"error": f"unreadable JSON request body: {exc}"})
                return
            try:
                if self.path == "/v1/tokenize":
                    text = payload["text"]
                    if not isinstance(text, str):
                        raise TypeError("text must be a string")
                    self._reply(200, {"ids": lm.tokenize(text)})
                elif self.path == "/v1/detokenize":
                    batch = _id_lists(payload["batch"], "batch", lm.vocab_size)
                    self._reply(200, {"texts": lm.detokenize_batch(batch)})
                elif self.path == "/v1/logits":
                    vocab_size = lm.vocab_size
                    prefix = _id_list(payload["prefix"], "prefix", vocab_size)
                    suffixes = _id_lists(payload["suffixes"], "suffixes", vocab_size)
                    top_k = payload["top_k"]
                    if not (_integer(top_k) and top_k >= 1):
                        raise ValueError(f"top_k must be an integer >= 1, got {top_k!r}")
                    self._reply(200, {
                        "steps": [_wire_step(step, top_k, vocab_size)
                                  for step in lm.next_logits_batch(prefix, suffixes)],
                        "eos_id": lm.eos,
                        "vocab_size": vocab_size,
                    })
                else:
                    self._reply(404, {"error": f"unknown path {self.path!r}"})
            except (KeyError, TypeError, ValueError) as exc:
                self._reply(400, {"error": str(exc)})

    return Handler
