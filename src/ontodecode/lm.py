"""Language-model contract, reference n-gram backend, and remote client.

The decoder only ever needs token log-probabilities for a prefix and the
texts of the windows it rescores, so the contract is exactly that:
tokenize/detokenize plus ``next_logits``, and ``step``, both at once for a
whole decode step, which a backend may answer in one round trip. The
add-one-smoothed n-gram model is the deterministic reference backend used
throughout the tests; real models sit behind the HTTP wire protocol
(``/v1/tokenize``, ``/v1/logits``) and may return top-k-truncated
distributions. All log-probabilities are natural log.
"""

from __future__ import annotations

import abc
import contextlib
import heapq
import http.client
import itertools
import json
import logging
import math
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
import weakref
from collections import Counter
from collections.abc import Container, Iterator
from dataclasses import dataclass

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

    The decoder's ``_candidates`` expands a beam over the listed ids, the
    ids that carry a diversity penalty, and ``floor_ids(per_group)`` of the
    rest. That is exact: every other id scores the same as those floor ids
    and loses the (score, beam, token) tie-break to each of them, so it
    cannot be in the beam's top ``per_group``.
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

    def step(self, prefix: list[TokenId], suffixes: list[list[TokenId]],
             texts: list[list[TokenId]]) -> tuple[list[LmStep], list[str]]:
        """``next_logits`` of ``prefix + suffix`` for each suffix, and
        ``detokenize`` of each id list of ``texts``, each in order."""
        return ([self.next_logits(prefix + suffix) for suffix in suffixes],
                [self.detokenize(ids) for ids in texts])


class NgramLm(LmContract):
    """Whitespace-token n-gram model with add-one smoothing.

    The vocabulary is fixed at training time (first-occurrence order, EOS
    last); the full distribution is returned at every step, as the
    context's observed followers plus one floor log-prob for every unseen
    token, so the exponentiated logits sum to exactly one. EOS is
    predictable but never a counted event: it holds only its add-one
    pseudo-count, so observed continuations always outweigh stopping.
    Each context the model holds keeps its listed log-probs and floor once
    computed, so that memo never outgrows the model; every call returns a
    fresh ``logits`` dict.
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
        # context -> (listed, floor); threads racing on an entry assign equal tuples.
        self._steps: dict[tuple[TokenId, ...], tuple[dict[TokenId, float], float]] = {}

    def tokenize(self, text: str) -> list[TokenId]:
        try:
            return list(map(self._ids.__getitem__, text.split()))  # one C-level pass
        except KeyError as exc:
            raise ValueError(f"word not in model vocabulary: {exc.args[0]!r}") from None

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
        memo = self._steps.get(context)
        if memo is None:
            denom = self._context_totals.get(context, 0) + self.vocab_size
            followers = self._follower_counts.get(context, {})
            memo = ({tid: math.log((n + 1) / denom) for tid, n in followers.items()},
                    math.log(1 / denom))
            if context in self._follower_counts:
                self._steps[context] = memo
        listed, floor = memo
        return LmStep(dict(listed), floor, self.vocab_size)

    def step(self, prefix: list[TokenId], suffixes: list[list[TokenId]],
             texts: list[list[TokenId]]) -> tuple[list[LmStep], list[str]]:
        # Only the last order - 1 ids reach a context: copy them once, not once per suffix.
        return super().step(prefix[max(0, len(prefix) - (self.order - 1)):], suffixes, texts)


def train_ngram(corpus: list[str], n: int) -> NgramLm:
    """Train the reference n-gram model on whitespace-tokenized documents."""
    if not corpus:
        raise ValueError("training corpus must be non-empty")
    check_count("order", n)

    # Each gram is its context words plus the word, counted in corpus order
    # by Counter.update in C: first the grams that start a document with a
    # context shorter than n - 1, then every full n-gram. A document shorter
    # than n has no full n-gram, so its n slices are skipped.
    grams: Counter[tuple[str, ...]] = Counter()
    for doc in corpus:
        words = doc.split()
        grams.update(tuple(words[:t + 1]) for t in range(min(n - 1, len(words))))
        if n <= len(words):
            grams.update(zip(*(words[i:] for i in range(n))))

    # A word's first occurrence ends a gram not seen before, so the grams'
    # last words, in the Counter's first-insertion order, are the
    # vocabulary in first-occurrence order.
    words = list(dict.fromkeys(gram[-1] for gram in grams))
    ids = {word: i for i, word in enumerate(words)}

    # Folding the unique grams keeps each context's and each follower's
    # first-occurrence order.
    context_totals: dict[tuple[TokenId, ...], int] = {}
    follower_counts: dict[tuple[TokenId, ...], Counter] = {}
    for gram, count in grams.items():
        gram_ids = tuple(map(ids.__getitem__, gram))
        context = gram_ids[:-1]
        context_totals[context] = context_totals.get(context, 0) + count
        follower_counts.setdefault(context, Counter())[gram_ids[-1]] = count

    # Plain dicts, so that a lookup of an unseen context never inserts it.
    return NgramLm(words, n, context_totals, follower_counts)


# --------------------------------------------------------------------------
# Remote backend (HTTP wire protocol)
# --------------------------------------------------------------------------

_TRANSIENT = (OSError, http.client.HTTPException)
_FLOAT_MAX = sys.float_info.max


def is_integer(value: object) -> bool:
    """A JSON integer: neither ``true`` nor ``1.7``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """A JSON number a float holds: not NaN, an infinity, a too large int or ``true``."""
    if isinstance(value, float):
        return math.isfinite(value)
    # An int compares with a float exactly, so a too large one fails without overflow.
    return is_integer(value) and abs(value) <= _FLOAT_MAX


def check_count(name: str, value: object, low: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer in ``[low, sys.maxsize]``."""
    if not (is_integer(value) and low <= value <= sys.maxsize):
        raise ValueError(f"{name} must be an integer in [{low}, {sys.maxsize}], got {value!r}")


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has bytes or an EOF to read now: on an idle connection, a drop."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


# RFC 9112 message heads with the stdlib's limits; a Content-Length that int() and read() take.
_MAX_LINE, _MAX_HEADERS, _LENGTH = 65536, 100, "[0-9]{1,18}"
# The largest request or reply body either end reads: 16 MiB. Served summarize runs at
# DecodeConfig's defaults sent at most 13,287 bytes (a step reply at top_k 50); a dense
# reply of 10 steps over a 50,000-token vocabulary is about 14 MB.
MAX_BODY = 2**24
_REQUEST_LINE = re.compile(r"(?P<method>\S+) (?P<path>\S+) (?P<version>HTTP/1\.[01])")
_STATUS_LINE = re.compile(r"(?P<version>HTTP/1\.[01]) (?P<status>[1-9][0-9][0-9])(?: .*)?")


class _BadHead(http.client.HTTPException):
    """A message head that breaks the syntax or a limit; args: the status to answer, a message."""


def _read_head(rfile, start: re.Pattern) -> tuple[re.Match, dict[str, str], bool]:
    """The next message head in ``rfile``: the match of ``start`` on its start line, its
    headers (names in lower case, repeats joined by ", "), and whether it ends its connection."""
    line = rfile.readline(_MAX_LINE + 1)
    if not line:
        raise http.client.RemoteDisconnected("connection closed before a message")
    if len(line) > _MAX_LINE:
        raise _BadHead(414, f"start line over {_MAX_LINE} bytes")
    if not (match := start.fullmatch(text := line.decode("latin-1").rstrip("\r\n"))):
        raise _BadHead(400, f"malformed start line {text[:80]!r}")
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        if (field := rfile.readline(_MAX_LINE + 1)) in (b"\r\n", b"\n"):
            tokens = map(str.strip, headers.get("connection", "").lower().split(","))
            return match, headers, match["version"] == "HTTP/1.0" or "close" in tokens
        if len(field) > _MAX_LINE:
            raise _BadHead(431, f"header line over {_MAX_LINE} bytes")
        name, colon, value = field.decode("latin-1").partition(":")
        if not (colon and re.fullmatch(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+", name)):
            raise _BadHead(400, f"malformed header line {field[:80]!r}")
        name, value = name.lower(), value.strip(" \t\r\n")
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise _BadHead(431, f"more than {_MAX_HEADERS} headers")


def check_endpoint(endpoint: object) -> urllib.parse.SplitResult:
    """Raise ``ValueError`` unless ``endpoint`` is an http(s) URL of a host, an
    optional port and an optional path, in printable ASCII; return its parts."""
    text = endpoint if isinstance(endpoint, str) else ""
    parts = urllib.parse.urlsplit(text)
    if not (parts.scheme in ("http", "https") and parts.hostname and text.isascii()
            and text.isprintable() and " " not in text and "@" not in parts.netloc
            and not (parts.query or parts.fragment)):
        raise ValueError("endpoint must be http:// or https://, a host, an optional port "
                         f"and an optional path, got {endpoint!r}")
    parts.port  # noqa: B018 - raises ValueError for a port outside [0, 65535]
    return parts


class RemoteLm(LmContract):
    """Client for a backend speaking the HTTP wire protocol.

    ``eos`` and ``vocab_size`` come from the first ``/v1/logits`` response
    and are cached; accessing them before any call triggers one probe
    request with an empty prefix. A later response that reports different
    values raises ``LmProtocolError``. Each thread posts through its own
    kept-alive connection, and every retried attempt is logged at WARNING.

    ``step`` is one ``/v1/logits`` request; ``next_logits`` and
    ``detokenize`` are ``step`` calls of one item. A step the backend sends
    with a ``floor`` (only allowed when ``top_k`` covers the vocabulary)
    stands for the whole distribution; a step without one lists every id
    that is possible. A prefix that this thread's connection holds (the last one sent on it,
    or the ids of its last tokenize reply) is sent as null: a decode sends its prompt once.
    """

    def __init__(self, endpoint: str, top_k: int, *, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 0.1):
        parts = check_endpoint(endpoint)
        check_count("top_k", top_k)
        check_count("retries", retries)
        if not (is_finite_number(timeout) and timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        if not (is_finite_number(backoff) and backoff >= 0):
            raise ValueError(f"backoff must be a finite number >= 0, got {backoff!r}")
        self.endpoint = endpoint.rstrip("/")
        self.top_k = top_k
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        connection = (http.client.HTTPSConnection if parts.scheme == "https"
                      else http.client.HTTPConnection)
        self._connect = lambda: connection(parts.hostname, parts.port, timeout=timeout)
        self._path, self._host = parts.path.rstrip("/"), parts.netloc
        # Each thread's connection, closed once dropped: when it is replaced, or
        # when its thread or the client ends.
        self._local = threading.local()
        # (eos_id, vocab_size), set in one assignment so that threads
        # sharing the client never see half of it.
        self._meta: tuple[TokenId, int] | None = None

    def _exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        """One request, in one write, on the connection ``_post`` picked: status and body."""
        conn = self._local.conn
        try:
            if conn.sock is None:
                conn.connect()  # sets TCP_NODELAY
                weakref.finalize(conn, conn.sock.close)
            conn.sock.sendall(f"POST {self._path}{path} HTTP/1.1\r\nHost: {self._host}\r\n"
                              "Content-Type: application/json\r\n"
                              f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
            with conn.sock.makefile("rb") as rfile:
                status_line, headers, close = _read_head(rfile, _STATUS_LINE)
                if "transfer-encoding" in headers:
                    raise LmProtocolError("reply sent Transfer-Encoding, not Content-Length")
                if (length := headers.get("content-length")) is None:
                    # The body ends with the connection, or one byte past the cap.
                    reply, close = rfile.read(MAX_BODY + 1), True
                    if len(reply) > MAX_BODY:
                        raise LmProtocolError(f"reply body over {MAX_BODY} bytes")
                elif not re.fullmatch(_LENGTH, length):
                    raise _BadHead(400, f"bad Content-Length {length[:80]!r}")
                elif int(length) > MAX_BODY:
                    raise LmProtocolError(f"reply body of {length} bytes, over {MAX_BODY}")
                elif len(reply := rfile.read(int(length))) < int(length):
                    raise http.client.IncompleteRead(reply, int(length) - len(reply))
        except BaseException:
            conn.close()
            raise
        if close or status_line["status"] != "200":
            conn.close()  # a retry, or the next request, starts on a new connection
        return int(status_line["status"]), reply

    def _post(self, path: str, payload: dict) -> dict:
        url = self.endpoint + path
        prefix = payload.get("prefix")
        last_error: Exception | None = None
        for attempt in range(1, self.retries + 1):
            try:
                # An open connection's last request got a 200 reply, which set the
                # prefix it holds; one dropped while idle or by its reply is replaced.
                conn = getattr(self._local, "conn", None)
                if conn is None or conn.sock is None or _readable(conn.sock):
                    conn = self._local.conn = self._connect()
                    conn.held = None
                null = prefix is not None and conn.held == prefix
                status, reply = self._exchange(path, json.dumps(
                    {**payload, "prefix": None} if null else payload).encode("utf-8"))
                if status == 200:
                    conn.held = None if prefix is None else list(prefix)
                    try:
                        data = json.loads(reply)
                    except ValueError as exc:
                        raise LmProtocolError(f"{url}: response is not JSON") from exc
                    if not isinstance(data, dict):
                        raise LmProtocolError(f"{url}: response is not a JSON object")
                    return data
                if status < 500:
                    raise LmProtocolError(f"{url}: unexpected status {status}: "
                                          f"{reply.decode('utf-8', 'replace')[:200]}")
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
        if not {*map(type, ids)} <= {int}:  # a C-level pass, as in _id_list
            raise LmProtocolError("tokenize response holds an id that is not an integer")
        self._local.conn.held = list(ids)
        return ids

    def detokenize(self, ids: list[TokenId]) -> str:
        return self.step([], [], [ids])[1][0]

    def next_logits(self, prefix: list[TokenId]) -> LmStep:
        """The next-token distribution the backend reports, top-k truncated or floored."""
        return self.step(prefix, [[]], [])[0][0]

    def step(self, prefix: list[TokenId], suffixes: list[list[TokenId]],
             texts: list[list[TokenId]]) -> tuple[list[LmStep], list[str]]:
        """One ``/v1/logits`` request; ``prefix`` is sent once for all suffixes."""
        if not (suffixes or texts):
            return [], []
        data = self._post("/v1/logits", {"prefix": prefix, "suffixes": suffixes,
                                         "detokenize": texts, "top_k": self.top_k})
        for key in ("steps", "texts", "eos_id", "vocab_size"):
            if key not in data:
                raise LmProtocolError(f"logits response missing field {key!r}")
        for name, asked, per in (("steps", suffixes, "suffixes"), ("texts", texts, "id lists")):
            items = data[name]
            if not isinstance(items, list) or len(items) != len(asked):
                got = len(items) if isinstance(items, list) else type(items).__name__
                raise LmProtocolError(f"logits response has {got} {name} for {len(asked)} {per}")
        steps, replied = data["steps"], data["texts"]
        if not all(isinstance(text, str) for text in replied):
            raise LmProtocolError("logits response holds a text that is not a string")
        meta = (data["eos_id"], data["vocab_size"])
        if not all(is_integer(value) for value in meta):
            raise LmProtocolError(f"eos_id and vocab_size must be integers, got {meta}")
        parsed = [self._parse_step(step, meta[1]) for step in steps]
        if self._meta is None:
            self._meta = meta
        elif meta != self._meta:
            raise LmProtocolError(
                f"backend changed (eos_id, vocab_size) from {self._meta} to {meta}")
        return parsed, replied

    def _parse_step(self, step: object, vocab_size: int) -> LmStep:
        if not (isinstance(step, dict) and step.keys() >= {"ids", "logprobs", "floor"}
                and isinstance(ids := step["ids"], list)
                and isinstance(logprobs := step["logprobs"], list) and len(ids) == len(logprobs)):
            raise LmProtocolError(f"malformed logits step: {step!r}")
        if len(ids) > self.top_k:
            raise LmProtocolError(f"server returned {len(ids)} tokens for top_k={self.top_k}")
        _id_list(ids, "logits step ids", vocab_size, LmProtocolError)
        # C-level passes; within the bounds no int overflows a float, and only NaN is left.
        if not ({*map(type, logprobs)} <= {float, int} and (not logprobs or (
                -_FLOAT_MAX <= min(logprobs) and max(logprobs) <= 0))
                and not any(map(math.isnan, logprobs))):
            raise LmProtocolError("logits step holds a non-finite or positive logprob")
        logits = dict(zip(ids, map(float, logprobs)))
        if len(logits) < len(ids):
            raise LmProtocolError("logits step has a token id listed twice")
        floor = step["floor"]
        if floor is None:
            return LmStep(logits)
        if not (is_finite_number(floor) and floor <= 0):
            raise LmProtocolError(f"floor must be a finite number <= 0 or null, got {floor!r}")
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
    """Threaded HTTP/1.1 server exposing an ``LmContract`` over the wire protocol."""

    def __init__(self, lm: LmContract, host: str = "127.0.0.1", port: int = 0):
        self.httpd = _TcpServer((host, port), lm)
        self.host, self.port = self.httpd.server_address[:2]
        self.endpoint = f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        # Ends each kept-alive connection: its client reads EOF, and so does
        # its handler, which then closes it.
        for sock in self.httpd.accepted.copy():
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        self.httpd.server_close()


class _TcpServer(socketserver.ThreadingTCPServer):
    """Tracks its open sockets for ``LmServer.shutdown``; a client that left early is no error."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, lm: LmContract):
        super().__init__(address, _Handler)
        self.lm = lm
        self.accepted: set[socket.socket] = set()

    def process_request(self, request, client_address):
        self.accepted.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.accepted.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        if isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            logger.debug("lm server: %s left early", client_address)
        else:
            super().handle_error(request, client_address)


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
        logits, floor = step.logits, step.floor
    else:
        logits, floor = dict(_top_k(step, top_k)), None
    return {"ids": list(logits), "logprobs": list(logits.values()), "floor": floor}


def _id_list(value: object, what: str, vocab_size: int,
             error: type[Exception] = ValueError) -> list[TokenId]:
    # C-level passes; the exact type test keeps a JSON true from being an id.
    if not (isinstance(value, list) and (not value or (
            {*map(type, value)} == {int} and 0 <= min(value) and max(value) < vocab_size))):
        raise error(f"{what} must be a list of token ids in [0, {vocab_size})")
    return value


def _id_lists(value: object, what: str, vocab_size: int) -> list[list[TokenId]]:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of token-id lists")
    return [_id_list(item, f"each item of {what}", vocab_size) for item in value]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: each request read by ``_read_head`` and answered in one write."""

    disable_nagle_algorithm = True  # a reply's last segment never waits for an ACK

    def handle(self) -> None:
        self.held: list[TokenId] | None = None  # the prefix this connection holds
        self.closing = False
        while not self.closing:
            try:
                request, headers, self.closing = _read_head(self.rfile, _REQUEST_LINE)
                if request["method"] != "POST":
                    raise _BadHead(501, f"method {request['method']!r} is not supported")
                if "transfer-encoding" in headers:
                    raise _BadHead(400, "Transfer-Encoding is not supported: send Content-Length")
                if not re.fullmatch(_LENGTH, length := headers.get("content-length", "")):
                    raise _BadHead(400, f"Content-Length must be a byte count, got {length!r}")
                if int(length) > MAX_BODY:
                    raise _BadHead(413, f"request body of {length} bytes, over {MAX_BODY}")
                self.do_POST(request["path"], self.rfile.read(int(length)))
            except http.client.RemoteDisconnected:
                return  # the client closed its idle connection
            except _BadHead as exc:
                self._reply(exc.args[0], {"error": exc.args[1]})

    def _reply(self, status: int, payload: dict) -> None:
        # A reply other than 200 ends the connection: an unread body is never a request.
        self.closing = self.closing or status != 200
        body = json.dumps(payload).encode("utf-8")
        close = "Connection: close\r\n" if self.closing else ""
        self.request.sendall(f"HTTP/1.1 {status} {http.client.responses[status]}\r\nContent-Type: "
                             f"application/json\r\nContent-Length: {len(body)}\r\n{close}\r\n"
                             .encode("ascii") + body)

    def do_POST(self, path: str, body: bytes) -> None:  # noqa: N802 - the HTTP method
        lm = self.server.lm
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"unreadable JSON request body: {exc}"})
            return
        try:
            if path == "/v1/tokenize":
                text = payload["text"]
                if not isinstance(text, str):
                    raise TypeError("text must be a string")
                self.held = lm.tokenize(text)
                self._reply(200, {"ids": self.held})
            elif path == "/v1/logits":
                vocab_size = lm.vocab_size
                if (prefix := payload["prefix"]) is None and self.held is None:
                    raise ValueError("prefix is null, but this connection holds none")
                prefix = (self.held if prefix is None
                          else _id_list(prefix, "prefix", vocab_size))
                suffixes = _id_lists(payload["suffixes"], "suffixes", vocab_size)
                texts = _id_lists(payload["detokenize"], "detokenize", vocab_size)
                top_k = payload["top_k"]
                check_count("top_k", top_k)
                self.held = prefix
                steps, texts = lm.step(prefix, suffixes, texts)
                self._reply(200, {
                    "steps": [_wire_step(step, top_k, vocab_size) for step in steps],
                    "texts": texts,
                    "eos_id": lm.eos,
                    "vocab_size": vocab_size,
                })
            else:
                self._reply(404, {"error": f"unknown path {path!r}"})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
