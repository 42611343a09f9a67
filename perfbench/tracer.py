"""Spans around the library's public calls, recorded from outside.

The tracer replaces a function where it is looked up (a module attribute
or a class attribute) with a wrapper that records one span per call:
name, start, end and the span that was open when the call began. Nothing
under ``src/`` changes; ``unwrap_all`` puts every original back. Spans are
kept in memory and written as JSONL once the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (threads), so their intervals are
    merged before being subtracted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             after: Callable[[Counter, tuple, Any], None] | None = None) -> None:
        """Record a span named ``name`` for every call of ``owner.attr``.

        ``after(counts, args, result)`` runs once the call has returned.
        """
        original = getattr(owner, attr)
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # filled in below
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_http(self, session_cls: Any) -> None:
        """Count requests, failures, retries and bytes at ``Session.post``.

        A failure is a raised exception or a status other than 200; a retry
        is a post that follows a failed one.
        """
        original = session_cls.post
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        failing = [False]

        def post(session, url, *args, **kwargs):
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append(index)
            counts["lm.http.requests"] += 1
            if failing[0]:
                counts["lm.http.retries"] += 1
            start = clock()
            try:
                response = original(session, url, *args, **kwargs)
            except BaseException:
                counts["lm.http.failed"] += 1
                failing[0] = True
                raise
            finally:
                stack.pop()
                spans[index] = Span("lm.http.post", start, clock(),
                                    stack[-1] if stack else -1)
            failing[0] = response.status_code != 200
            counts["lm.http.failed"] += failing[0]
            counts["lm.http.bytes_sent"] += len(response.request.body or b"")
            counts["lm.http.bytes_received"] += len(response.content)
            return response

        session_cls.post = post
        self._patches.append((session_cls, "post", original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own
        return out

    def write_jsonl(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent}) + "\n")
