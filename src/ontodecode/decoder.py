"""Diverse (grouped) beam search steered by ontology-aware window scores.

Beams are expanded group by group; within one step, later groups pay a
Hamming diversity penalty for tokens earlier groups already picked at
that position. Every ``window`` freshly generated tokens, each group's
beams are detokenized (in the next step's LM call), annotated and scored:

  hierarchy  H = h_bf * (fraction of tagged classes descending from base)
  property   P = p_bf * |C ∩ P(base)| / (|C| * |P(base)|)
                 + ROUGE-2(window text, verbalized restrictions of base)
  similarity S = s_bf * ROUGE-2(window text, source note)

and the log-softmax of H+P+S across the group's beams is added to each
beam's cumulative log-probability, steering subsequent pruning. All three
scores define 0/0 as 0. Neither ROUGE-2 reference changes within one
decode, so a ``ScoringContext`` counts their bigrams once per decode.

How the window adjustment combines with token likelihood is a policy
choice: adding the log-softmax keeps both terms in the log domain, and
the policy lives entirely in ``window_rescore`` so alternatives are a
one-line change.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .annotator import Lexicon, annotate
from .lm import LmContract, LmStep, TokenId, check_count, is_finite_number
from .metrics import ngram_counts, overlap_f1, rouge2
from .ontology import ClassId, Ontology, UnknownClassError


@dataclass(frozen=True)
class DecodeConfig:
    """Beam-search settings; building one with an invalid value raises ``ValueError``."""

    beam_size: int = 10
    num_groups: int = 2
    diversity_penalty: float = 0.5
    window: int = 10
    h_bf: float = 3.0
    p_bf: float = 10.0
    s_bf: float = 10.0
    max_tokens: int = 100
    # Similarity is computed over the current window by default; set this
    # to score the beam's full generated text against the note instead.
    similarity_full_beam: bool = False

    def __post_init__(self) -> None:
        for name in ("beam_size", "num_groups", "window", "max_tokens"):
            check_count(name, getattr(self, name))
        if self.beam_size % self.num_groups != 0:
            raise ValueError(
                f"beam_size ({self.beam_size}) must be divisible by "
                f"num_groups ({self.num_groups})"
            )
        for name in ("diversity_penalty", "h_bf", "p_bf", "s_bf"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")


@dataclass
class BeamState:
    tokens: list[TokenId]  # generated only: decode sends the prompt once per step
    cum_logprob: float
    window_start: int = 0
    finished: bool = False


@dataclass
class ScoreBreakdown:
    hierarchy: float
    property: float
    similarity: float
    adjusted: float  # log-softmax over the group's raw sums; always <= 0


@dataclass
class DecodeResult:
    text: str
    truncated: bool
    score: float
    tokens: list[TokenId] = field(default_factory=list)


def hierarchy_score(onto: Ontology, base: ClassId, window_classes: set[ClassId],
                    h_bf: float) -> float:
    """Boosted fraction of window classes that descend from ``base``."""
    if base not in onto:
        raise UnknownClassError(f"unknown class id: {base!r}")
    if not window_classes:
        return 0.0
    hits = sum(1 for c in window_classes if base in onto.ancestors(c))
    return h_bf * hits / len(window_classes)


def _class_term(onto: Ontology, related: set[ClassId], window_classes: set[ClassId],
                p_bf: float) -> float:
    for c in window_classes:
        if c not in onto:
            raise UnknownClassError(f"unknown class id: {c!r}")
    if not (window_classes and related):
        return 0.0
    hits = sum(1 for c in window_classes if c in related)
    return p_bf * hits / (len(window_classes) * len(related))


def property_score(onto: Ontology, base: ClassId, window_classes: set[ClassId],
                   window_text: str, p_bf: float) -> float:
    """Restriction-property overlap: class hits plus textual ROUGE-2."""
    return (_class_term(onto, onto.restriction_classes(base), window_classes, p_bf)
            + rouge2(window_text, onto.verbalize_restrictions(base)))


def similarity_score(window_text: str, note: str, s_bf: float) -> float:
    """Boosted ROUGE-2 between the window text and the source note."""
    return s_bf * rouge2(window_text, note)


@dataclass
class ScoringContext:
    """What every window of one decode is scored against, counted once.

    The scores equal :func:`hierarchy_score`, :func:`property_score` and
    :func:`similarity_score`; only the references' bigram counts come
    from here instead of being recounted per window.
    """

    onto: Ontology
    lex: Lexicon
    base: ClassId | None
    cfg: DecodeConfig
    note_bigrams: Counter[tuple[str, ...]]
    related: set[ClassId] = field(default_factory=set)
    restriction_bigrams: Counter[tuple[str, ...]] = field(default_factory=Counter)

    @classmethod
    def build(cls, onto: Ontology, lex: Lexicon, base: ClassId | None, note: str,
              cfg: DecodeConfig) -> ScoringContext:
        ctx = cls(onto, lex, base, cfg, ngram_counts(note, 2))
        if base is not None:
            ctx.related = onto.restriction_classes(base)
            ctx.restriction_bigrams = ngram_counts(onto.verbalize_restrictions(base), 2)
        return ctx

    def scores(self, window_text: str, full_text: str | None) -> tuple[float, float, float]:
        """H, P and S of one window; S scores ``full_text`` when it is given."""
        window_bigrams = ngram_counts(window_text, 2)
        if self.base is None:
            h = p = 0.0
        else:
            classes = {a.class_id for a in annotate(self.lex, window_text)}
            h = hierarchy_score(self.onto, self.base, classes, self.cfg.h_bf)
            p = (_class_term(self.onto, self.related, classes, self.cfg.p_bf)
                 + overlap_f1(window_bigrams, self.restriction_bigrams))
        s_bigrams = window_bigrams if full_text is None else ngram_counts(full_text, 2)
        return h, p, self.cfg.s_bf * overlap_f1(s_bigrams, self.note_bigrams)


def _log_softmax(raw: list[float]) -> list[float]:
    m = max(raw)
    lse = m + math.log(math.fsum(math.exp(r - m) for r in raw))
    return [r - lse for r in raw]


def _window_ids(groups: list[list[BeamState]], eos: TokenId, full: bool) -> list[list[TokenId]]:
    """Per group, its open windows, then (if ``full``) those beams' tokens."""
    ids: list[list[TokenId]] = []
    for beams in groups:
        participants = [b for b in beams if b.window_start < len(b.tokens)]
        ids += [[t for t in b.tokens[b.window_start:] if t != eos] for b in participants]
        if full:
            ids += [[t for t in b.tokens if t != eos] for b in participants]
    return ids


def window_rescore(texts: Iterable[str], beams: list[BeamState],
                   ctx: ScoringContext) -> list[ScoreBreakdown | None]:
    """Score one group's current windows and fold the result into the beams.

    Reads the texts of ``_window_ids([beams], ...)`` from ``texts``, so
    that calls sharing one iterator each take their own group's. Beams
    whose window is empty (already rescored, nothing generated since) are
    skipped and get ``None`` in the returned list. For the others the raw
    sum H+P+S is computed, log-softmaxed across the participants, added to
    ``cum_logprob``, and the window is reset.
    """
    participants = [b for b in beams if b.window_start < len(b.tokens)]
    if not participants:
        return [None] * len(beams)

    n, texts = len(participants), iter(texts)
    window_texts = list(itertools.islice(texts, n))
    full_texts = itertools.islice(texts, n) if ctx.cfg.similarity_full_beam else [None] * n
    partial = [ctx.scores(window_text, full_text)
               for window_text, full_text in zip(window_texts, full_texts)]
    adjusted = _log_softmax([h + p + s for h, p, s in partial])
    by_beam: dict[int, ScoreBreakdown] = {}
    for beam, (h, p, s), bs in zip(participants, partial, adjusted):
        beam.cum_logprob += bs
        beam.window_start = len(beam.tokens)
        by_beam[id(beam)] = ScoreBreakdown(hierarchy=h, property=p, similarity=s, adjusted=bs)
    return [by_beam.get(id(b)) for b in beams]


def _candidates(step: LmStep, beam: BeamState, idx: int, chosen_counts: Counter[TokenId],
                penalty: float, per_group: int) -> list[tuple[float, int, TokenId]]:
    """``(-score, idx, token)`` for each token that can reach this beam's top ``per_group``.

    These are the listed tokens and, when the floor is finite, every
    penalized token plus the unpenalized ``step.floor_ids``; any
    other floor id loses to each of those on the token tie-break (see
    ``LmStep``). The tuples order as the decoder ranks: score descending,
    then beam, then token.
    """
    cum, listed, floor, count = beam.cum_logprob, step.logits, step.floor, chosen_counts.get
    candidates = [(-(cum + logprob - penalty * count(t, 0)), idx, t)
                  for t, logprob in listed.items()]
    if not step.truncated:
        unlisted = itertools.chain((t for t in chosen_counts if t not in listed),
                                   step.floor_ids(per_group, skip=chosen_counts))
        candidates += [(-(cum + floor - penalty * count(t, 0)), idx, t) for t in unlisted]
    return candidates


def decode(lm: LmContract, prompt: str, onto: Ontology, lex: Lexicon,
           base: ClassId | None, note: str, cfg: DecodeConfig) -> DecodeResult:
    """Run grouped beam search with periodic ontology-guided rescoring.

    Groups expand sequentially at each position; candidate scores of later
    groups are reduced by ``diversity_penalty`` times the count of that
    token among earlier groups' picks at this position, and the penalized
    score is what accumulates. Ties break on lowest beam index, then
    lowest token id (lexicographically smaller sequence). Returns the best
    finished beam, or the best unfinished one flagged truncated if nothing
    finished within ``max_tokens``.
    """
    ctx = ScoringContext.build(onto, lex, base, note, cfg)
    prompt_ids = lm.tokenize(prompt)
    per_group = cfg.beam_size // cfg.num_groups
    groups = [[BeamState([], 0.0)] for _ in range(cfg.num_groups)]

    # No group changes another's prefixes or reads another's scores within a
    # step. So one call per step serves every group (the prompt once, then
    # each live beam's tokens in group then slot order), and it carries the
    # windows filled in the last step; their groups are rescored before any
    # selection, which leaves each beam's float operations in the same order.
    filled: list[list[BeamState]] = []
    window_ids: list[list[TokenId]] = []
    for _ in range(cfg.max_tokens):
        live = [b for beams in groups for b in beams if not b.finished]
        if not live:
            break
        replies, texts = lm.step(prompt_ids, [b.tokens for b in live], window_ids)
        window_texts = iter(texts)
        for beams in filled:
            window_rescore(window_texts, beams, ctx)
        filled, steps = [], iter(replies)
        # Read after the call, whose reply gives a remote backend its eos.
        eos = lm.eos
        chosen_counts: Counter[TokenId] = Counter()
        for g, beams in enumerate(groups):
            if all(b.finished for b in beams):
                continue
            # Finished beams hold their slot and compete by score.
            candidates: list[tuple[float, int, TokenId]] = []
            for idx, beam in enumerate(beams):
                candidates += ([(-beam.cum_logprob, idx, -1)] if beam.finished
                               else _candidates(next(steps), beam, idx, chosen_counts,
                                                cfg.diversity_penalty, per_group))

            new_beams: list[BeamState] = []
            group_chosen: list[TokenId] = []
            for neg_score, idx, token in heapq.nsmallest(per_group, candidates):
                parent = beams[idx]
                if token == -1:
                    new_beams.append(parent)
                    continue
                new_beams.append(BeamState(
                    tokens=parent.tokens + [token],
                    cum_logprob=-neg_score,
                    window_start=parent.window_start,
                    finished=(token == eos),
                ))
                group_chosen.append(token)
            if not new_beams:
                raise ValueError(f"the LM returned no next-token candidate for any "
                                 f"beam of group {g}")
            groups[g] = new_beams
            chosen_counts.update(group_chosen)

            active = [b for b in new_beams if not b.finished]
            if not active or len(active[0].tokens) - active[0].window_start >= cfg.window:
                filled.append(new_beams)
        window_ids = _window_ids(filled, eos, cfg.similarity_full_beam)

    # The last call carries every window still open (filled in the last step,
    # or left partial by max_tokens), then every beam's full text.
    flat = [beam for beams in groups for beam in beams]
    final_texts = iter(lm.step([], [], _window_ids(groups, eos, cfg.similarity_full_beam)
                               + [[t for t in b.tokens if t != eos] for b in flat])[1])
    for beams in groups:
        window_rescore(final_texts, beams, ctx)

    # max keeps the first of equal scores: the lowest group, then slot.
    best = max([b for b in flat if b.finished] or flat, key=lambda b: b.cum_logprob)
    return DecodeResult(
        text=list(final_texts)[flat.index(best)],  # an equal beam has equal tokens
        truncated=not best.finished,
        score=best.cum_logprob,
        tokens=[t for t in best.tokens if t != eos],
    )
