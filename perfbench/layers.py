"""Where the tracer wraps the library, and the per-layer metrics it yields.

Each function is wrapped under the name its caller looks it up by: the
decoder calls ``annotate`` and ``rouge2`` through its own module globals,
``extract_csr`` and ``verbalize`` call ``pipeline.decode``, and the CLI
imported ``load_ontology``, ``train_ngram`` and the pipeline functions
into ``cli``. Methods are wrapped on their class.
"""

from __future__ import annotations

import requests

from ontodecode import annotator, cli, decoder, lm, ontology, pipeline
from ontodecode.metrics import NOT_EXTRACTED
from tracer import Tracer


def _count_entries(counts, args, step):
    counts["lm.next_logits.entries"] += len(step.logits)


def _count_text(key):
    def after(counts, args, result):
        counts[key] += len(args[1])
    return after


def _count_rouge(counts, args, result):
    counts["metrics.rouge2.chars"] += len(args[0]) + len(args[1])


def _count_tokens(counts, args, result):
    counts["decoder.tokens_generated"] += len(result.tokens)


def _count_csr(counts, args, csr):
    counts["pipeline.csr_entries"] += len(csr.entries)
    counts["pipeline.na_entries"] += sum(v == NOT_EXTRACTED for v in csr.entries.values())


def install(tracer: Tracer | None = None) -> Tracer:
    """Wrap every traced call site; returns the tracer recording them."""
    t = tracer or Tracer()
    for cls in (lm.NgramLm, lm.RemoteLm):
        t.wrap(cls, "next_logits", "lm.next_logits", _count_entries)
        t.wrap(cls, "tokenize", "lm.tokenize")
        t.wrap(cls, "detokenize", "lm.detokenize")
    for owner in (lm, cli):
        t.wrap(owner, "train_ngram", "lm.train_ngram")
    t.wrap_http(requests.Session)

    t.wrap(pipeline, "decode", "decoder.decode", _count_tokens)
    t.wrap(decoder, "window_rescore", "decoder.window_rescore")
    t.wrap(decoder, "rouge2", "metrics.rouge2", _count_rouge)

    t.wrap(decoder, "annotate", "annotator.annotate.decoder",
           _count_text("annotator.annotate.decoder.chars"))
    t.wrap(pipeline, "annotate", "annotator.annotate.pipeline",
           _count_text("annotator.annotate.pipeline.chars"))
    for owner in (annotator, cli):
        t.wrap(owner, "build_lexicon", "annotator.build_lexicon")

    for owner in (ontology, cli):
        t.wrap(owner, "load_ontology", "ontology.load")
    for method in ("ancestors", "descendants_within", "restriction_classes",
                   "verbalize_restrictions"):
        t.wrap(ontology.Ontology, method, f"ontology.{method}")

    for owner in (pipeline, cli):
        t.wrap(owner, "extract_csr", "pipeline.extract_csr", _count_csr)
        t.wrap(owner, "build_dcf", "pipeline.build_dcf")
        t.wrap(owner, "prune_csr", "pipeline.prune_csr")
    t.wrap(cli, "verbalize", "pipeline.verbalize")
    t.wrap(cli, "main", "cli.main")
    return t


# (metric, unit): every per-layer metric, in report order.
METRICS = [
    ("lm.next_logits.calls", "count"), ("lm.next_logits.s", "s"),
    ("lm.next_logits.entries", "count"),
    ("lm.tokenize.calls", "count"), ("lm.tokenize.s", "s"),
    ("lm.detokenize.calls", "count"), ("lm.detokenize.s", "s"),
    ("lm.train_ngram.s", "s"),
    ("lm.http.requests", "count"), ("lm.http.retries", "count"),
    ("lm.http.failed", "count"), ("lm.http.wait_s", "s"),
    ("lm.http.bytes_sent", "B"), ("lm.http.bytes_received", "B"),
    ("decoder.decode.calls", "count"), ("decoder.decode.s", "s"),
    ("decoder.decode.self_s", "s"),
    ("decoder.tokens_generated", "count"), ("decoder.selection_yield", "ratio"),
    ("decoder.window_rescore.calls", "count"), ("decoder.window_rescore.s", "s"),
    ("decoder.window_rescore.self_s", "s"),
    ("metrics.rouge2.calls", "count"), ("metrics.rouge2.s", "s"),
    ("metrics.rouge2.chars", "count"),
    ("annotator.annotate.decoder.calls", "count"), ("annotator.annotate.decoder.s", "s"),
    ("annotator.annotate.decoder.chars", "count"),
    ("annotator.annotate.pipeline.calls", "count"), ("annotator.annotate.pipeline.s", "s"),
    ("annotator.annotate.pipeline.chars", "count"),
    ("annotator.build_lexicon.s", "s"),
    ("ontology.load.s", "s"),
    ("ontology.ancestors.calls", "count"), ("ontology.ancestors.s", "s"),
    ("ontology.descendants_within.calls", "count"), ("ontology.descendants_within.s", "s"),
    ("ontology.restriction_classes.calls", "count"), ("ontology.restriction_classes.s", "s"),
    ("ontology.verbalize_restrictions.calls", "count"),
    ("ontology.verbalize_restrictions.s", "s"),
    ("pipeline.extract_csr.calls", "count"), ("pipeline.extract_csr.s", "s"),
    ("pipeline.build_dcf.s", "s"), ("pipeline.prune_csr.s", "s"),
    ("pipeline.verbalize.s", "s"),
    ("pipeline.concepts_per_note", "count"), ("pipeline.na_ratio", "ratio"),
    ("cli.main.s", "s"), ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer(tracer: Tracer, overhead: float) -> dict[str, dict]:
    """Every metric of ``METRICS`` from the tracer's spans and counters.

    ``decoder.selection_yield`` is beams expanded per candidate scored:
    each ``next_logits`` call expands one beam that survived selection,
    and each entry it returns is one candidate scored.
    """
    values: dict[str, float] = {}
    for name, entry in tracer.totals().items():
        key = "lm.http" if name == "lm.http.post" else name
        values[f"{key}.calls"] = entry["calls"]
        values[f"{key}.s"] = entry["s"]
        values[f"{key}.self_s"] = entry["self_s"]
    values["lm.http.wait_s"] = values.get("lm.http.s", 0.0)
    values.update(tracer.counts)
    entries = values.get("lm.next_logits.entries", 0)
    values["decoder.selection_yield"] = (
        values.get("lm.next_logits.calls", 0) / entries if entries else 0.0)
    notes = values.get("pipeline.extract_csr.calls", 0)
    csr_entries = values.get("pipeline.csr_entries", 0)
    values["pipeline.concepts_per_note"] = csr_entries / notes if notes else 0.0
    values["pipeline.na_ratio"] = (
        values.get("pipeline.na_entries", 0) / csr_entries if csr_entries else 0.0)
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in METRICS}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# The shares each workload was designed to show at the seed commit.
DESIGN_CHECKS = {
    "extract-bigvocab": (
        "(lm.next_logits.s + decoder.decode.self_s) / decoder.decode.s", 0.70,
        lambda v: _share(v["lm.next_logits.s"] + v["decoder.decode.self_s"],
                         v["decoder.decode.s"])),
    "summarize-longnote": (
        "decoder.window_rescore.s / decoder.decode.s", 0.40,
        lambda v: _share(v["decoder.window_rescore.s"], v["decoder.decode.s"])),
    "summarize-remote": (
        "lm.http.wait_s / decoder.decode.s", 0.50,
        lambda v: _share(v["lm.http.wait_s"], v["decoder.decode.s"])),
    "dcf-snomed": ("lm.next_logits.calls", 0, lambda v: v["lm.next_logits.calls"]),
}


def report(workload: str, metrics: dict[str, dict], n_ops: int) -> None:
    print(f"  per-layer metrics over set-up plus {n_ops} traced operations")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    label, floor, share = DESIGN_CHECKS[workload]
    value = share({name: entry["value"] for name, entry in metrics.items()})
    holds = value == 0 if floor == 0 else value >= floor
    expected = "0" if floor == 0 else f">= {floor}"
    print(f"  design check: {label} = {value:.3f} "
          f"({'holds' if holds else 'DOES NOT HOLD'}; expected {expected})")
