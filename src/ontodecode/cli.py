"""Command-line front end.

Subcommands wire the library into the full flow: ``build-dcf`` for the
domain analysis, ``extract`` for per-note CSRs, ``prune``/``summarize``
for domain-adapted output, ``score`` for the evaluation report, and
``serve-ngram`` to expose the reference model over the wire protocol.
Configuration lives in one JSON file; every value can be overridden with
``--set dotted.key=value``. Failures print a machine-readable error object
on stderr: usage and configuration problems exit 2, runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import inspect
import json
import logging
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import metrics
from .annotator import annotate, build_lexicon
from .decoder import DecodeConfig
from .lm import LmContract, LmServer, NgramLm, RemoteLm, check_order, check_top_k, train_ngram
from .ontology import Ontology, load_ontology
from .pipeline import (
    CSR,
    DCF,
    DomainSpec,
    Note,
    average_dcf,
    build_dcf,
    check_dcf_options,
    check_prune_options,
    extract_csr,
    normalize_dcf,
    prune_csr,
    read_corpus,
    verbalize,
)

logger = logging.getLogger(__name__)

LOG_ENV_VAR = "ONTO_DECODE_LOG"

DEFAULTS: dict[str, Any] = {
    "ontology_path": None,
    "corpus_path": None,
    "lm": {
        "kind": "ngram",
        "order": 2,
        "corpus": None,
        "endpoint": None,
        "top_k": 50,
    },
    "decode": {f.name: f.default for f in dataclasses.fields(DecodeConfig)},
    "dcf": {"domains": [], **{name: p.default for name, p in
                              inspect.signature(build_dcf).parameters.items()
                              if p.default is not p.empty}},
    "prune": {"k": 30, "alpha": 2},
    "task_instruction": "Summarize these clinical notes in a short text.",
    "output_dir": "out",
}


class UsageError(ValueError):
    """Bad invocation or configuration; maps to exit code 2."""


# --------------------------------------------------------------------------
# Configuration handling
# --------------------------------------------------------------------------


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _nested(dotted: str, value: Any) -> dict:
    """``a.b=v`` -> ``{"a": {"b": v}}``."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def load_config(args: argparse.Namespace) -> dict:
    """``DEFAULTS``, then the config file, then each ``--set`` in order.

    Every layer deep-merges onto the ones before it, so an object value
    replaces only the keys it names.
    """
    layers: list[dict] = []
    if args.config:
        path = _existing(args.config, "config file")
        try:
            file_config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_config, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        layers.append(file_config)

    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        layers.append(_nested(key, value))
    config = functools.reduce(_deep_merge, layers, copy.deepcopy(DEFAULTS))
    _check_shape(config, DEFAULTS)
    return config


# By the type of a default: the types its value may have, and their name.
_LEAF_TYPES: dict[type, tuple[tuple[type, ...], str]] = {
    type(None): ((type(None), str), "a string or null"), bool: ((bool,), "true or false"),
    int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
    list: ((list,), "a list of strings"),
}


def _check_shape(config: dict, defaults: dict, prefix: str = "") -> None:
    """Every key is one ``defaults`` holds, and every value has its default's type.

    A bool is neither an int nor a float, and a list holds strings only.
    """
    for key, value in config.items():
        name = prefix + key
        if key not in defaults:
            raise UsageError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise UsageError(f"config value {name!r} must be an object")
            _check_shape(value, default, name + ".")
            continue
        types, what = _LEAF_TYPES[type(default)]
        if (not isinstance(value, types) or isinstance(value, bool) != isinstance(default, bool)
                or isinstance(value, list) and not all(isinstance(v, str) for v in value)):
            raise UsageError(f"config value {name!r} must be {what}, got {json.dumps(value)}")


def _checked_config(args: argparse.Namespace) -> dict:
    """``load_config``, then every range and ``--jobs``, before any work starts.

    A value is checked whether or not the command uses it, as the types are.
    """
    config = load_config(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    _decode_config(config)
    with _config_values("lm"):
        check_order(config["lm"]["order"])
        check_top_k(config["lm"]["top_k"])
    with _config_values("dcf"):
        check_dcf_options(config["dcf"]["min_occ"], config["dcf"]["count"])
    with _config_values("prune"):
        check_prune_options(config["prune"]["k"], config["prune"]["alpha"])
    return config


def _existing(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    return path


def _read_notes(path: Path) -> list[Note]:
    notes = read_corpus(path)
    if not notes:
        raise UsageError(f"{path} contains no notes")
    return notes


def _require(config: dict, key: str) -> Any:
    value = config.get(key)
    if not value:
        raise UsageError(f"config value {key!r} is required for this command")
    return value


@contextlib.contextmanager
def _config_values(section: str) -> Iterator[None]:
    """Report the library's ``ValueError`` over ``section``'s values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"invalid {section} configuration: {exc}") from exc


def _decode_config(config: dict) -> DecodeConfig:
    with _config_values("decode"):
        return DecodeConfig(**config["decode"])


def _build_lm(config: dict) -> LmContract:
    lm_config = config["lm"]
    kind = lm_config["kind"]
    if kind == "ngram":
        corpus_path = lm_config["corpus"]
        if not corpus_path:
            raise UsageError("config value 'lm.corpus' is required for the ngram backend")
        path = _existing(corpus_path, "lm corpus")
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        if not lines:
            raise UsageError(f"lm corpus {path} is empty")
        with _config_values("lm"):
            return train_ngram(lines, lm_config["order"])
    if kind == "remote":
        endpoint = lm_config["endpoint"]
        if not endpoint:
            raise UsageError("config value 'lm.endpoint' is required for the remote backend")
        with _config_values("lm"):
            return RemoteLm(endpoint, top_k=lm_config["top_k"])
    raise UsageError(f"unknown lm kind {kind!r}; expected 'ngram' or 'remote'")


def _load_ontology(config: dict) -> Ontology:
    return load_ontology(_existing(_require(config, "ontology_path"), "ontology file"))


def _slug(name: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z._-]+", "_", name).strip("_")
    return cleaned or "unnamed"


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def _output_dir(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _map_jobs(fn: Callable, items: Iterable, jobs: int) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _domain_specs(config: dict) -> list[DomainSpec]:
    """Each domain with its corpus documents, in domain order, after every domain check."""
    notes = read_corpus(_existing(_require(config, "corpus_path"), "corpus file"))
    domains = config["dcf"]["domains"] or list(
        dict.fromkeys(note.domain for note in notes if note.domain is not None))
    if len(domains) < 2:
        raise UsageError(
            f"DCF normalization needs at least 2 domains, found {domains or 'none'}"
        )
    specs = []
    for domain in domains:
        if any(spec.name == domain for spec in specs):
            raise UsageError(f"domain {domain!r} is listed more than once in 'dcf.domains'")
        docs = [note.text for note in notes if note.domain == domain]
        if not docs:
            raise UsageError(f"domain {domain!r} has no documents in the corpus")
        specs.append(DomainSpec(name=domain, corpus=docs))
    return specs


def _domain_dcfs(config: dict, onto: Ontology, lex, specs: list[DomainSpec]) -> list[DCF]:
    """One raw DCF per domain, in domain order."""
    dcf_cfg = config["dcf"]
    return [build_dcf(onto, lex, spec, min_occ=dcf_cfg["min_occ"], count=dcf_cfg["count"])
            for spec in specs]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_build_dcf(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    specs = _domain_specs(config)
    onto = _load_ontology(config)
    lex = build_lexicon(onto)
    raws = _domain_dcfs(config, onto, lex, specs)
    out = _output_dir(config)
    for dcf in normalize_dcf(raws):
        path = out / f"dcf_{_slug(dcf.domain)}.json"
        _write_json(path, dcf.to_dict())
        print(path)
    avg_path = out / "dcf_average.json"
    _write_json(avg_path, average_dcf(raws).to_dict())
    print(avg_path)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    onto = _load_ontology(config)
    lex = build_lexicon(onto)
    cfg = _decode_config(config)
    lm = _build_lm(config)

    notes = _read_notes(_existing(args.note_file, "note file"))

    concepts = None
    if args.concept:
        unknown = [c for c in args.concept if c not in onto]
        if unknown:
            raise UsageError(f"unknown concept ids: {unknown}")
        concepts = set(args.concept)

    def one(note: Note) -> CSR:
        return extract_csr(lm, onto, lex, (note.id, note.text), cfg, concepts=concepts)

    csrs = _map_jobs(one, notes, args.jobs)
    out = _output_dir(config)
    for csr in csrs:
        path = out / f"csr_{_slug(csr.note_id)}.json"
        _write_json(path, csr.to_dict(onto))
        print(path)
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    onto = _load_ontology(config)
    dcf_path = _existing(args.dcf, "DCF file")
    dcf = DCF.from_dict(json.loads(dcf_path.read_text(encoding="utf-8")))
    k, alpha = config["prune"]["k"], config["prune"]["alpha"]

    out = _output_dir(config)
    for csr_file in args.csr_files:
        path = _existing(csr_file, "CSR file")
        csr = CSR.from_dict(json.loads(path.read_text(encoding="utf-8")))
        pruned = prune_csr(csr, dcf, onto, k=k, alpha=alpha)
        target = out / f"{path.stem}_pruned.json"
        _write_json(target, pruned.to_dict(onto))
        print(target)
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    specs = _domain_specs(config)
    domains = [spec.name for spec in specs]
    if args.domain not in domains:
        raise UsageError(f"unknown domain {args.domain!r}; known domains: {domains}")
    onto = _load_ontology(config)
    lex = build_lexicon(onto)
    cfg = _decode_config(config)
    lm = _build_lm(config)

    admission_dir = Path(args.admission_dir)
    notes_path = admission_dir / "notes.jsonl"
    if not notes_path.exists():
        raise UsageError(f"admission directory must contain notes.jsonl: {admission_dir}")
    notes = _read_notes(notes_path)

    normalized = normalize_dcf(_domain_dcfs(config, onto, lex, specs))
    domain_dcf = normalized[domains.index(args.domain)]

    def one(note: Note) -> CSR:
        return extract_csr(lm, onto, lex, (note.id, note.text), cfg)

    csrs = _map_jobs(one, notes, args.jobs)
    if args.no_prune:
        kept = csrs
    else:
        prune = config["prune"]
        kept = [prune_csr(csr, domain_dcf, onto, k=prune["k"], alpha=prune["alpha"])
                for csr in csrs]

    summary = verbalize(lm, onto, lex, kept, config["task_instruction"], cfg)

    out = _output_dir(config)
    structured_path = out / "structured_summary.json"
    text_path = out / "summary.txt"
    _write_json(structured_path, [csr.to_dict(onto) for csr in kept])
    text_path.write_text(summary + "\n", encoding="utf-8")
    print(structured_path)
    print(text_path)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    onto = _load_ontology(config)
    lex = build_lexicon(onto)

    summary = _existing(args.summary, "input file").read_text(encoding="utf-8")
    notes = _read_notes(_existing(args.notes, "input file"))

    summary_concepts = {a.class_id for a in annotate(lex, summary)}
    note_concepts: set[str] = set()
    for note in notes:
        note_concepts |= {a.class_id for a in annotate(lex, note.text)}

    # Both hallucination rates are 0/0 when the summary tags no concept.
    tagged = bool(summary_concepts)
    fields: dict[str, Any] = {
        "hs": metrics.hallucination_score(summary_concepts, note_concepts) if tagged else None,
    }
    if args.reference:
        reference = _existing(args.reference, "reference file").read_text(encoding="utf-8")
        reference_concepts = {a.class_id for a in annotate(lex, reference)}
        fields["rouge1"] = metrics.rouge1(summary, reference)
        fields["rouge2"] = metrics.rouge2(summary, reference)
        fields["rougeLsum"] = metrics.rouge_lsum(summary, reference)
        fields["ahs"] = metrics.adjusted_hallucination_score(
            summary_concepts, note_concepts, reference_concepts
        ) if tagged else None
    report = metrics.evaluation_report(**fields)
    print(json.dumps(report, indent=2, ensure_ascii=False))
    return 0


def cmd_serve_ngram(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    if config["lm"]["kind"] != "ngram":
        raise UsageError("serve-ngram requires lm.kind == 'ngram'")
    lm = _build_lm(config)
    assert isinstance(lm, NgramLm)
    server = LmServer(lm, host=args.host, port=args.port)
    print(json.dumps({
        "endpoint": server.endpoint,
        "host": server.host,
        "port": server.port,
        "eos_id": lm.eos,
        "vocab_size": lm.vocab_size,
    }), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


# --------------------------------------------------------------------------
# Parser / entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontodecode",
        description="Ontology-guided constrained decoding and domain-adapted summaries",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value by dotted key")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel worker limit for per-note work")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dcf", parents=[common],
                       help="build and normalize per-domain class frequencies")
    p.set_defaults(func=cmd_build_dcf)

    p = sub.add_parser("extract", parents=[common],
                       help="extract one CSR per note in a JSONL file")
    p.add_argument("note_file")
    p.add_argument("--concept", action="append",
                   help="restrict extraction to this class id (repeatable)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("prune", parents=[common],
                       help="prune CSR files against a DCF")
    p.add_argument("csr_files", nargs="+")
    p.add_argument("--dcf", required=True, help="normalized DCF JSON file")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("summarize", parents=[common],
                       help="end-to-end domain-adapted summary for an admission")
    p.add_argument("admission_dir")
    p.add_argument("--domain", required=True, help="target domain label")
    p.add_argument("--no-prune", action="store_true",
                   help="skip DCF pruning of the extracted CSRs")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("score", parents=[common],
                       help="write the evaluation report for a summary")
    p.add_argument("summary")
    p.add_argument("notes")
    p.add_argument("--reference", help="reference summary text file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("serve-ngram", parents=[common],
                       help="serve the reference n-gram model over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve_ngram)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get(LOG_ENV_VAR, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _print_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _print_error(exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
