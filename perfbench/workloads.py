"""The four workloads: inputs, a repeatable set-up step, and operations.

Every workload is a closed loop with one caller. ``ops()`` yields the same
endless sequence of operations each time it is called; an operation runs
one call into the library or CLI and returns its output bytes, its
timings and any structural problem found in the output. The structural
checks use what the generator knows (which concepts it planted in which
note) and, for the DCF workload, an independent re-computation, so they
hold for every seed, not only for the seed whose digests are recorded.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import itertools
import json
import os
import selectors
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from ontodecode import annotator, cli, ontology, pipeline
from ontodecode import lm as lm_module
from ontodecode.decoder import DecodeConfig
from ontodecode.pipeline import CSR, DCF, DomainSpec

# Default DecodeConfig, with decodes cut at 10 tokens so that one run
# times tens of decodes. Every beam step still scores every vocabulary
# token, which is the cost this workload exists to show.
EXTRACT_DECODE = DecodeConfig(max_tokens=10)
PRUNE_K, PRUNE_ALPHA = 30, 2
SERVER_START_TIMEOUT_S = 60.0


@dataclass
class OpResult:
    outputs: list[tuple[str, bytes]]
    units: list[tuple[int, float]] = field(default_factory=list)  # (units done, seconds)
    calls: list[float] = field(default_factory=list)  # seconds per top-level call
    problems: list[str] = field(default_factory=list)


Op = Callable[[], OpResult]


def _json_bytes(payload) -> bytes:
    # The CLI's own file format (cli._write_json).
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _lm_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _in_order(found: list[str], expected: list[str]) -> bool:
    """True if ``found`` is ``expected`` with some entries left out."""
    remaining = iter(expected)
    return all(any(c == e for e in remaining) for c in found)


class DecodeTimer:
    """Times every concept decode, i.e. every decode with a base class.

    It sits at ``pipeline.decode``, the name ``extract_csr`` and
    ``verbalize`` call, and costs two clock reads per decode.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._original = pipeline.decode
        original, samples = self._original, self.samples

        def timed(lm, prompt, onto, lex, base, note, cfg):
            start = time.perf_counter()
            result = original(lm, prompt, onto, lex, base, note, cfg)
            if base is not None:
                samples.append(time.perf_counter() - start)
            return result

        pipeline.decode = timed

    def take(self) -> list[tuple[int, float]]:
        taken = [(1, s) for s in self.samples]
        self.samples.clear()
        return taken

    def close(self) -> None:
        pipeline.decode = self._original


class ExtractBigvocab:
    """``extract_csr`` per short note with an in-process 2,000-word n-gram LM."""

    group = "extract-bigvocab"

    def __init__(self, root: Path, checkout: Path):
        self.root = root
        self.notes = [(n["id"], n["text"]) for n in _read_jsonl(root / "notes.jsonl")]
        self.expect = json.loads((root / "expect.json").read_text(encoding="utf-8"))
        self.timer = DecodeTimer()

    def setup(self) -> None:
        self.onto = ontology.load_ontology(self.root / "ontology.json")
        self.lex = annotator.build_lexicon(self.onto)
        self.lm = lm_module.train_ngram(_lm_lines(self.root / "lm_corpus.txt"), 2)

    def cycle_length(self) -> int:
        return len(self.notes)

    def ops(self) -> Iterator[Op]:
        for i in itertools.count():
            yield functools.partial(self._extract, self.notes[i % len(self.notes)])

    def _extract(self, note: tuple[str, str]) -> OpResult:
        start = time.perf_counter()
        csr = pipeline.extract_csr(self.lm, self.onto, self.lex, note, EXTRACT_DECODE)
        elapsed = time.perf_counter() - start
        problems = []
        if list(csr.entries) != self.expect[note[0]]:
            problems.append(f"{note[0]}: CSR classes {list(csr.entries)} "
                            f"!= planted {self.expect[note[0]]}")
        return OpResult([(f"csr/{note[0]}", _json_bytes(csr.to_dict(self.onto)))],
                        units=self.timer.take(), calls=[elapsed], problems=problems)

    def close(self) -> dict:
        self.timer.close()
        return {}


class Summarize:
    """``ontodecode summarize`` per admission, driven through ``cli.main``.

    Both summarize workloads read the same generated files; only the LM
    backend differs, so their summaries must be byte-identical.
    """

    group = "summarize"

    def __init__(self, root: Path, checkout: Path, remote: bool):
        self.root = root
        self.checkout = checkout
        self.remote = remote
        self.admissions = json.loads((root / "admissions.json").read_text(encoding="utf-8"))
        self.expect = json.loads((root / "expect.json").read_text(encoding="utf-8"))
        self.config_path = root / ("config_remote.json" if remote else "config_ngram.json")
        if remote:
            # The server listens on loopback; a proxy from the environment
            # must not intercept the client's requests.
            os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        self.server: subprocess.Popen | None = None
        self.server_peak_rss_mb = 0.0
        # cli.load_config leaks --set and flag values into cli.DEFAULTS
        # (shallow copy). Every call here passes a complete config file and
        # no overrides, and DEFAULTS is compared with this snapshot after
        # each call.
        self.defaults = copy.deepcopy(cli.DEFAULTS)
        self.timer = DecodeTimer()

    def setup(self) -> None:
        """What one ``summarize`` call builds before its first decode.

        The CLI repeats all of it on every call; set-up times it once, and
        for the remote backend starts the server the calls will use.
        """
        self._stop_server()
        config = json.loads(self.config_path.read_text(encoding="utf-8"))
        self.out = Path(config["output_dir"])
        annotator.build_lexicon(ontology.load_ontology(config["ontology_path"]))
        if self.remote:
            config["lm"]["endpoint"] = self._start_server()
            self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        else:
            lm_module.train_ngram(_lm_lines(Path(config["lm"]["corpus"])),
                                  int(config["lm"]["order"]))

    def _start_server(self) -> str:
        env = dict(os.environ, PYTHONPATH=str(self.checkout / "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "ontodecode.cli", "serve-ngram", "--port", "0",
             "--config", str(self.root / "config_ngram.json")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
            env=env, cwd=self.checkout, text=True)
        with selectors.DefaultSelector() as sel:
            sel.register(self.server.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=SERVER_START_TIMEOUT_S):
                raise RuntimeError("serve-ngram printed no endpoint in time")
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError(f"serve-ngram exited with code {self.server.wait()}")
        return json.loads(line)["endpoint"]

    def _stop_server(self) -> None:
        if self.server is None:
            return
        try:
            status = Path(f"/proc/{self.server.pid}/status").read_text()
            hwm_kb = next(int(line.split()[1]) for line in status.splitlines()
                          if line.startswith("VmHWM:"))
            self.server_peak_rss_mb = hwm_kb / 1024
        except (OSError, StopIteration, ValueError):
            pass
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def cycle_length(self) -> int:
        return len(self.admissions)

    def ops(self) -> Iterator[Op]:
        for i in itertools.count():
            yield functools.partial(self._summarize, self.admissions[i % len(self.admissions)])

    def _summarize(self, adm: dict) -> OpResult:
        structured_path = self.out / "structured_summary.json"
        text_path = self.out / "summary.txt"
        for path in (structured_path, text_path):
            path.unlink(missing_ok=True)
        argv = ["summarize", adm["dir"], "--domain", adm["domain"],
                "--config", str(self.config_path)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"ontodecode summarize {adm['id']} exited with {code}")
        problems = []
        if cli.DEFAULTS != self.defaults:
            problems.append(f"{adm['id']}: cli.DEFAULTS changed during the call")
        structured = structured_path.read_bytes()
        for csr in json.loads(structured):
            found = [e["class"] for e in csr["entries"]]
            if not _in_order(found, self.expect[csr["note_id"]]):
                problems.append(f"{csr['note_id']}: CSR classes {found} not among "
                                f"planted {self.expect[csr['note_id']]}")
        key = f"summary/{adm['id']}"
        return OpResult([(f"{key}/structured_summary.json", structured),
                         (f"{key}/summary.txt", text_path.read_bytes())],
                        units=self.timer.take(), calls=[elapsed], problems=problems)

    def close(self) -> dict:
        self.timer.close()
        self._stop_server()
        return {"server_peak_rss_mb": self.server_peak_rss_mb} if self.remote else {}


class DcfSnomed:
    """``build_dcf`` per domain, then ``prune_csr`` per CSR, on 100k classes.

    One pass builds every domain's DCF, normalizes them and prunes every
    CSR against its domain's DCF; passes repeat until time runs out.
    """

    group = "dcf-snomed"

    def __init__(self, root: Path, checkout: Path):
        self.root = root
        self.onto = None
        self.lex = None

    def setup(self) -> None:
        self.onto = self.lex = None  # so two ontologies are never alive at once
        self.onto = ontology.load_ontology(self.root / "ontology.json")
        self.lex = annotator.build_lexicon(self.onto)
        notes = pipeline.read_corpus(self.root / "corpus.jsonl")
        names = list(dict.fromkeys(n.domain for n in notes))
        self.domains = [DomainSpec(d, [n.text for n in notes if n.domain == d]) for d in names]
        self.csrs = [(CSR.from_dict(json.loads(Path(c["path"]).read_text(encoding="utf-8"))),
                      c["domain"])
                     for c in json.loads((self.root / "csrs.json").read_text(encoding="utf-8"))]

    def cycle_length(self) -> int:
        return len(self.domains) + 1 + len(self.csrs)

    def ops(self) -> Iterator[Op]:
        while True:
            raws: dict[str, DCF] = {}
            normalized: dict[str, DCF] = {}
            for spec in self.domains:
                yield functools.partial(self._build, spec, raws)
            yield functools.partial(self._normalize, raws, normalized)
            for csr, domain in self.csrs:
                yield functools.partial(self._prune, csr, domain, normalized)

    @staticmethod
    def _dcf_bytes(dcf: DCF) -> bytes:
        # build_dcf fills its map while iterating a set, so the key order
        # follows the interpreter's string hash seed. Sorted keys compare
        # the content, not that order.
        return (json.dumps(dcf.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")

    def _build(self, spec: DomainSpec, raws: dict[str, DCF]) -> OpResult:
        start = time.perf_counter()
        raws[spec.name] = pipeline.build_dcf(self.onto, self.lex, spec)
        elapsed = time.perf_counter() - start
        return OpResult([(f"dcf_raw/{spec.name}", self._dcf_bytes(raws[spec.name]))],
                        units=[(len(spec.corpus), elapsed)])

    def _normalize(self, raws: dict[str, DCF], normalized: dict[str, DCF]) -> OpResult:
        for dcf in pipeline.normalize_dcf([raws[spec.name] for spec in self.domains]):
            normalized[dcf.domain] = dcf
        return OpResult([(f"dcf/{name}", self._dcf_bytes(dcf)) for name, dcf in normalized.items()])

    def _prune(self, csr: CSR, domain: str, normalized: dict[str, DCF]) -> OpResult:
        start = time.perf_counter()
        pruned = pipeline.prune_csr(csr, normalized[domain], self.onto, PRUNE_K, PRUNE_ALPHA)
        elapsed = time.perf_counter() - start
        return OpResult([(f"pruned/{csr.note_id}", _json_bytes(pruned.to_dict(self.onto)))],
                        calls=[elapsed])

    def close(self) -> dict:
        return {}


def dcf_oracle_problems(root: Path, outputs: dict[str, bytes]) -> list[str]:
    """Re-derive the DCFs and pruned CSRs from the generated files alone.

    Uses the planted concepts of each document and breadth-first searches
    over the ontology JSON; no library code runs. ``outputs`` maps gate keys
    to the bytes of their first occurrence in the run.
    """
    classes = json.loads((root / "ontology.json").read_text(encoding="utf-8"))["classes"]
    parents = {c["id"]: c.get("parents", []) for c in classes}
    labels = {c["id"]: c["label"] for c in classes}
    children: dict[str, list[str]] = {cid: [] for cid in parents}
    for cid, ps in parents.items():
        for p in ps:
            children[p].append(cid)
    closure: dict[str, frozenset[str]] = {}

    def ancestors(cid: str) -> frozenset[str]:
        if cid not in closure:
            seen: set[str] = set()
            queue = deque(parents[cid])
            while queue:
                cur = queue.popleft()
                if cur not in seen:
                    seen.add(cur)
                    queue.extend(parents[cur])
            closure[cid] = frozenset(seen)
        return closure[cid]

    planted = json.loads((root / "expect.json").read_text(encoding="utf-8"))
    raw: dict[str, dict[str, float]] = {}
    for note in _read_jsonl(root / "corpus.jsonl"):
        freq = raw.setdefault(note["domain"], {})
        closed = set(planted[note["id"]])
        for cid in planted[note["id"]]:
            closed |= ancestors(cid)
        for cid in closed:
            freq[cid] = freq.get(cid, 0.0) + 1.0

    problems = []
    everything = sorted(set().union(*raw.values()))
    average = {c: sum(f.get(c, 0.0) for f in raw.values()) / len(raw) for c in everything}
    normalized = {d: {c: v / (average[c] + 1e-9) for c, v in f.items()} for d, f in raw.items()}
    for name, freqs in (("dcf_raw", raw), ("dcf", normalized)):
        for domain, freq in freqs.items():
            key = f"{name}/{domain}"
            if key in outputs and json.loads(outputs[key])["freq"] != freq:
                problems.append(f"{key}: differs from the re-derived DCF")

    for spec in json.loads((root / "csrs.json").read_text(encoding="utf-8")):
        csr = json.loads(Path(spec["path"]).read_text(encoding="utf-8"))
        key = f"pruned/{csr['note_id']}"
        if key not in outputs:
            continue
        freq = normalized[spec["domain"]]
        top = [c for c, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:PRUNE_K]]
        keep = set(top)
        for cid in top:
            frontier = [cid]
            for _ in range(PRUNE_ALPHA):
                frontier = [k for f in frontier for k in children[f]]
                keep.update(frontier)
        expected = {"note_id": csr["note_id"],
                    "entries": [{"class": e["class"], "label": labels[e["class"]],
                                 "value": e["value"]}
                                for e in csr["entries"] if e["class"] in keep]}
        if json.loads(outputs[key]) != expected:
            problems.append(f"{key}: differs from the re-derived pruning")
    return problems


WORKLOADS = {
    "extract-bigvocab": ExtractBigvocab,
    "summarize-remote": functools.partial(Summarize, remote=True),
    "summarize-longnote": functools.partial(Summarize, remote=False),
    "dcf-snomed": DcfSnomed,
}
