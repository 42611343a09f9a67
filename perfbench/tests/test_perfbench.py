"""Tests of the benchmark itself: generators, the gate and the tracer.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import gen
from gate import Gate, load_recorded, sha256
from run import Runner, end_to_end, tail
from tracer import Span, Tracer, self_times
from workloads import DcfSnomed, ExtractBigvocab, dcf_oracle_problems


def tree_bytes(root: Path) -> dict[str, bytes]:
    # Configs hold absolute paths into their own directory; compare without it.
    return {str(p.relative_to(root)): p.read_bytes().replace(str(root).encode(), b"ROOT")
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["extract-bigvocab", "summarize-longnote"])
def test_same_seed_generates_same_bytes(tmp_path, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        gen.GENERATORS[workload](seed, (tmp_path / name).resolve())
    first, again, other = (tree_bytes((tmp_path / n).resolve()) for n in "abc")
    assert first == again
    assert first != other


def test_summarize_vocabulary_is_exact(tmp_path):
    gen.gen_summarize(7, tmp_path)
    words = {w for line in (tmp_path / "lm_corpus.txt").read_text().splitlines()
             for w in line.split()}
    assert len(words) + 1 == gen.SUMMARIZE["vocab_size"]


def test_gate_trips_on_one_changed_byte():
    data = b'{"note_id": "n1", "entries": []}\n'
    changed = data.replace(b"n1", b"n2")
    for gate in (Gate(recorded={"csr/n1": sha256(data)}),  # digest recorded for the seed
                 Gate(earlier={"csr/n1": sha256(data)})):  # digest from an earlier run
        assert gate.check("csr/n1", data)
        assert not gate.check("csr/n1", changed)
        assert gate.mismatches == ["csr/n1"]
    repeat = Gate()  # the same output produced twice in one run
    assert repeat.check("csr/n1", data)
    assert not repeat.check("csr/n1", changed)


def test_gate_needs_a_recorded_digest_for_every_output():
    gate = Gate(recorded={})
    assert not gate.check("csr/unknown", b"x")


def test_recorded_digests_match_a_default_seed_extraction(tmp_path):
    gen.gen_extract(0, tmp_path)
    workload = ExtractBigvocab(tmp_path, tmp_path)
    workload.setup()
    try:
        runner = Runner(Gate(recorded=load_recorded("extract-bigvocab", 0)))
        op = next(workload.ops())
        runner.run(op)
        assert runner.failed == 0 and not runner.gate.mismatches
        key, data = op().outputs[0]
        flipped = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
        assert not runner.gate.check(key, flipped)
    finally:
        workload.close()


def test_dcf_oracle_catches_a_changed_pruning(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "DCF", dict(classes=400, depth=6, domains=3, docs_per_domain=4,
                                         doc_words=60, csrs=6, csr_entries=(3, 6)))
    gen.gen_dcf(1, tmp_path)
    workload = DcfSnomed(tmp_path, tmp_path)
    workload.setup()
    runner = Runner(Gate())
    runner.run_n(workload.ops(), workload.cycle_length())
    assert runner.failed == 0
    outputs = dict(runner.first_outputs)
    assert dcf_oracle_problems(tmp_path, outputs) == []
    pruned = json.loads(outputs["pruned/csr-000"])
    pruned["entries"].append({"class": "C000001", "label": "x", "value": "y"})
    outputs["pruned/csr-000"] = json.dumps(pruned).encode()
    assert dcf_oracle_problems(tmp_path, outputs) == ["pruned/csr-000: differs from the "
                                                      "re-derived pruning"]


def test_self_time_matches_hand_computed_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps "a", as a second thread would
        Span("c", 5.0, 5.5, 2),
        Span("d", 7.0, 12.0, 0),  # runs past its parent; only 7..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 3, 3.0, 2.5, 0.5, 5.0])


def test_tracer_records_nesting_and_restores_originals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    original = Box.outer
    tracer.wrap(Box, "inner", "inner")
    tracer.wrap(Box, "outer", "outer", lambda counts, args, result: counts.update(out=result))
    assert Box().outer() == 2
    tracer.unwrap_all()
    assert Box.outer is original
    # outer: clock 0..3, inner: clock 1..2
    assert tracer.spans == [Span("outer", 0.0, 3.0, -1), Span("inner", 1.0, 2.0, 0)]
    assert tracer.totals()["outer"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert tracer.counts["out"] == 2


def test_tail_is_highest_percentile_with_ten_samples_above():
    samples = [float(i) for i in range(1, 41)]
    value, pct = tail(samples)
    assert pct == 75
    assert sum(s > value for s in samples) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_reference_units_cancel_a_slower_machine_phase():
    runner = Runner(Gate())
    # The same operation, timed once in a fast phase and twice in a phase
    # where everything, the reference work included, ran twice as slowly.
    runner.units = [(1, 0.2, 1.0), (1, 0.4, 10.0), (1, 0.4, 10.5)]
    runner.calls = [(0.2, 1.0), (0.4, 10.0), (0.4, 10.5)]
    runner.reference = [(0.9, 0.01), (1.1, 0.01), (10.2, 0.02), (30.0, 0.05)]
    metrics, info = end_to_end(runner, setup_times=[1.0, 3.0, 4.0],
                               setup_refs=[0.003, 0.003, 0.006], rss_mb=5.0)
    assert metrics["op_ref.p50"] == (pytest.approx(20.0), "ref")
    assert metrics["op_ref.tail"] == (pytest.approx(20.0), "ref")
    assert metrics["ops_per_ref"] == (pytest.approx(1 / 20), "1/ref")
    assert metrics["call_ref.p50"] == (pytest.approx(20.0), "ref")
    assert metrics["setup_s"] == (pytest.approx(2.0), "s")  # 1, 3 and 4 s at half speed
    assert info["raw"]["op_s.p50"] == pytest.approx(0.4)
    assert info["raw"]["setup_s"] == 3.0
