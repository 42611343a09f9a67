"""The names, config keys and call shapes the benchmark under ``perfbench/`` relies on.

``perfbench/layers.py`` wraps library functions by the attribute name
their callers look them up by, ``perfbench/gen.py`` writes complete
CLI configs, and ``perfbench/workloads.py``'s ``DecodeTimer`` forwards
``decode``'s seven positional parameters. A rename in ``src/``, a dropped
config key or a new ``decode`` parameter makes every benchmark run fail;
these tests make it fail here first. Nothing under ``perfbench/`` is
changed.
"""

import sys
from pathlib import Path

import pytest

from ontodecode import cli, decoder, pipeline

from conftest import ADMISSION_NOTES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("gen", "layers", "tracer", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_name_exists(perfbench):
    import layers

    tracer = layers.install()
    tracer.unwrap_all()


def test_generated_configs_load(perfbench, tmp_path):
    import gen

    gen.gen_summarize(0, tmp_path)
    for name in ("config_ngram.json", "config_remote.json"):
        argv = ["build-dcf", "--config", str(tmp_path / name)]
        cli._checked_config(cli.build_parser().parse_args(argv))


def test_decode_timer_takes_one_sample_per_concept_decode(perfbench, fixture_models):
    import workloads

    lm, onto, lex, cfg = fixture_models
    timer = workloads.DecodeTimer()
    try:
        csrs = [pipeline.extract_csr(lm, onto, lex, (note["id"], note["text"]), cfg)
                for note in ADMISSION_NOTES]
        samples = timer.take()
    finally:
        timer.close()
    assert pipeline.decode is decoder.decode
    assert len(samples) == sum(len(csr.entries) for csr in csrs) > 0
    assert all(units == 1 and seconds > 0 for units, seconds in samples)
