"""The names and config keys the benchmark under ``perfbench/`` relies on.

``perfbench/layers.py`` wraps library functions by the attribute name
their callers look them up by, and ``perfbench/gen.py`` writes complete
CLI configs. A rename in ``src/`` or a dropped config key makes every
benchmark run fail; these tests make it fail here first. Nothing under
``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

from ontodecode import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("gen", "layers", "tracer"):
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
