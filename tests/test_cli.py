import copy
import functools
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import ontodecode
from ontodecode import cli, metrics, pipeline
from ontodecode.cli import main
from ontodecode.lm import train_ngram

from conftest import ADMISSION_NOTES, NoCandidateLm, build_fixture_tree, serving


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(fixture_tree, command: str) -> list[str]:
    """``command`` over the fixture tree, with its config."""
    inputs = {
        "build-dcf": [],
        "extract": [str(fixture_tree["admission"] / "notes.jsonl")],
        "summarize": [str(fixture_tree["admission"]), "--domain", "cardio"],
    }[command]
    return [command, *inputs, "--config", str(fixture_tree["config"])]


class TestBuildDcf:
    def test_writes_per_domain_and_average(self, fixture_tree, capsys):
        code, out, _ = run(capsys, "build-dcf", "--config", str(fixture_tree["config"]))
        assert code == 0
        listed = [line for line in out.splitlines() if line]
        assert len(listed) == 3
        cardio = json.loads((fixture_tree["output"] / "dcf_cardio.json").read_text())
        assert cardio["domain"] == "cardio"
        assert cardio["freq"]["HeartAttack"] == pytest.approx(2.0)
        average = json.loads((fixture_tree["output"] / "dcf_average.json").read_text())
        assert average["domain"] == "average"
        assert average["freq"]["Root"] == pytest.approx(4.0)

    def test_single_domain_is_error(self, fixture_tree, capsys):
        code, _, err = run(capsys, "build-dcf", "--config", str(fixture_tree["config"]),
                           "--set", 'dcf.domains=["cardio"]')
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_missing_corpus_path_is_usage_error(self, fixture_tree, capsys):
        code, _, err = run(capsys, "build-dcf", "--config", str(fixture_tree["config"]),
                           "--set", "corpus_path=/does/not/exist.jsonl")
        assert code == 2
        assert "error" in json.loads(err)


class TestExtract:
    def test_csr_files(self, fixture_tree, capsys):
        notes = fixture_tree["admission"] / "notes.jsonl"
        code, out, _ = run(capsys, "extract", str(notes),
                           "--config", str(fixture_tree["config"]))
        assert code == 0
        csr1 = json.loads((fixture_tree["output"] / "csr_note-1.json").read_text())
        assert [e["class"] for e in csr1["entries"]] == ["Fever", "Aspirin"]
        assert len(csr1["entries"]) == 2

    def test_concept_filter(self, fixture_tree, capsys):
        notes = fixture_tree["admission"] / "notes.jsonl"
        code, _, _ = run(capsys, "extract", str(notes),
                         "--config", str(fixture_tree["config"]),
                         "--concept", "Fever")
        assert code == 0
        csr1 = json.loads((fixture_tree["output"] / "csr_note-1.json").read_text())
        assert [e["class"] for e in csr1["entries"]] == ["Fever"]

    def test_empty_note_file(self, fixture_tree, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run(capsys, "extract", str(empty),
                           "--config", str(fixture_tree["config"]))
        assert code == 2
        assert "no notes" in json.loads(err)["error"]["message"]

    def test_backend_without_candidates_fails_the_note(self, fixture_tree, capsys):
        # The server lists no next token, so the remote reply's token list is empty.
        with serving(NoCandidateLm()) as server:
            code, _, err = run(capsys, "extract",
                               str(fixture_tree["admission"] / "notes.jsonl"),
                               "--config", str(fixture_tree["config"]),
                               "--set", "lm.kind=remote",
                               "--set", f"lm.endpoint={server.endpoint}")
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "PartialCsrError"
        assert error["message"] == ("extraction failed for note 'note-1': the LM returned no "
                                    "next-token candidate for any beam of group 0")


class TestPrune:
    def test_prunes_against_dcf(self, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        notes = fixture_tree["admission"] / "notes.jsonl"
        run(capsys, "build-dcf", "--config", config)
        run(capsys, "extract", str(notes), "--config", config)
        csr_path = fixture_tree["output"] / "csr_note-1.json"
        dcf_path = fixture_tree["output"] / "dcf_cardio.json"
        code, out, _ = run(capsys, "prune", str(csr_path), "--dcf", str(dcf_path),
                           "--config", config)
        assert code == 0
        pruned = json.loads((fixture_tree["output"] / "csr_note-1_pruned.json").read_text())
        assert [e["class"] for e in pruned["entries"]] == ["Aspirin"]

    @pytest.mark.parametrize("freq", [{"Heart": 1.0}, {"Ghost": 2.0, "Heart": 1.0}],
                             ids=["outside the top k", "inside the top k"])
    def test_csr_class_not_in_the_ontology_is_named(self, fixture_tree, capsys, tmp_path,
                                                    freq):
        # Outside the top k the class was dropped silently; inside, the run
        # failed with KeyError's quoted message and named no file.
        csr, dcf = tmp_path / "csr.json", tmp_path / "dcf.json"
        csr.write_text(json.dumps({"note_id": "n", "entries": [
            {"class": "Heart", "value": "steady"}, {"class": "Ghost", "value": "pale"}]}))
        dcf.write_text(json.dumps({"domain": "cardio", "freq": freq}))
        code, out, err = run(capsys, "prune", str(csr), "--dcf", str(dcf),
                             "--config", str(fixture_tree["config"]), "--set", "prune.k=1")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": f"CSR file {csr}: class 'Ghost' is not in the ontology"}
        assert not (fixture_tree["output"] / "csr_pruned.json").exists()

    @pytest.mark.parametrize("dcf, message", [
        ({"domain": None, "freq": {}}, "DCF 'domain' must be a string"),
        ({"domain": "cardio", "freq": {"Aspirin": "nan"}},
         "DCF 'freq' must map class ids to finite numbers"),
    ])
    def test_bad_dcf_file_is_an_error(self, fixture_tree, capsys, tmp_path, dcf, message):
        csr, bad = tmp_path / "csr.json", tmp_path / "bad.json"
        csr.write_text(json.dumps({"note_id": "n", "entries": []}))
        bad.write_text(json.dumps(dcf))
        code, out, err = run(capsys, "prune", str(csr), "--dcf", str(bad),
                             "--config", str(fixture_tree["config"]))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("what", ["DCF file", "CSR file"])
    @pytest.mark.parametrize("content", [b"{decode: 1}", b"\xff"])
    def test_file_that_is_not_json_is_named(self, fixture_tree, capsys, tmp_path, what,
                                            content):
        files = {"CSR file": tmp_path / "csr.json", "DCF file": tmp_path / "dcf.json"}
        files["CSR file"].write_text(json.dumps({"note_id": "n", "entries": []}))
        files["DCF file"].write_text(json.dumps({"domain": "cardio", "freq": {}}))
        files[what].write_bytes(content)
        code, out, err = run(capsys, "prune", str(files["CSR file"]),
                             "--dcf", str(files["DCF file"]),
                             "--config", str(fixture_tree["config"]))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{what} {files[what]} is not valid JSON: ")

    def test_bad_later_file_writes_nothing(self, fixture_tree, capsys, tmp_path):
        # Each file was pruned and written before the next was read, so the
        # good file's output was left behind when a later file failed.
        good, bad, dcf = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "dcf.json"
        good.write_text(json.dumps({"note_id": "n", "entries": [
            {"class": "Aspirin", "value": "took aspirin"}]}))
        bad.write_text("{not json")
        dcf.write_text(json.dumps({"domain": "cardio", "freq": {"Aspirin": 1.0}}))
        code, out, err = run(capsys, "prune", str(good), str(bad), "--dcf", str(dcf),
                             "--config", str(fixture_tree["config"]))
        assert code == 1
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith(f"CSR file {bad} is not valid JSON: ")
        assert not (fixture_tree["output"] / "good_pruned.json").exists()

    def test_set_section_object_keeps_other_keys(self, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        notes = fixture_tree["admission"] / "notes.jsonl"
        run(capsys, "build-dcf", "--config", config)
        run(capsys, "extract", str(notes), "--config", config)
        csr_path = fixture_tree["output"] / "csr_note-1.json"
        dcf_path = fixture_tree["output"] / "dcf_cardio.json"
        pruned_path = fixture_tree["output"] / "csr_note-1_pruned.json"
        code, _, _ = run(capsys, "prune", str(csr_path), "--dcf", str(dcf_path),
                         "--config", config, "--set", "prune.k=3")
        assert code == 0
        by_key = pruned_path.read_bytes()
        pruned_path.unlink()
        code, _, err = run(capsys, "prune", str(csr_path), "--dcf", str(dcf_path),
                           "--config", config, "--set", 'prune={"k": 3}')
        assert code == 0, err
        assert pruned_path.read_bytes() == by_key


class TestSummarize:
    def test_outputs_and_keep_set(self, fixture_tree, capsys):
        code, out, _ = run(capsys, "summarize", str(fixture_tree["admission"]),
                           "--config", str(fixture_tree["config"]),
                           "--domain", "cardio")
        assert code == 0
        structured = json.loads(
            (fixture_tree["output"] / "structured_summary.json").read_text()
        )
        summary = (fixture_tree["output"] / "summary.txt").read_text()
        assert summary.strip()
        # cardio keep-set: top-3 {Aspirin, Drug, Echo} plus one hop down.
        kept_classes = {e["class"] for csr in structured for e in csr["entries"]}
        assert kept_classes <= {"Aspirin", "Drug", "Echo"}
        assert "Fever" not in kept_classes

    def test_no_prune_keeps_everything(self, fixture_tree, capsys):
        code, _, _ = run(capsys, "summarize", str(fixture_tree["admission"]),
                         "--config", str(fixture_tree["config"]),
                         "--domain", "cardio", "--no-prune")
        assert code == 0
        structured = json.loads(
            (fixture_tree["output"] / "structured_summary.json").read_text()
        )
        kept_classes = {e["class"] for csr in structured for e in csr["entries"]}
        assert "Fever" in kept_classes

    def test_unknown_domain_lists_known(self, fixture_tree, capsys):
        code, _, err = run(capsys, "summarize", str(fixture_tree["admission"]),
                           "--config", str(fixture_tree["config"]),
                           "--domain", "podiatry")
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert "cardio" in message and "neuro" in message

    @pytest.mark.parametrize("argv, message", [
        ("summarize {admission} --domain podiatry",
         "unknown domain 'podiatry'; known domains: ['cardio', 'neuro']"),
        ('build-dcf --set dcf.domains=["cardio"]',
         "DCF normalization needs at least 2 domains, found ['cardio']"),
        ('summarize {admission} --domain cardio --set dcf.domains=["cardio","ortho"]',
         "domain 'ortho' has no documents in the corpus"),
        ('build-dcf --set dcf.domains=["cardio","neuro","neuro"]',
         "domain 'neuro' is listed more than once in 'dcf.domains'"),
        ('summarize {admission} --domain cardio --set dcf.domains=["cardio","neuro","cardio"]',
         "domain 'cardio' is listed more than once in 'dcf.domains'"),
    ])
    def test_domain_checks_run_before_the_ontology_loads(self, fixture_tree, capsys,
                                                         monkeypatch, argv, message):
        def no_load(*args, **kwargs):
            raise AssertionError("ontology loaded before the domains were checked")

        monkeypatch.setattr(cli, "load_ontology", no_load)
        argv = argv.format(admission=fixture_tree["admission"]).split()
        code, out, err = run(capsys, *argv, "--config", str(fixture_tree["config"]))
        assert code == 2
        assert json.loads(err)["error"] == {"type": "UsageError", "message": message}
        assert out == ""
        assert not fixture_tree["output"].exists()

    def test_missing_notes_jsonl(self, fixture_tree, capsys, tmp_path):
        code, _, err = run(capsys, "summarize", str(tmp_path),
                           "--config", str(fixture_tree["config"]),
                           "--domain", "cardio")
        assert code == 2
        assert "notes.jsonl" in json.loads(err)["error"]["message"]


class TestScore:
    def _summary_paths(self, fixture_tree, tmp_path, summary_text):
        summary = tmp_path / "summary.txt"
        summary.write_text(summary_text)
        return summary, fixture_tree["admission"] / "notes.jsonl"

    def test_verbatim_summary_has_zero_hs(self, fixture_tree, capsys, tmp_path):
        text = " ".join(n["text"] for n in ADMISSION_NOTES)
        summary, notes = self._summary_paths(fixture_tree, tmp_path, text)
        code, out, _ = run(capsys, "score", str(summary), str(notes),
                           "--config", str(fixture_tree["config"]))
        assert code == 0
        report = json.loads(out)
        assert report["hs"] == 0.0
        assert "ahs" not in report
        assert "domain_score" not in report

    def test_with_reference_matches_metrics(self, fixture_tree, capsys, tmp_path):
        summary_text = "patient has fever and aspirin was given"
        reference_text = "fever treated with aspirin"
        summary, notes = self._summary_paths(fixture_tree, tmp_path, summary_text)
        reference = tmp_path / "reference.txt"
        reference.write_text(reference_text)
        code, out, _ = run(capsys, "score", str(summary), str(notes),
                           "--config", str(fixture_tree["config"]),
                           "--reference", str(reference))
        assert code == 0
        report = json.loads(out)
        assert report["rouge2"] == pytest.approx(
            metrics.rouge2(summary_text, reference_text))
        assert report["rouge1"] == pytest.approx(
            metrics.rouge1(summary_text, reference_text))
        assert report["rougeLsum"] == pytest.approx(
            metrics.rouge_lsum(summary_text, reference_text))
        assert 0.0 <= report["ahs"] <= report["hs"] <= 1.0

    def test_summary_without_concepts_has_null_hs(self, fixture_tree, capsys, tmp_path):
        summary, notes = self._summary_paths(fixture_tree, tmp_path, "nothing here")
        code, out, _ = run(capsys, "score", str(summary), str(notes),
                           "--config", str(fixture_tree["config"]))
        assert code == 0
        assert json.loads(out) == {"hs": None}

    def test_summary_without_concepts_has_null_ahs(self, fixture_tree, capsys, tmp_path):
        summary, notes = self._summary_paths(fixture_tree, tmp_path, "nothing here")
        reference = tmp_path / "reference.txt"
        reference.write_text("fever treated with aspirin")
        code, out, _ = run(capsys, "score", str(summary), str(notes),
                           "--config", str(fixture_tree["config"]),
                           "--reference", str(reference))
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["rouge1", "rouge2", "rougeLsum", "hs", "ahs"]
        assert report["hs"] is None
        assert report["ahs"] is None


class TestCommon:
    def test_error_json_shape(self, capsys):
        code, _, err = run(capsys, "build-dcf", "--config", "/missing/config.json")
        assert code == 2
        payload = json.loads(err)
        assert set(payload["error"]) == {"type", "message"}

    def test_set_overrides_decode_and_prune(self, fixture_tree, capsys):
        code, _, _ = run(capsys, "summarize", str(fixture_tree["admission"]),
                         "--config", str(fixture_tree["config"]),
                         "--domain", "cardio", "--set", "prune.k=1", "--set", "prune.alpha=0",
                         "--set", "decode.beam_size=2", "--set", "decode.num_groups=1",
                         "--set", "decode.window=3")
        assert code == 0
        structured = json.loads(
            (fixture_tree["output"] / "structured_summary.json").read_text()
        )
        kept_classes = {e["class"] for csr in structured for e in csr["entries"]}
        # top-1 is Aspirin (tie broken by id), no expansion
        assert kept_classes <= {"Aspirin"}

    def test_invalid_beam_group_combo(self, fixture_tree, capsys):
        code, _, err = run(capsys, "summarize", str(fixture_tree["admission"]),
                           "--config", str(fixture_tree["config"]),
                           "--domain", "cardio", "--set", "decode.beam_size=5",
                           "--set", "decode.num_groups=2")
        assert code == 2
        assert "divisible" in json.loads(err)["error"]["message"]


def _load(*argv: str) -> dict:
    return cli.load_config(cli.build_parser().parse_args(["build-dcf", *argv]))


def _defaults_with(section: str, values: dict) -> dict:
    expected = copy.deepcopy(cli.DEFAULTS)
    expected[section].update(values)
    return expected


class TestLoadConfig:
    @pytest.mark.parametrize("file_decode, argv, expected", [
        (None, [], {}),
        ({"window": 4}, [], {"window": 4}),
        ({"window": 4}, ["--set", "decode.window=5"], {"window": 5}),
        ({"window": 4}, ["--set", "decode.window=5", "--set", "decode.window=6"],
         {"window": 6}),
        ({"window": 4}, ["--set", "decode.window=6", "--set", 'decode={"window": 5}'],
         {"window": 5}),
        ({"window": 4, "beam_size": 4},
         ["--set", 'decode={"window": 5, "h_bf": 1.5}', "--set", "decode.window=6"],
         {"window": 6, "beam_size": 4, "h_bf": 1.5}),
    ])
    def test_precedence(self, tmp_path, file_decode, argv, expected):
        argv = list(argv)
        if file_decode is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"decode": file_decode}))
            argv += ["--config", str(path)]
        assert _load(*argv) == _defaults_with("decode", expected)

    def test_set_section_object_keeps_prune_alpha(self):
        config = _load("--set", 'prune={"k": 3}')
        assert config["prune"] == {"k": 3, "alpha": 2}

    def test_set_section_object_keeps_lm_defaults(self):
        config = _load("--set", 'lm={"kind": "remote", "endpoint": "http://h:1"}')
        assert config["lm"]["top_k"] == 50
        assert config["lm"]["order"] == 2
        assert config == _defaults_with("lm", {"kind": "remote", "endpoint": "http://h:1"})

    @pytest.mark.parametrize("setting, message", [
        ("dcf=3", "config value 'dcf' must be an object"),
        ("prune=[1]", "config value 'prune' must be an object"),
        ("dcf.min_ocu=3", "unknown config key 'dcf.min_ocu'"),
        ("ontology_pth=x", "unknown config key 'ontology_pth'"),
        ("dcf.min_occ=1.7", "config value 'dcf.min_occ' must be an integer, got 1.7"),
        ("dcf.min_occ=true", "config value 'dcf.min_occ' must be an integer, got true"),
        ("prune.k=2.5", "config value 'prune.k' must be an integer, got 2.5"),
        ("lm.order=true", "config value 'lm.order' must be an integer, got true"),
        ("decode.beam_size=true", "config value 'decode.beam_size' must be an integer, got true"),
        ('prune.k="x"', "config value 'prune.k' must be an integer, got \"x\""),
        ("decode.max_tokens=2.5", "config value 'decode.max_tokens' must be an integer, got 2.5"),
        ("decode.h_bf=true", "config value 'decode.h_bf' must be a number, got true"),
        ("decode.similarity_full_beam=1",
         "config value 'decode.similarity_full_beam' must be true or false, got 1"),
        ("dcf.domains=d0", "config value 'dcf.domains' must be a list of strings, got \"d0\""),
        ("dcf.domains=[1]", "config value 'dcf.domains' must be a list of strings, got [1]"),
        ("output_dir=null", "config value 'output_dir' must be a string, got null"),
        ("ontology_path=3", "config value 'ontology_path' must be a string or null, got 3"),
    ])
    def test_bad_shape_is_usage_error(self, capsys, setting, message):
        code, _, err = run(capsys, "build-dcf", "--set", setting)
        assert code == 2
        assert json.loads(err)["error"] == {"type": "UsageError", "message": message}

    @pytest.mark.parametrize("setting, section, key, value", [
        ("decode.h_bf=3", "decode", "h_bf", 3),
        ("lm.endpoint=http://h:1", "lm", "endpoint", "http://h:1"),
        ("lm.corpus=null", "lm", "corpus", None),
        ('dcf.domains=["a", "b"]', "dcf", "domains", ["a", "b"]),
    ])
    def test_value_of_the_default_type_is_accepted(self, setting, section, key, value):
        assert _load("--set", setting) == _defaults_with(section, {key: value})

    @pytest.mark.parametrize("flag", ["--k", "--alpha", "--window", "--beam-size", "--groups",
                                      "--h-bf", "--p-bf", "--s-bf"])
    def test_set_is_the_only_way_to_set_a_value(self, fixture_tree, capsys, flag):
        with pytest.raises(SystemExit) as caught:
            main([*_argv(fixture_tree, "extract"), flag, "3"])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


class TestMissingInputs:
    @pytest.mark.parametrize("what, argv", [
        ("config file", "build-dcf --config {missing}"),
        ("lm corpus", "extract {notes} --config {config} --set lm.corpus={missing}"),
        ("ontology file", "build-dcf --config {config} --set ontology_path={missing}"),
        ("corpus file", "build-dcf --config {config} --set corpus_path={missing}"),
        ("note file", "extract {missing} --config {config}"),
        ("DCF file", "prune {notes} --dcf {missing} --config {config}"),
        ("CSR file", "prune {missing} --dcf {dcf} --config {config}"),
        ("input file", "score {missing} {notes} --config {config}"),
        ("input file", "score {summary} {missing} --config {config}"),
        ("reference file", "score {summary} {notes} --config {config} --reference {missing}"),
    ])
    def test_usage_error_names_the_file(self, fixture_tree, capsys, tmp_path, what, argv):
        paths = {
            "config": fixture_tree["config"],
            "notes": fixture_tree["admission"] / "notes.jsonl",
            "dcf": tmp_path / "dcf.json",
            "summary": tmp_path / "summary.txt",
            "missing": tmp_path / "missing.json",
        }
        paths["dcf"].write_text(json.dumps({"domain": "cardio", "freq": {}}))
        paths["summary"].write_text("fever")
        code, _, err = run(capsys, *(part.format(**paths) for part in argv.split()))
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "UsageError", "message": f"{what} not found: {paths['missing']}"}

    @pytest.mark.parametrize("argv, code, error", [
        ("build-dcf --config {bad}", 2, "UsageError"),
        ("build-dcf --config {config} --set ontology_path={bad}", 1, "OntologyError"),
        ("build-dcf --config {config} --set corpus_path={bad}", 1, "ValueError"),
        ("extract {notes} --config {config} --set lm.corpus={bad}", 1, "ValueError"),
        ("extract {bad} --config {config}", 1, "ValueError"),
        ("score {bad} {notes} --config {config}", 1, "ValueError"),
        ("score {summary} {bad} --config {config}", 1, "ValueError"),
        ("score {summary} {notes} --config {config} --reference {bad}", 1, "ValueError"),
    ])
    def test_file_that_is_not_utf8_is_named(self, fixture_tree, capsys, tmp_path, argv, code,
                                            error):
        # Each read raised a bare UnicodeDecodeError that named no file.
        paths = {
            "config": fixture_tree["config"],
            "notes": fixture_tree["admission"] / "notes.jsonl",
            "summary": tmp_path / "summary.txt",
            "bad": tmp_path / "latin1.txt",
        }
        paths["summary"].write_text("fever")
        paths["bad"].write_bytes("caf\u00e9\n".encode("latin-1"))
        got, out, err = run(capsys, *(part.format(**paths) for part in argv.split()))
        assert (got, out) == (code, "")
        payload = json.loads(err)["error"]
        assert payload["type"] == error
        assert str(paths["bad"]) in payload["message"]
        assert "codec can't decode" in payload["message"]

    @pytest.mark.parametrize("argv", [
        "extract {empty} --config {config}",
        "summarize {admission} --domain cardio --config {config}",
        "score {empty} {empty} --config {config}",
    ])
    def test_empty_notes_file(self, fixture_tree, capsys, tmp_path, argv):
        admission = tmp_path / "admission"
        admission.mkdir()
        empty = admission / "notes.jsonl"
        empty.write_text("")
        paths = {"config": fixture_tree["config"], "admission": admission, "empty": empty}
        code, _, err = run(capsys, *(part.format(**paths) for part in argv.split()))
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "UsageError", "message": f"{empty} contains no notes"}


def _leaves(tree: dict, prefix: str = "") -> list[str]:
    """The dotted key of every leaf under ``tree``."""
    return [name for key, value in tree.items()
            for name in (_leaves(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


# JSON from outside: the non-finite numbers, an integer too large for a
# float, the edges of the ranges, and a value of every other JSON type.
_OUTSIDE_VALUES = ["NaN", "Infinity", "-Infinity", "1e400",
                   pytest.param("1" + "0" * 400, id="10**400"), "-1", "0", "true", "null",
                   '"x"', "[]", "{}"]


@pytest.mark.parametrize("key", _leaves(cli.DEFAULTS))
@pytest.mark.parametrize("raw", _OUTSIDE_VALUES)
def test_checked_config_keeps_only_finite_numbers(key, raw):
    args = cli.build_parser().parse_args(["build-dcf", "--set", f"{key}={raw}"])
    try:
        config = cli._checked_config(args)
    except cli.UsageError:
        return
    value, default = (functools.reduce(dict.__getitem__, key.split("."), tree)
                      for tree in (config, cli.DEFAULTS))
    if isinstance(value, float) or isinstance(default, float):
        assert math.isfinite(float(value))


class TestConfigErrors:
    @pytest.mark.parametrize("argv, message", [
        ("build-dcf --config {not_json}", "config file {not_json} is not valid JSON: "),
        ("build-dcf --config {array}", "config file {array} must hold a JSON object"),
        ("build-dcf --set prune.k", "--set expects key=value, got 'prune.k'"),
        ("extract {notes} --config {config} --set lm.kind=remote",
         "config value 'lm.endpoint' is required for the remote backend"),
        ("extract {notes} --config {config} --set lm.kind=gpt",
         "unknown lm kind 'gpt'; expected 'ngram' or 'remote'"),
        ("extract {notes} --config {config} --set lm.corpus=null",
         "config value 'lm.corpus' is required for the ngram backend"),
        ("extract {notes} --config {config} --set lm.corpus={blank}",
         "lm corpus {blank} is empty"),
        ("extract {notes} --config {config} --concept Nope --concept Fever",
         "unknown concept ids: ['Nope']"),
        ('build-dcf --config {config} --set dcf.domains=["cardio","ortho"]',
         "domain 'ortho' has no documents in the corpus"),
        ("summarize {admission} --domain cardio --config {config} --set lm.order=0",
         f"invalid lm configuration: order must be an integer in [1, {sys.maxsize}], got 0"),
        ("summarize {admission} --domain cardio --config {config} --set lm.order=-2",
         f"invalid lm configuration: order must be an integer in [1, {sys.maxsize}], got -2"),
        ("summarize {admission} --domain cardio --config {config} --set decode.window=0",
         f"invalid decode configuration: window must be an integer in [1, {sys.maxsize}], "
         "got 0"),
        ("extract {notes} --config {config} --set decode.beam_size=2" + "0" * 30,
         f"invalid decode configuration: beam_size must be an integer in [1, {sys.maxsize}], "
         "got 2" + "0" * 30),
        ("summarize {admission} --domain cardio --config {config} --set decode.h_bf=NaN",
         "invalid decode configuration: h_bf must be a finite number >= 0, got nan"),
        ("summarize {admission} --domain cardio --config {config} --set decode.h_bf=Infinity",
         "invalid decode configuration: h_bf must be a finite number >= 0, got inf"),
        ("summarize {admission} --domain cardio --config {config} --set decode.h_bf=1e400",
         "invalid decode configuration: h_bf must be a finite number >= 0, got inf"),
        ("summarize {admission} --domain cardio --config {config} --set dcf.min_occ=0",
         f"invalid dcf configuration: min_occ must be an integer in [1, {sys.maxsize}], got 0"),
        ("summarize {admission} --domain cardio --config {config} --set prune.k=-1",
         f"invalid prune configuration: k must be an integer in [1, {sys.maxsize}], got -1"),
        ("summarize {admission} --domain cardio --config {config} --set prune.alpha=-1",
         f"invalid prune configuration: alpha must be an integer in [0, {sys.maxsize}], got -1"),
        ("summarize {admission} --domain cardio --config {config} --set lm.kind=remote"
         " --set lm.endpoint=http://127.0.0.1:9 --set lm.top_k=0",
         f"invalid lm configuration: top_k must be an integer in [1, {sys.maxsize}], got 0"),
        *((f"summarize {{admission}} --domain cardio --config {{config}} --set lm.kind={kind}"
           f" --set lm.endpoint={endpoint}",
           "invalid lm configuration: endpoint must be http:// or https://, a host, an "
           f"optional port and an optional path, got {endpoint!r}")
          for kind in ("remote", "ngram")
          for endpoint in ("localhost:8000", "ftp://x/", "http://")),
        ("serve-ngram --config {config} --port 70000", "--port must be in [0, 65535], got 70000"),
        ("serve-ngram --config {config} --port 65536", "--port must be in [0, 65535], got 65536"),
        ("serve-ngram --config {config} --port -1", "--port must be in [0, 65535], got -1"),
        # Checked before the model trains; it trained, then exited 1 with a bare gaierror.
        ("serve-ngram --config {config} --host 999.1.1.1",
         "--host '999.1.1.1' does not resolve: [Errno -2] Name or service not known"),
    ])
    def test_usage_error_message(self, fixture_tree, capsys, monkeypatch, tmp_path, argv,
                                 message):
        def no_lookup(*args, **kwargs):
            raise socket.gaierror(-2, "Name or service not known")

        trained = []
        monkeypatch.setattr(socket, "getaddrinfo", no_lookup)  # no DNS query runs
        monkeypatch.setattr(cli, "train_ngram",
                            lambda *args: trained.append(args) or train_ngram(*args))
        paths = {
            "config": fixture_tree["config"],
            "admission": fixture_tree["admission"],
            "notes": fixture_tree["admission"] / "notes.jsonl",
            "not_json": tmp_path / "not_json.json",
            "array": tmp_path / "array.json",
            "blank": tmp_path / "blank.txt",
        }
        paths["not_json"].write_text("{decode: 1}")
        paths["array"].write_text("[]")
        paths["blank"].write_text("\n  \n")
        code, _, err = run(capsys, *(part.format(**paths) for part in argv.split()))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith(message.format(**paths))
        if argv.startswith("serve-ngram"):
            assert trained == []  # every serve-ngram flag is checked before the model trains

    def test_out_of_range_prune_flag_is_usage_error(self, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        run(capsys, "build-dcf", "--config", config)
        run(capsys, *_argv(fixture_tree, "extract"))
        code, _, err = run(capsys, "prune", str(fixture_tree["output"] / "csr_note-1.json"),
                           "--dcf", str(fixture_tree["output"] / "dcf_cardio.json"),
                           "--config", config, "--set", "prune.k=0")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": f"invalid prune configuration: k must be an integer in [1, {sys.maxsize}], "
                       "got 0"}

    def test_out_of_range_value_exits_before_any_decode(self, fixture_tree, capsys,
                                                         monkeypatch):
        def no_decode(*args, **kwargs):
            raise AssertionError("decode called before the config was checked")

        monkeypatch.setattr(pipeline, "decode", no_decode)
        code, _, err = run(capsys, *_argv(fixture_tree, "summarize"), "--set", "prune.k=-1")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": f"invalid prune configuration: k must be an integer in [1, {sys.maxsize}], "
                       "got -1"}

    @pytest.mark.parametrize("argv", [
        "build-dcf --config {config}",
        "extract {notes} --config {config}",
        "prune {csr} --dcf {dcf} --config {config}",
        "summarize {admission} --domain cardio --config {config}",
        "score {summary} {notes} --config {config}",
        "serve-ngram --config {config}",
    ])
    def test_removed_jobs_flag_exits_2_in_every_command(self, fixture_tree, capsys,
                                                        monkeypatch, tmp_path, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("a command ran with the removed --jobs flag")

        monkeypatch.setattr(cli, "_checked_config", no_work)
        paths = {"config": fixture_tree["config"], "csr": tmp_path / "csr.json",
                 "dcf": tmp_path / "dcf.json", "summary": tmp_path / "summary.txt",
                 "notes": fixture_tree["admission"] / "notes.jsonl",
                 "admission": fixture_tree["admission"]}
        with pytest.raises(SystemExit) as exit_info:
            main([*(part.format(**paths) for part in argv.split()), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_domains_default_to_the_corpus_in_first_occurrence_order(self, fixture_tree,
                                                                     capsys, tmp_path):
        notes = [{"id": "n1", "domain": "neuro", "text": "patient reports headache"},
                 {"id": "x", "text": "aspirin given"},
                 {"id": "c1", "domain": "cardio", "text": "aspirin given"},
                 {"id": "n2", "domain": "neuro", "text": "migraine history noted"},
                 {"id": "c2", "domain": "cardio", "text": "heart attack suspected"}]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(note) + "\n" for note in notes))
        outputs = []
        for domains in ("[]", '["neuro","cardio"]'):
            out = tmp_path / f"out-{len(domains)}"
            code, printed, err = run(capsys, "build-dcf", "--config", str(fixture_tree["config"]),
                                     "--set", f"corpus_path={corpus}",
                                     "--set", f"dcf.domains={domains}",
                                     "--set", f"output_dir={out}")
            assert code == 0, err
            assert [Path(line).name for line in printed.split()] == [
                "dcf_neuro.json", "dcf_cardio.json", "dcf_average.json"]
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


class TestInputsCheckedBeforeWork:
    @pytest.mark.parametrize("argv, notes, message", [
        ("extract {jsonl} --config {config}", [("a b", None), ("a_b", None)],
         "note 'a b' and note 'a_b' both write csr_a_b.json"),
        ("extract {jsonl} --config {config}", [("", None), ("!!!", None)],
         "note '' and note '!!!' both write csr_unnamed.json"),
        ("prune {a} {b} --dcf {a} --config {config}", [],
         "CSR file {a} and CSR file {b} both write csr_pruned.json"),
        ("build-dcf --config {config} --set corpus_path={jsonl} --set dcf.domains=[]",
         [("1", "a b"), ("2", "a_b")], "domain 'a b' and domain 'a_b' both write dcf_a_b.json"),
        ("build-dcf --config {config} --set corpus_path={jsonl} --set dcf.domains=[]",
         [("1", "average"), ("2", "cardio")],
         "domain 'average' and the cross-domain average both write dcf_average.json"),
    ], ids=["extract slug", "extract unnamed", "prune stem", "build-dcf slug",
            "build-dcf average"])
    def test_two_inputs_with_one_output_name_are_a_usage_error(
            self, fixture_tree, capsys, monkeypatch, tmp_path, argv, notes, message):
        def no_decode(*args, **kwargs):
            raise AssertionError("decode called before the output names were checked")

        monkeypatch.setattr(pipeline, "decode", no_decode)
        paths = {"config": fixture_tree["config"], "jsonl": tmp_path / "notes.jsonl",
                 "a": tmp_path / "a" / "csr.json", "b": tmp_path / "b" / "csr.json"}
        paths["jsonl"].write_text("".join(
            json.dumps({"id": note_id, "domain": domain, "text": "fever noted"}) + "\n"
            for note_id, domain in notes))
        for csr in (paths["a"], paths["b"]):
            csr.parent.mkdir()
            csr.write_text(json.dumps({"note_id": "n", "entries": []}))
        code, out, err = run(capsys, *(part.format(**paths) for part in argv.split()))
        assert code == 2
        assert json.loads(err)["error"] == {"type": "UsageError",
                                            "message": message.format(**paths)}
        assert out == ""
        assert not fixture_tree["output"].exists()

    @pytest.mark.parametrize("command", ["extract", "summarize"])
    def test_empty_note_text_fails_before_any_decode(self, fixture_tree, capsys, monkeypatch,
                                                     command):
        notes = [dict(note) for note in ADMISSION_NOTES]
        notes[1]["text"] = ""
        (fixture_tree["admission"] / "notes.jsonl").write_text(
            "".join(json.dumps(note) + "\n" for note in notes))
        decodes = []
        original = pipeline.decode

        def spy(*args, **kwargs):
            decodes.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "decode", spy)
        code, _, err = run(capsys, *_argv(fixture_tree, command))
        assert code == 1
        assert json.loads(err)["error"] == {"type": "ValueError",
                                            "message": "note 'note-2' has empty text"}
        assert decodes == []


_OUTPUTS = {
    "build-dcf": ["dcf_average.json", "dcf_cardio.json", "dcf_neuro.json"],
    "extract": ["csr_note-1.json", "csr_note-2.json"],
    "summarize": ["structured_summary.json", "summary.txt"],
}


@pytest.fixture(scope="module")
def served_fixture_lm(tmp_path_factory):
    """A fixture tree, and the flags that point it at its n-gram LM on loopback.

    ``top_k`` is the vocabulary size, so every reply lists every token.
    """
    tree = build_fixture_tree(tmp_path_factory.mktemp("served"))
    lines = tree["lm_corpus"].read_text(encoding="utf-8").splitlines()
    lm = train_ngram([line for line in lines if line.strip()], 2)
    with serving(lm) as server:
        yield tree, ["--set", "lm.kind=remote", "--set", f"lm.endpoint={server.endpoint}",
                     "--set", f"lm.top_k={lm.vocab_size}"]


class TestRepeatedRuns:
    def test_overrides_leave_defaults_untouched(self, fixture_tree, capsys):
        before = copy.deepcopy(cli.DEFAULTS)
        # No config file: the overrides are applied, then the missing
        # ontology path ends the run with a usage error.
        code, _, _ = run(capsys, "build-dcf", "--set", "decode.window=3", "--set", "prune.k=7")
        assert code == 2
        assert cli.DEFAULTS == before
        code, _, _ = run(capsys, "build-dcf", "--config", str(fixture_tree["config"]))
        assert code == 0
        assert cli.DEFAULTS == before

    @pytest.mark.parametrize("command", ["build-dcf", "extract", "summarize"])
    def test_output_bytes_independent_of_hash_seed(self, fixture_tree, tmp_path, command):
        src = str(Path(ontodecode.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2", "3"):
            out = tmp_path / f"out-{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "ontodecode.cli", *_argv(fixture_tree, command),
                 "--set", f"output_dir={out}"],
                env=env, check=True, capture_output=True, timeout=60,
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert list(outputs[0]) == _OUTPUTS[command]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["extract", "summarize"])
    def test_determinism_matrix(self, served_fixture_lm, tmp_path, capsys, command):
        """The served cell writes the bytes of an in-process run."""
        tree, remote = served_fixture_lm

        def outputs(out: Path, *extra: str) -> dict[str, bytes]:
            code, _, err = run(capsys, *_argv(tree, command),
                               "--set", f"output_dir={out}", *extra)
            assert code == 0, err
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        reference = outputs(tmp_path / "reference")
        assert list(reference) == _OUTPUTS[command]
        assert outputs(tmp_path / "served", *remote) == reference

    def test_second_in_process_summarize_writes_the_same_bytes(self, fixture_tree, tmp_path,
                                                               capsys):
        outputs = []
        for run_no in (1, 2):
            out = tmp_path / f"out-{run_no}"
            code, _, err = run(capsys, *_argv(fixture_tree, "summarize"),
                               "--set", f"output_dir={out}")
            assert code == 0, err
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert list(outputs[0]) == ["structured_summary.json", "summary.txt"]
        assert outputs[0] == outputs[1]
