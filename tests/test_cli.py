"""End-to-end CLI behaviour: stage artifacts, exit codes, config handling."""
import csv
import errno
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import pytest
from conftest import FirstSendDropped, ScriptedServer, make_cohort, record_prompts, sampled_documents

import notepheno
from notepheno import cli, inference
from notepheno.cli import _read_profile_csv, main
from notepheno.corpus import iter_documents, load_labels, load_patients, write_cohort
from notepheno.inference import CachedBackend, CompletionRequest, GenerationParams, MockBackend, chunk_text
from notepheno.preprocess import filter_document_types
from notepheno.prompting import builtin_profiles


def _run(*argv):
    return main(list(argv))


def _read_jsonl(path):
    """The records of a line-record file a stage wrote."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One synth -> profile -> preprocess -> detect run shared by the module."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    assert (
        _run(
            "synth",
            "--out", str(corpus),
            "--n-patients", "80",
            "--prevalence", "diabetes=0.3",
            "--prevalence", "ami=0.2",
            "--prevalence", "hypertension=0.3",
            "--seed", "5",
        )
        == 0
    )
    assert (
        _run(
            "profile",
            "--corpus", str(corpus),
            "--m", "40",
            "--seed", "5",
            "--mock",
            "--out", str(root / "profile.csv"),
        )
        == 0
    )
    assert (
        _run(
            "preprocess",
            "--corpus", str(corpus),
            "--profile-csv", str(root / "profile.csv"),
            "--percentile", "q1",
            "--out", str(root / "prep"),
        )
        == 0
    )
    assert (
        _run(
            "detect",
            "--corpus", str(corpus),
            "--merged", str(root / "prep"),
            "--mode", "all",
            "--mock",
            "--out", str(root / "det"),
        )
        == 0
    )
    return root


def test_synth_writes_corpus_files(pipeline_dirs):
    corpus = pipeline_dirs / "corpus"
    for name in ("documents.jsonl", "patients.jsonl", "labels.jsonl", "truth.jsonl"):
        assert (corpus / name).exists()
    truth = [json.loads(l) for l in (corpus / "truth.jsonl").read_text().splitlines()]
    assert len(truth) == 80 * 3


def test_synth_rerun_is_byte_identical(tmp_path):
    args = ["synth", "--n-patients", "30", "--prevalence", "diabetes=0.4", "--seed", "9"]
    for sub in ("a", "b"):
        assert _run(*args, "--out", str(tmp_path / sub)) == 0
    for name in ("documents.jsonl", "patients.jsonl", "labels.jsonl", "truth.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _fill_the_disk_at(monkeypatch, wanted, nth=1):
    """Make opening the `nth` temporary file of an output whose name is in
    `wanted` raise ENOSPC."""
    path_open, opened = Path.open, []

    def full_disk(self, *a, **kw):
        if self.suffix == ".tmp" and self.stem in wanted:
            opened.append(self.stem)
            if len(opened) == nth:
                raise OSError(errno.ENOSPC, "No space left on device")
        return path_open(self, *a, **kw)

    monkeypatch.setattr(Path, "open", full_disk)


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_synth_that_fails_writing_its_truth_leaves_the_earlier_corpus_whole(tmp_path, monkeypatch, capsys):
    args = ["synth", "--n-patients", "20", "--prevalence", "diabetes=0.4", "--out", str(tmp_path)]
    assert _run(*args, "--seed", "1") == 0
    before = _files(tmp_path)
    _fill_the_disk_at(monkeypatch, {"truth.jsonl"})
    capsys.readouterr()
    assert _run(*args, "--seed", "2") == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert _files(tmp_path) == before


@pytest.fixture(scope="module")
def seeded_runs(tmp_path_factory):
    """The pipelines of two 20-patient cohorts, synth seeds 1 and 2, which share their patient ids."""
    runs = []
    for seed in ("1", "2"):
        root = tmp_path_factory.mktemp(f"seed{seed}")
        corpus = str(root / "corpus")
        for argv in (
            ["synth", "--out", corpus, "--n-patients", "20", "--prevalence", "diabetes=0.3",
             "--prevalence", "ami=0.2", "--prevalence", "hypertension=0.3", "--seed", seed],
            ["profile", "--corpus", corpus, "--m", "40", "--mock", "--out", str(root / "profile.csv")],
            ["preprocess", "--corpus", corpus, "--profile-csv", str(root / "profile.csv"), "--out", str(root / "prep")],
            ["detect", "--corpus", corpus, "--merged", str(root / "prep"), "--mode", "all", "--mock",
             "--out", str(root / "det")],
        ):
            assert main(argv) == 0
        runs.append(root)
    return runs


def _stage_argv(command: str, root: Path, seed: str, out: Path) -> list[str]:
    """`command` on the inputs of the pipeline at `root` (synth: of `seed`), writing into `out`."""
    corpus = str(root / "corpus")
    return {
        "synth": ["synth", "--n-patients", "20", "--prevalence", "diabetes=0.3", "--seed", seed, "--out", str(out)],
        "profile": ["profile", "--corpus", corpus, "--m", "40", "--mock", "--out", str(out / "profile.csv")],
        "preprocess": ["preprocess", "--corpus", corpus, "--profile-csv", str(root / "profile.csv"),
                       "--out", str(out)],
        "detect": ["detect", "--corpus", corpus, "--merged", str(root / "prep"), "--mode", "all", "--mock",
                   "--out", str(out)],
        "evaluate": ["evaluate", "--corpus", corpus, "--detect-dir", str(root / "det"),
                     "--out", str(out / "report.csv")],
        "trend": ["trend", "--corpus", corpus, "--pred", str(root / "det" / "detect_merged_diabetes.jsonl"),
                  "--out", str(out / "trend.csv"), "--svg", str(out / "trend.svg")],
    }[command]


@pytest.mark.parametrize("command, last", [
    ("synth", "manifest_synth.json"),
    ("profile", "manifest_profile.json"),
    ("preprocess", "manifest_preprocess.json"),
    ("detect", "manifest_detect.json"),
    ("evaluate", "manifest_evaluate.json"),
    ("trend", "trend.svg"),
])
def test_a_rerun_that_fails_writing_its_last_output_replaces_none_of_the_earlier_run(
    seeded_runs, tmp_path, monkeypatch, capsys, command, last
):
    out = tmp_path / "out"
    assert main(_stage_argv(command, seeded_runs[0], "1", out)) == 0
    before = _files(out)
    assert last in before
    _fill_the_disk_at(monkeypatch, {last})
    capsys.readouterr()
    assert main(_stage_argv(command, seeded_runs[1], "2", out)) == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert _files(out) == before  # every file whole, and no temporary file left
    # the rerun replaces outputs other than its last, once it can write them all
    assert main(_stage_argv(command, seeded_runs[1], "2", out)) == 0
    after = _files(out)
    assert [name for name in before if name != last and after[name] != before[name]]


def test_a_detect_that_fails_at_its_fifth_label_file_leaves_the_earlier_run_whole(tmp_path, monkeypatch, capsys):
    det = tmp_path / "det"
    for seed in ("1", "2"):
        assert main(["synth", "--n-patients", "60", "--prevalence", "diabetes=0.3", "--prevalence", "ami=0.2",
                     "--prevalence", "hypertension=0.3", "--seed", seed, "--out", str(tmp_path / seed)]) == 0

    def detect(seed):
        return main(["detect", "--corpus", str(tmp_path / seed), "--no-preprocess", "--mode", "all", "--mock",
                     "--out", str(det)])

    assert detect("1") == 0
    before = _files(det)
    assert len(before) == 10  # nine label files and the manifest
    _fill_the_disk_at(monkeypatch, {name for name in before if name.startswith("detect_")}, nth=5)
    capsys.readouterr()
    assert detect("2") == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert _files(det) == before


def test_profile_csv_shape(pipeline_dirs):
    with (pipeline_dirs / "profile.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert {r["condition"] for r in rows} == {"ami", "diabetes", "hypertension"}
    for row in rows:
        assert 0 <= int(row["positive_count"]) <= int(row["sampled_count"])
        assert 0.0 <= float(row["ir"]) <= 1.0


def test_preprocess_outputs(pipeline_dirs):
    prep = pipeline_dirs / "prep"
    for condition in ("ami", "diabetes", "hypertension"):
        merged = [
            json.loads(l)
            for l in (prep / f"merged_{condition}.jsonl").read_text().splitlines()
        ]
        assert merged, condition
        for record in merged:
            assert set(record) == {"condition", "patient_id", "text"}
            assert record["condition"] == condition
            assert record["text"]
    with (prep / "consolidation_stats.csv").open() as handle:
        stats = {r["condition"]: r for r in csv.DictReader(handle)}
    assert float(stats["diabetes"]["words_fraction_remaining"]) < 1.0
    assert float(stats["diabetes"]["positive_retention"]) == 1.0


def test_detect_writes_nine_label_files_and_manifest(pipeline_dirs):
    det = pipeline_dirs / "det"
    files = sorted(p.name for p in det.glob("detect_*.jsonl"))
    assert len(files) == 9
    manifest = json.loads((det / "manifest_detect.json").read_text())
    assert manifest["backend_id"] == "mock"
    records = [
        json.loads(l) for l in (det / "detect_merged_diabetes.jsonl").read_text().splitlines()
    ]
    assert len(records) == 80  # every patient labelled, condition-free included
    assert all(r["label"] in (0, 1) for r in records)
    for name in files:
        for record in _read_jsonl(det / name):
            assert set(record) == {"patient_id", "condition", "label", "mode", "measurements"}


def test_evaluate_report(pipeline_dirs, tmp_path):
    out = tmp_path / "report.csv"
    assert (
        _run(
            "evaluate",
            "--corpus", str(pipeline_dirs / "corpus"),
            "--detect-dir", str(pipeline_dirs / "det"),
            "--out", str(out),
        )
        == 0
    )
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    methods = {(r["method"], r["condition"]) for r in rows}
    for condition in ("ami", "diabetes", "hypertension"):
        for method in ("icd10", "prompt1", "prompt2", "merged", "pipeline_plus_icd"):
            assert (method, condition) in methods
    for row in rows:
        if row["sensitivity"] not in ("", "undefined"):
            assert 0.0 <= float(row["sens_low"]) <= float(row["sensitivity"]) <= float(row["sens_high"]) <= 1.0


def test_trend_csv_and_svg(pipeline_dirs, tmp_path):
    out = tmp_path / "trend.csv"
    svg = tmp_path / "trend.svg"
    assert (
        _run(
            "trend",
            "--corpus", str(pipeline_dirs / "corpus"),
            "--pred", str(pipeline_dirs / "det" / "detect_merged_diabetes.jsonl"),
            "--out", str(out),
            "--svg", str(svg),
        )
        == 0
    )
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(r["month"].count("-") == 1 for r in rows)
    assert svg.read_text().startswith("<svg")


def test_the_trend_svg_is_well_formed_for_any_condition_name(pipeline_dirs, tmp_path):
    condition = "ami & <co>"
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    pred = tmp_path / "pred.jsonl"
    for source, target in ((corpus / "labels.jsonl", corpus / "labels.jsonl"),
                           (pipeline_dirs / "det" / "detect_merged_ami.jsonl", pred)):
        records = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
        target.write_text("".join(json.dumps({**r, "condition": condition}) + "\n"
                                  for r in records if r["condition"] == "ami"), encoding="utf-8")
    svg = tmp_path / "trend.svg"
    assert _run("trend", "--corpus", str(corpus), "--pred", str(pred), "--out", str(tmp_path / "trend.csv"),
                "--svg", str(svg)) == 0
    title = ElementTree.parse(svg).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == f"monthly positive fraction: {condition}"


def test_trend_with_a_patient_missing_from_the_predictions_exits_1(pipeline_dirs, tmp_path, capsys):
    lines = (pipeline_dirs / "det" / "detect_merged_ami.jsonl").read_text(encoding="utf-8").splitlines()
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(line + "\n" for line in lines[:-1]), encoding="utf-8")
    dropped = json.loads(lines[-1])["patient_id"]
    code = _run("trend", "--corpus", str(pipeline_dirs / "corpus"), "--pred", str(pred),
                "--out", str(tmp_path / "trend.csv"))
    assert code == 1
    assert f"error: missing predictions for [{dropped!r}]" in capsys.readouterr().err
    assert not (tmp_path / "trend.csv").exists()


def test_trend_refuses_a_file_that_mixes_conditions(pipeline_dirs, tmp_path, capsys):
    det = pipeline_dirs / "det"
    both = "".join(
        (det / f"detect_merged_{condition}.jsonl").read_text(encoding="utf-8")
        for condition in ("ami", "diabetes")
    )
    pred = tmp_path / "pred.jsonl"
    for content, found in ((both, "ami, diabetes"), ("", "none")):
        pred.write_text(content, encoding="utf-8")
        code = _run("trend", "--corpus", str(pipeline_dirs / "corpus"), "--pred", str(pred),
                    "--out", str(tmp_path / "trend.csv"))
        assert code == 1, found
        assert f"records of one condition, found {found}" in capsys.readouterr().err
    assert not (tmp_path / "trend.csv").exists()


def _with_line(path: Path, lineno: int, line: str) -> None:
    """Replace line `lineno` (1-based) of `path`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = line
    path.write_text("".join(each + "\n" for each in lines), encoding="utf-8")


def test_a_bad_merged_record_names_the_file_and_line(pipeline_dirs, tmp_path, monkeypatch, capsys):
    prompts = record_prompts(monkeypatch, MockBackend)
    prep = tmp_path / "prep"
    shutil.copytree(pipeline_dirs / "prep", prep)
    path = prep / "merged_ami.jsonl"
    first, line = path.read_text(encoding="utf-8").splitlines()[:2]
    record = json.loads(line)
    cases = {
        first: f"duplicate record for {json.loads(first)['patient_id']!r}/'ami'",
        line[: line.index('"text": "') + 12]: "invalid record (Unterminated string",
        "[1, 2]": "record is not an object",
        **{
            json.dumps({k: v for k, v in record.items() if k != key}): f"missing field {key!r}"
            for key in ("patient_id", "condition", "text")
        },
        json.dumps(dict(record, text=5)): "text must be a string, got 5",
        json.dumps(dict(record, patient_id="X" + record["patient_id"])):
            f"unknown patient_id {'X' + record['patient_id']!r}",
        json.dumps(dict(record, patient_id=1)): "patient_id must be a string, got 1",
    }
    for bad, message in cases.items():
        _with_line(path, 2, bad)
        code = _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(prep),
                    "--condition", "ami", "--mock", "--out", str(tmp_path / "det"))
        assert code == 1, bad
        assert f"error: merged_ami.jsonl line 2: {message}" in capsys.readouterr().err, bad
    assert prompts == []  # every bad record stops detect before its first request
    # an empty merged text is valid, and labels its patient 0 without a request
    _with_line(path, 2, json.dumps(dict(record, text="")))
    assert _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(prep),
                "--condition", "ami", "--mode", "all", "--mock", "--out", str(tmp_path / "det")) == 0
    for mode in ("prompt1", "prompt2", "merged"):
        labels = {r["patient_id"]: r["label"] for r in _read_jsonl(tmp_path / "det" / f"detect_{mode}_ami.jsonl")}
        assert labels[record["patient_id"]] == 0


def test_mock_with_a_condition_of_no_builtin_template_exits_2(pipeline_dirs, tmp_path, capsys):
    profiles = tmp_path / "gout.yaml"
    profiles.write_text(
        "profiles:\n"
        "- name: gout\n"
        "  keywords: [gout, urate]\n"
        "  inference_template: \"Analyze the clinical text: '{text}', answer yes or no if you identify gout.\"\n"
        "  extraction_template: \"Find all the key-value pairs of urate from the given text: {text}.\"\n"
        "  rule: {analyte: glucose, threshold: 0.42, unit: mmol/L}\n",
        encoding="utf-8",
    )
    code = _run("profile", "--corpus", str(pipeline_dirs / "corpus"), "--profiles", str(profiles),
                "--mock", "--out", str(tmp_path / "p.csv"))
    assert code == 2
    assert "backend error: mock backend does not recognise the prompt" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_bench_takes_no_parallelism(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run("bench", "--mock", "--parallelism", "2", "--out", str(tmp_path / "bench.csv"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err


def test_a_bad_prediction_record_names_the_file_and_line(pipeline_dirs, tmp_path, capsys):
    det = tmp_path / "det"
    shutil.copytree(pipeline_dirs / "det", det)
    path = det / "detect_prompt2_diabetes.jsonl"
    second, line = path.read_text(encoding="utf-8").splitlines()[1:3]
    record = json.loads(line)
    corpus = str(pipeline_dirs / "corpus")
    for bad, message in (
        (second, f"duplicate label for {json.loads(second)['patient_id']!r}/'diabetes'"),
        (json.dumps(dict(record, patient_id=["x"])), "patient_id must be a string, got ['x']"),
        (json.dumps(dict(record, condition=["ami"])), "condition must be a string, got ['ami']"),
        (json.dumps(dict(record, mode=5)), "mode must be a string, got 5"),
        (json.dumps({k: v for k, v in record.items() if k != "mode"}), "missing field 'mode'"),
        (json.dumps({k: v for k, v in record.items() if k != "condition"}), "missing field 'condition'"),
        (json.dumps({k: v for k, v in record.items() if k != "label"}), "missing field 'label'"),
        (json.dumps(dict(record, label=None)), "missing field 'label'"),
        ('"a string"', "record is not an object"),
        (json.dumps(dict(record, label=2)), "label must be 0 or 1, got 2"),
        (json.dumps(dict(record, label="yes")), "label must be 0 or 1, got 'yes'"),
        (json.dumps(dict(record, label=True)), "label must be 0 or 1, got True"),
        (json.dumps(dict(record, label=1.0)), "label must be 0 or 1, got 1.0"),
    ):
        _with_line(path, 3, bad)
        for argv in (
            ("evaluate", "--corpus", corpus, "--detect-dir", str(det), "--out", str(tmp_path / "report.csv")),
            ("trend", "--corpus", corpus, "--pred", str(path), "--out", str(tmp_path / "trend.csv")),
        ):
            assert _run(*argv) == 1, (bad, argv[0])
            err = capsys.readouterr().err
            assert f"error: detect_prompt2_diabetes.jsonl line 3: {message}" in err, (bad, argv[0])


def test_evaluate_refuses_a_label_file_of_another_condition(pipeline_dirs, tmp_path, capsys):
    det = tmp_path / "det"
    shutil.copytree(pipeline_dirs / "det", det)
    path = det / "detect_merged_ami.jsonl"
    path.write_text(path.read_text(encoding="utf-8").replace('"condition": "ami"', '"condition": "diabetes"'),
                    encoding="utf-8")
    code = _run("evaluate", "--corpus", str(pipeline_dirs / "corpus"), "--detect-dir", str(det),
                "--out", str(tmp_path / "report.csv"))
    assert code == 1
    assert f"error: {path}: expected the prediction records of condition 'ami', found diabetes" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "report.csv").exists()


def test_evaluate_names_the_label_file_whose_patients_differ(pipeline_dirs, tmp_path, capsys):
    det = tmp_path / "det"
    shutil.copytree(pipeline_dirs / "det", det)
    path = det / "detect_merged_ami.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in lines[:-1]), encoding="utf-8")
    dropped = json.loads(lines[-1])["patient_id"]
    code = _run("evaluate", "--corpus", str(pipeline_dirs / "corpus"), "--detect-dir", str(det),
                "--out", str(tmp_path / "report.csv"))
    assert code == 1
    assert f"error: {path}: missing predictions for [{dropped!r}]" in capsys.readouterr().err


def test_detect_with_a_cache_dir_that_is_a_file_exits_1(pipeline_dirs, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("", encoding="utf-8")
    code = _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(pipeline_dirs / "prep"),
                "--mock", "--cache-dir", str(cache), "--out", str(tmp_path / "det"))
    assert code == 1
    assert f"error: [Errno 17] File exists: '{cache}'" in capsys.readouterr().err


def test_an_out_that_is_a_directory_exits_1_before_any_work(pipeline_dirs, tmp_path, monkeypatch, capsys):
    prompts = record_prompts(monkeypatch, MockBackend)
    out = tmp_path / "out.csv"
    out.mkdir()
    missing = str(tmp_path / "no-corpus")  # read first, it would fail with another error
    pred = str(pipeline_dirs / "det" / "detect_merged_ami.jsonl")
    for flag, argv in (
        ("--out", ("profile", "--corpus", str(pipeline_dirs / "corpus"), "--m", "2", "--mock", "--out", str(out))),
        ("--out", ("profile", "--corpus", missing, "--mock", "--out", str(out))),
        ("--out", ("evaluate", "--corpus", missing, "--detect-dir", str(pipeline_dirs / "det"), "--out", str(out))),
        ("--out", ("trend", "--corpus", missing, "--pred", pred, "--out", str(out))),
        ("--svg", ("trend", "--corpus", missing, "--pred", pred, "--out", str(tmp_path / "t.csv"),
                   "--svg", str(out))),
        ("--out", ("bench", "--backend-url", "http://127.0.0.1:9", "--out", str(out))),
    ):
        assert _run(*argv) == 1, argv
        assert f"error: {flag} {out} is a directory, not a file" in capsys.readouterr().err, argv
    assert prompts == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]  # no temporary file left


@pytest.mark.parametrize("stage", ["synth", "preprocess", "detect --merged", "detect --no-preprocess"])
def test_an_out_that_is_a_file_exits_1_before_any_corpus_line_is_read(
    pipeline_dirs, tmp_path, monkeypatch, capsys, stage
):
    read = []
    inner = cli.iter_documents

    def counting(*args, **kwargs):
        for doc in inner(*args, **kwargs):
            read.append(doc.doc_id)
            yield doc

    monkeypatch.setattr(cli, "iter_documents", counting)
    prompts = record_prompts(monkeypatch, MockBackend)
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    corpus = str(pipeline_dirs / "corpus")
    argv = {
        "synth": ("synth", "--n-patients", "3", "--prevalence", "ami=0.5"),
        "preprocess": ("preprocess", "--corpus", corpus, "--profile-csv", str(pipeline_dirs / "profile.csv")),
        "detect --merged": ("detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"), "--mock"),
        "detect --no-preprocess": ("detect", "--corpus", corpus, "--no-preprocess", "--mock"),
    }[stage]
    capsys.readouterr()
    assert _run(*argv, "--out", str(out)) == 1
    assert f"error: --out {out} is a file, not a directory" in capsys.readouterr().err
    assert read == [] and prompts == []
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_profiles_file_with_a_duplicate_condition_exits_1(pipeline_dirs, tmp_path, capsys):
    entry = (
        "- name: ami\n"
        "  keywords: [troponin, myocardial infarction]\n"
        "  inference_template: \"Analyze the clinical text: '{text}'. Answer yes or no.\"\n"
        "  extraction_template: \"Find all the key-value pairs of troponin from the given text: {text}.\"\n"
        "  rule: {analyte: troponin, comparator: '>', threshold: 14.0, unit: ng/L}\n"
    )
    profiles = tmp_path / "profiles.yaml"
    profiles.write_text("profiles:\n" + entry + entry, encoding="utf-8")
    code = _run("preprocess", "--corpus", str(pipeline_dirs / "corpus"), "--profiles", str(profiles),
                "--profile-csv", str(pipeline_dirs / "profile.csv"), "--out", str(tmp_path / "prep"))
    assert code == 1
    assert f"error: {profiles}: duplicate condition name 'ami'" in capsys.readouterr().err
    assert not list(tmp_path.glob("prep/merged_*.jsonl"))


@pytest.mark.parametrize("line, bad_line, message", [
    ("keywords: [troponin]", "keywords: troponin", "keywords must be a list, got 'troponin'"),
    ("keywords: [troponin]", 'keywords: ["", troponin]', "keywords must be nonempty strings"),
    ("keywords: [troponin]", "keywords: [troponin, 5]", "keywords must be nonempty strings"),
    ("extraction_template: \"Find troponin in: {text}.\"", "extraction_template: 5", "template must be a string"),
    ("threshold: 14.0", 'threshold: "14"', "thresholds must be numbers, got '14'"),
], ids=["keywords-string", "keywords-empty", "keywords-number", "template-number", "threshold-string"])
def test_a_profiles_field_of_the_wrong_type_exits_1_naming_the_entry(
    pipeline_dirs, tmp_path, capsys, line, bad_line, message
):
    entry = (
        "- name: ami\n"
        "  keywords: [troponin]\n"
        "  inference_template: \"Analyze the clinical text: '{text}'. Answer yes or no.\"\n"
        "  extraction_template: \"Find troponin in: {text}.\"\n"
        "  rule: {analyte: troponin, comparator: '>', threshold: 14.0}\n"
    )
    profiles = tmp_path / "profiles.yaml"
    profiles.write_text("profiles:\n" + entry.replace(line, bad_line), encoding="utf-8")
    code = _run("preprocess", "--corpus", str(pipeline_dirs / "corpus"), "--profiles", str(profiles),
                "--profile-csv", str(pipeline_dirs / "profile.csv"), "--out", str(tmp_path / "prep"))
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {profiles}: profiles entry 1: " in err and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("prep/merged_*.jsonl"))


def test_a_malformed_profile_csv_exits_1_naming_the_file_and_line(pipeline_dirs, tmp_path, capsys):
    corpus = str(pipeline_dirs / "corpus")
    table = tmp_path / "profile.csv"
    for content, message in (
        ("doc_type,sampled_count,positive_count\nA,5,1\n", "line 1: missing column(s) condition"),
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,B,5,1\ndiabetes,A\n",
         "line 3: missing or non-integer count"),
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,A,five,1\n",
         "line 2: missing or non-integer count"),
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,B,5,1\ndiabetes,A,3,5\n",
         "line 3: positive_count must lie in [0, sampled_count]"),
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,A,-2,-3\n",
         "line 2: positive_count must lie in [0, sampled_count]"),
        # another condition's second row is refused too: it would count the type twice in that cut
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,A,5,1\nami,A,5,1\nami,A,5,2\n",
         "line 4: duplicate row for 'ami'/'A'"),
    ):
        table.write_text(content, encoding="utf-8")
        code = _run("preprocess", "--corpus", corpus, "--condition", "diabetes",
                    "--profile-csv", str(table), "--out", str(tmp_path / "prep"))
        assert code == 1, content
        assert f"error: {table} {message}" in capsys.readouterr().err, content
    assert not list(tmp_path.glob("prep/*"))


def test_profile_csv_rows_of_every_condition_are_checked(pipeline_dirs, tmp_path, capsys):
    corpus = str(pipeline_dirs / "corpus")
    table = tmp_path / "profile.csv"
    for content, message in (
        # a bad count in a row of a condition the run does not select
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,A,5,1\nami,A,five,1\n",
         " line 3: missing or non-integer count"),
        ("condition,doc_type,sampled_count,positive_count\ndiabetes,A,5,1\nami,A,3,5\n",
         " line 3: positive_count must lie in [0, sampled_count]"),
        ("condition,doc_type,sampled_count,positive_count\nami,A,5,1\n",
         ": no rows for condition 'diabetes'"),
    ):
        table.write_text(content, encoding="utf-8")
        code = _run("preprocess", "--corpus", corpus, "--condition", "diabetes",
                    "--profile-csv", str(table), "--out", str(tmp_path / "prep"))
        assert code == 1, content
        assert f"error: {table}{message}" in capsys.readouterr().err, content
    assert not list(tmp_path.glob("prep/*"))


def test_preprocess_parses_profile_csv_once(pipeline_dirs, tmp_path, monkeypatch):
    reads = []
    inner = cli._read_profile_csv
    monkeypatch.setattr(cli, "_read_profile_csv", lambda *args: reads.append(args) or inner(*args))
    # every built-in condition is selected
    assert _run("preprocess", "--corpus", str(pipeline_dirs / "corpus"),
                "--profile-csv", str(pipeline_dirs / "profile.csv"), "--out", str(tmp_path / "prep")) == 0
    assert len(reads) == 1
    assert len(list(tmp_path.glob("prep/merged_*.jsonl"))) == len(builtin_profiles())


def test_profile_and_preprocess_run_the_library_functions_of_their_steps(pipeline_dirs, tmp_path, monkeypatch):
    calls = []

    def recorder(name):
        inner = getattr(cli, name)
        return lambda *args, **kwargs: calls.append(name) or inner(*args, **kwargs)

    for name in ("run_profile", "consolidate"):
        monkeypatch.setattr(cli, name, recorder(name))
    corpus = str(pipeline_dirs / "corpus")
    assert _run("profile", "--corpus", corpus, "--m", "40", "--seed", "5", "--mock",
                "--out", str(tmp_path / "profile.csv")) == 0
    assert calls == ["run_profile"]
    assert (tmp_path / "profile.csv").read_bytes() == (pipeline_dirs / "profile.csv").read_bytes()
    assert _run("preprocess", "--corpus", corpus, "--profile-csv", str(tmp_path / "profile.csv"),
                "--out", str(tmp_path / "prep")) == 0
    assert calls == ["run_profile", "consolidate"]
    for path in (pipeline_dirs / "prep").glob("merged_*.jsonl"):
        assert (tmp_path / "prep" / path.name).read_bytes() == path.read_bytes()


def _corpus_with_bad_line(pipeline_dirs, tmp_path, name: str) -> str:
    """A copy of the module's corpus whose `name` file ends in an invalid line."""
    corpus = tmp_path / "bad_corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    with (corpus / name).open("a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    return str(corpus)


def _same_bytes(left: Path, right: Path, pattern: str) -> None:
    names = sorted(path.name for path in left.glob(pattern))
    assert names and names == sorted(path.name for path in right.glob(pattern))
    for name in names:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name


def test_a_bad_documents_file_fails_only_the_stages_that_read_it(pipeline_dirs, tmp_path, capsys):
    bad = _corpus_with_bad_line(pipeline_dirs, tmp_path, "documents.jsonl")
    prep, det = str(pipeline_dirs / "prep"), str(pipeline_dirs / "det")
    for name, corpus in (("intact", str(pipeline_dirs / "corpus")), ("bad", bad)):
        out = tmp_path / name
        assert _run("detect", "--corpus", corpus, "--merged", prep, "--mode", "all", "--mock",
                    "--out", str(out)) == 0
        assert _run("evaluate", "--corpus", corpus, "--detect-dir", det,
                    "--out", str(out / "report.csv")) == 0
    _same_bytes(tmp_path / "intact", tmp_path / "bad", "detect_*.jsonl")
    _same_bytes(tmp_path / "intact", tmp_path / "bad", "report.csv")
    capsys.readouterr()
    for argv in (
        ("profile", "--corpus", bad, "--mock", "--out", str(tmp_path / "p.csv")),
        ("preprocess", "--corpus", bad, "--profile-csv", str(pipeline_dirs / "profile.csv"),
         "--out", str(tmp_path / "prep")),
        ("detect", "--corpus", bad, "--no-preprocess", "--mock", "--out", str(tmp_path / "raw")),
    ):
        assert _run(*argv) == 1, argv
        assert "error: documents.jsonl line" in capsys.readouterr().err, argv


def test_a_bad_labels_file_fails_only_the_stages_that_read_it(pipeline_dirs, tmp_path, capsys):
    bad = _corpus_with_bad_line(pipeline_dirs, tmp_path, "labels.jsonl")
    out = tmp_path / "out"
    assert _run("profile", "--corpus", bad, "--m", "40", "--seed", "5", "--mock",
                "--out", str(out / "profile.csv")) == 0
    _same_bytes(pipeline_dirs, out, "profile.csv")
    assert _run("detect", "--corpus", bad, "--merged", str(pipeline_dirs / "prep"), "--mode", "all",
                "--mock", "--out", str(out)) == 0
    _same_bytes(pipeline_dirs / "det", out, "detect_*.jsonl")
    assert _run("detect", "--corpus", bad, "--no-preprocess", "--mock", "--out", str(out / "raw")) == 0
    capsys.readouterr()
    for argv in (
        ("preprocess", "--corpus", bad, "--profile-csv", str(pipeline_dirs / "profile.csv"),
         "--out", str(tmp_path / "prep")),
        ("evaluate", "--corpus", bad, "--detect-dir", str(pipeline_dirs / "det"),
         "--out", str(tmp_path / "report.csv")),
        ("trend", "--corpus", bad, "--pred", str(pipeline_dirs / "det" / "detect_merged_ami.jsonl"),
         "--out", str(tmp_path / "trend.csv")),
    ):
        assert _run(*argv) == 1, argv
        assert "error: labels.jsonl line" in capsys.readouterr().err, argv


def test_evaluate_and_trend_need_no_documents_file(pipeline_dirs, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("patients.jsonl", "labels.jsonl"):
        shutil.copy(pipeline_dirs / "corpus" / name, corpus / name)
    assert _run("evaluate", "--corpus", str(corpus), "--detect-dir", str(pipeline_dirs / "det"),
                "--out", str(tmp_path / "report.csv")) == 0
    assert _run("trend", "--corpus", str(corpus),
                "--pred", str(pipeline_dirs / "det" / "detect_merged_ami.jsonl"),
                "--out", str(tmp_path / "trend.csv")) == 0


def test_detect_missing_preprocess_artifact_exits_1(pipeline_dirs, tmp_path, capsys):
    code = _run(
        "detect",
        "--corpus", str(pipeline_dirs / "corpus"),
        "--merged", str(tmp_path / "nowhere"),
        "--mock",
        "--out", str(tmp_path / "det"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "nowhere" in err and "--no-preprocess" in err


def test_detect_no_preprocess_runs_on_raw_notes(pipeline_dirs, tmp_path):
    assert (
        _run(
            "detect",
            "--corpus", str(pipeline_dirs / "corpus"),
            "--no-preprocess",
            "--mode", "prompt1",
            "--condition", "diabetes",
            "--mock",
            "--out", str(tmp_path / "det"),
        )
        == 0
    )
    assert (tmp_path / "det" / "detect_prompt1_diabetes.jsonl").exists()


def test_detect_no_preprocess_chunks_each_patient_once(pipeline_dirs, tmp_path, monkeypatch):
    calls = []
    inner = cli.chunk_text

    def counting(text, budget):
        calls.append(text)
        return inner(text, budget)

    monkeypatch.setattr(cli, "chunk_text", counting)
    corpus = str(pipeline_dirs / "corpus")
    # three conditions share each patient's raw notes
    assert _run("detect", "--corpus", corpus, "--no-preprocess", "--mode", "all", "--mock",
                "--parallelism", "1", "--out", str(tmp_path / "det")) == 0
    patients = load_patients(pipeline_dirs / "corpus" / "patients.jsonl")
    assert len(calls) == len(set(calls)) == len(patients)


def test_profile_chunks_each_sampled_document_once_for_all_conditions(pipeline_dirs, tmp_path, monkeypatch):
    calls = []
    inner = cli.chunk_text

    def counting(text, budget):
        calls.append(text)
        return inner(text, budget)

    picked = []
    sample = cli._sample_documents_file

    def recording(*args):
        picked.append(sample(*args))
        return picked[-1]

    monkeypatch.setattr(cli, "chunk_text", counting)
    monkeypatch.setattr(cli, "_sample_documents_file", recording)
    assert _run("profile", "--corpus", str(pipeline_dirs / "corpus"), "--m", "40", "--seed", "5", "--mock",
                "--parallelism", "1", "--out", str(tmp_path / "profile.csv")) == 0
    # the three built-in conditions ask each sampled text, and equal texts are chunked once
    texts = [doc.text for docs in picked[0].values() for doc in docs]
    assert len(set(texts)) < len(texts)
    assert sorted(calls) == sorted(set(texts))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"text": None}, "text must be a string, got None"),
        ({"text": ["Known diabetes."]}, "text must be a string, got ['Known diabetes.']"),
        ({"timestamp": "2015-03-01T06:00:00+00:00"},
         "timestamp '2015-03-01T06:00:00+00:00' has a UTC offset, unlike the file's first timestamp"),
    ],
)
def test_a_documents_line_of_the_wrong_kind_exits_1_in_every_stage_that_reads_it(
    pipeline_dirs, tmp_path, capsys, edit, message
):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    documents = corpus / "documents.jsonl"
    lines = documents.read_text(encoding="utf-8").splitlines(keepends=True)
    added = {**json.loads(lines[-1]), "doc_id": "added", **edit}
    documents.write_text("".join(lines) + json.dumps(added) + "\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (
        ("profile", "--corpus", str(corpus), "--mock", "--out", str(tmp_path / "p.csv")),
        ("preprocess", "--corpus", str(corpus), "--profile-csv", str(pipeline_dirs / "profile.csv"),
         "--out", str(tmp_path / "prep")),
        ("detect", "--corpus", str(corpus), "--no-preprocess", "--mock", "--out", str(tmp_path / "raw")),
    ):
        assert _run(*argv) == 1, argv
        assert f"error: documents.jsonl line {len(lines) + 1}: {message}" in capsys.readouterr().err, argv
    assert not list(tmp_path.glob("p.csv")) + list(tmp_path.glob("prep/*")) + list(tmp_path.glob("raw/*"))


def test_detect_merged_file_without_the_condition_exits_1(pipeline_dirs, tmp_path, capsys):
    merged = pipeline_dirs / "prep" / "merged_diabetes.jsonl"
    code = _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(merged),
                "--mode", "all", "--mock", "--out", str(tmp_path / "det"))
    assert code == 1
    err = capsys.readouterr().err
    assert str(merged) in err and "'ami'" in err
    assert not (tmp_path / "det" / "detect_merged_ami.jsonl").exists()


def test_detect_empty_merged_file_labels_everyone_0(pipeline_dirs, tmp_path):
    empty = tmp_path / "merged.jsonl"
    empty.write_text("", encoding="utf-8")
    assert _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(empty),
                "--mode", "all", "--mock", "--out", str(tmp_path / "det")) == 0
    files = sorted((tmp_path / "det").glob("detect_*.jsonl"))
    assert len(files) == 9
    for path in files:
        records = _read_jsonl(path)
        assert len(records) == 80
        assert all(r["label"] == 0 and not r["measurements"] for r in records)


def test_detect_lists_measurements_only_under_extraction_modes(pipeline_dirs):
    for condition in ("ami", "diabetes", "hypertension"):
        det = pipeline_dirs / "det"
        by_mode = {
            mode: {r["patient_id"]: r for r in _read_jsonl(det / f"detect_{mode}_{condition}.jsonl")}
            for mode in ("prompt1", "prompt2", "merged")
        }
        assert not any(r["measurements"] for r in by_mode["prompt1"].values()), condition
        assert any(r["measurements"] for r in by_mode["prompt2"].values()), condition
        for pid, record in by_mode["merged"].items():
            assert record["measurements"] == by_mode["prompt2"][pid]["measurements"]
            assert record["label"] == max(by_mode["prompt1"][pid]["label"], by_mode["prompt2"][pid]["label"])


def test_unknown_condition_exits_1(pipeline_dirs, tmp_path, capsys):
    code = _run(
        "profile",
        "--corpus", str(pipeline_dirs / "corpus"),
        "--condition", "gout",
        "--mock",
        "--out", str(tmp_path / "p.csv"),
    )
    assert code == 1
    assert "gout" in capsys.readouterr().err


def test_missing_backend_exits_2(pipeline_dirs, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NOTEPHENO_BACKEND_URL", raising=False)
    code = _run(
        "profile",
        "--corpus", str(pipeline_dirs / "corpus"),
        "--out", str(tmp_path / "p.csv"),
    )
    assert code == 2
    assert "no backend configured" in capsys.readouterr().err


def test_detect_malformed_backend_reply_exits_2(pipeline_dirs, tmp_path, capsys, scripted_server):
    server = scripted_server([(200, b"<html><body>502 Bad Gateway</body></html>")])
    # At parallelism 2 the error is raised on a worker thread of the stage's dispatch.
    for parallelism in ("1", "2"):
        code = _run(
            "detect",
            "--corpus", str(pipeline_dirs / "corpus"),
            "--merged", str(pipeline_dirs / "prep"),
            "--condition", "diabetes",
            "--backend-url", server.url,
            "--parallelism", parallelism,
            "--out", str(tmp_path / "det"),
        )
        assert code == 2, parallelism
        assert "not JSON" in capsys.readouterr().err


def test_detect_unstorable_reply_with_a_cache_exits_2(pipeline_dirs, tmp_path, capsys, scripted_server):
    server = scripted_server([(200, b'{"text": "Yes \\ud800"}')])
    code = _run("detect", "--corpus", str(pipeline_dirs / "corpus"), "--merged", str(pipeline_dirs / "prep"),
                "--condition", "diabetes", "--backend-url", server.url,
                "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "det"))
    assert code == 2
    assert "backend error: reply cannot be stored in the cache" in capsys.readouterr().err
    assert server.calls >= 1
    assert list((tmp_path / "cache").iterdir()) == []


def test_detect_cache_counters_match_calls_at_parallelism_4(pipeline_dirs, tmp_path, monkeypatch):
    calls = record_prompts(monkeypatch, CachedBackend)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the worker threads often
    try:
        for run in ("cold", "warm"):  # the warm run repeats every cold prompt
            before = len(calls)
            assert _run(
                "detect",
                "--corpus", str(pipeline_dirs / "corpus"),
                "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all",
                "--mock",
                "--parallelism", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / run),
            ) == 0
            manifest = json.loads((tmp_path / run / "manifest_detect.json").read_text())
            made = len(calls) - before
            assert manifest["backend_requests"] + manifest["cache_hits"] == made
    finally:
        sys.setswitchinterval(switch)
    assert manifest["cache_hits"] == made  # warm: every call was a hit


def _modules_of_a_fresh_cli_import() -> tuple[list, list]:
    """The modules a fresh interpreter holds before `import notepheno.cli`,
    and the ones that import adds."""
    env = dict(os.environ, PYTHONPATH=str(Path(notepheno.__file__).parents[1]))
    probe = (
        "import json, sys; before = set(sys.modules); import notepheno.cli; "
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_import_loads_neither_requests_nor_yaml():
    # Every pipeline pass starts four stage processes; only the runs that use
    # an HTTP backend or a YAML file should pay for those imports.
    before, added = _modules_of_a_fresh_cli_import()
    heavy = {"requests", "yaml", "http.client", "statistics"}
    assert not heavy & set(before)  # else the comparison below proves nothing
    assert "notepheno.cli" in added
    assert not heavy & set(added)


def test_cli_import_loads_no_thread_pool():
    # Only a threaded dispatch (parallelism above 1) pays for the pool's import.
    before, added = _modules_of_a_fresh_cli_import()
    assert "notepheno.cli" in added
    assert "concurrent.futures" not in before + added


@pytest.mark.parametrize("where", ["--config", "--profiles"])
def test_a_malformed_yaml_file_exits_1_naming_the_file(tmp_path, capsys, where):
    bad = tmp_path / "bad.yaml"
    bad.write_text("m: [1\n", encoding="utf-8")
    if where == "--config":
        argv = ["--config", str(bad), "profile"]
    else:
        argv = ["profile", "--profiles", str(bad)]
    corpus = tmp_path / "corpus"
    assert _run("synth", "--out", str(corpus), "--n-patients", "3", "--prevalence", "ami=0.5") == 0
    capsys.readouterr()
    assert _run(*argv, "--corpus", str(corpus), "--mock", "--out", str(tmp_path / "p.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid YAML: ")
    assert "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parallelism_below_1_exits_1_naming_the_value(pipeline_dirs, tmp_path, capsys, value):
    out = tmp_path / "p.csv"
    assert _run("profile", "--corpus", str(pipeline_dirs / "corpus"), "--m", "5", "--mock",
                "--parallelism", value, "--out", str(out)) == 1
    assert f"error: parallelism must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def broken_notes_corpus(pipeline_dirs, tmp_path):
    """A copy of the pipeline's corpus whose documents.jsonl line 1 is malformed."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    docs = corpus / "documents.jsonl"
    docs.write_text("{not json\n" + docs.read_text(encoding="utf-8"), encoding="utf-8")
    return corpus


@pytest.mark.parametrize("argv, message", [
    (["detect", "--no-preprocess", "--mock", "--parallelism", "0"],
     "parallelism must be at least 1, got 0 (--parallelism)"),
    (["profile", "--mock", "--chunk-budget", "0"], "chunk_budget must be at least 1, got 0 (--chunk-budget)"),
    (["profile", "--mock", "--m", "0"], "m must be at least 1, got 0 (--m)"),
    (["preprocess", "--profile-csv", "missing.csv", "--percentile", "abc"],
     "percentile must be 0, q1, q2, or a number in [0, 100], got 'abc' (--percentile)"),
])
def test_a_dispatch_flag_below_1_is_refused_before_any_corpus_file_is_read(
    broken_notes_corpus, tmp_path, capsys, argv, message
):
    out = tmp_path / "out"
    assert _run(*argv, "--corpus", str(broken_notes_corpus), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "line 1" not in err
    assert not out.exists()


def test_detect_refuses_merged_with_no_preprocess_before_reading_the_corpus(pipeline_dirs, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    (corpus / "patients.jsonl").write_text("{not json\n", encoding="utf-8")
    out = tmp_path / "det"
    assert _run("detect", "--corpus", str(corpus), "--merged", str(pipeline_dirs / "prep"), "--no-preprocess",
                "--mock", "--out", str(out)) == 1
    assert "error: --merged and --no-preprocess exclude each other" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_a_ci_level_outside_0_1_exits_1_naming_the_setting(pipeline_dirs, tmp_path, capsys, where):
    argv = ["evaluate", "--corpus", str(pipeline_dirs / "corpus"), "--detect-dir", str(pipeline_dirs / "det"),
            "--out", str(tmp_path / "report.csv")]
    if where == "flag":
        argv += ["--ci-level", "1.5"]
    else:
        config = tmp_path / "cfg.yaml"
        config.write_text("ci_level: 1.5\n", encoding="utf-8")
        argv = ["--config", str(config), *argv]
    assert _run(*argv) == 1
    assert "error: ci_level must be in (0, 1), got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_a_ci_level_outside_0_1_is_refused_before_any_file_is_read(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "patients.jsonl").write_text("{not json\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert _run("evaluate", "--corpus", str(corpus), "--detect-dir", str(tmp_path / "missing"),
                "--ci-level", "2", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error: ci_level must be in (0, 1), got 2.0 (--ci-level)" in err and "line 1" not in err
    assert not out.exists()


def test_parallelism_0_from_a_config_file_exits_1(pipeline_dirs, tmp_path, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text("parallelism: 0\n", encoding="utf-8")
    out = tmp_path / "det"
    assert _run("--config", str(config), "detect", "--corpus", str(pipeline_dirs / "corpus"),
                "--merged", str(pipeline_dirs / "prep"), "--mock", "--out", str(out)) == 1
    assert "error: parallelism must be at least 1, got 0" in capsys.readouterr().err
    assert not list(out.glob("detect_*.jsonl"))


@pytest.mark.parametrize("argv, message", [
    (["--n-patients", "0"], "--n-patients must be at least 1, got 0"),
    (["--docs-min", "0"], "--docs-min and --docs-max must satisfy 1 <= min <= max, got 0 and 4"),
    (["--docs-min", "5", "--docs-max", "3"], "--docs-min and --docs-max must satisfy 1 <= min <= max, got 5 and 3"),
])
def test_a_bad_synth_size_exits_1_naming_the_flag_and_value(tmp_path, capsys, argv, message):
    argv = ["synth", "--n-patients", "5", *argv, "--prevalence", "ami=0.5", "--out", str(tmp_path / "c")]
    assert _run(*argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_an_unreadable_percentile_exits_1_naming_the_setting_and_spellings(pipeline_dirs, tmp_path, capsys, where):
    argv = ["preprocess", "--corpus", str(pipeline_dirs / "corpus"),
            "--profile-csv", str(pipeline_dirs / "profile.csv"), "--out", str(tmp_path / "prep")]
    if where == "flag":
        argv += ["--percentile", "abc"]
    else:
        config = tmp_path / "cfg.yaml"
        config.write_text("percentile: abc\n", encoding="utf-8")
        argv = ["--config", str(config), *argv]
    assert _run(*argv) == 1
    assert "error: percentile must be 0, q1, q2, or a number in [0, 100], got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "prep").exists()


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_a_chunk_budget_below_1_exits_1_before_any_work(pipeline_dirs, tmp_path, capsys, monkeypatch, stage):
    prompts = record_prompts(monkeypatch, MockBackend)
    corpus = str(pipeline_dirs / "corpus")
    if stage == "profile":  # text to chunk
        argv = ["profile", "--corpus", corpus, "--m", "5", "--out", str(tmp_path / "p.csv")]
    else:  # three empty merged files: nothing to chunk
        for condition in ("ami", "diabetes", "hypertension"):
            (tmp_path / f"merged_{condition}.jsonl").write_text("", encoding="utf-8")
        argv = ["detect", "--corpus", corpus, "--merged", str(tmp_path), "--mode", "all",
                "--out", str(tmp_path / "det")]
    assert _run(*argv, "--mock", "--chunk-budget", "0") == 1
    assert "error: chunk_budget must be at least 1, got 0" in capsys.readouterr().err
    assert not prompts
    assert not list(tmp_path.rglob("manifest_*")) and not list(tmp_path.rglob("detect_*"))
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(pipeline_dirs, tmp_path, monkeypatch, capsys, collecting):
    corpus = str(pipeline_dirs / "corpus")
    gout = tmp_path / "gout.yaml"
    gout.write_text(
        "profiles:\n"
        "- name: gout\n"
        "  keywords: [gout]\n"
        "  inference_template: \"Is there gout in '{text}'? yes or no.\"\n"
        "  extraction_template: \"List urate values in {text}.\"\n"
        "  rule: {analyte: glucose, threshold: 0.42, unit: mmol/L}\n",
        encoding="utf-8",
    )
    runs = [
        (0, ["evaluate", "--corpus", corpus, "--detect-dir", str(pipeline_dirs / "det"),
             "--out", str(tmp_path / "report.csv")]),
        (1, ["evaluate", "--corpus", str(tmp_path / "missing"), "--detect-dir",
             str(pipeline_dirs / "det"), "--out", str(tmp_path / "report.csv")]),
        (2, ["profile", "--corpus", corpus, "--profiles", str(gout), "--mock",
             "--out", str(tmp_path / "p.csv")]),
    ]
    during = []
    read = cli.iter_documents
    monkeypatch.setattr(cli, "iter_documents",
                        lambda *args, **kwargs: during.append(gc.isenabled()) or read(*args, **kwargs))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for code, argv in runs:
            assert main(argv) == code
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]  # profile's two passes; the missing corpus file fails before any read


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 20-patient synth -> profile -> preprocess run like `pipeline_dirs`'s."""
    root = tmp_path_factory.mktemp("small")
    corpus = str(root / "corpus")
    for argv in (
        ["synth", "--out", corpus, "--n-patients", "20", "--prevalence", "diabetes=0.3",
         "--prevalence", "ami=0.2", "--prevalence", "hypertension=0.3", "--seed", "5"],
        ["profile", "--corpus", corpus, "--m", "40", "--seed", "5", "--mock",
         "--out", str(root / "profile.csv")],
        ["preprocess", "--corpus", corpus, "--profile-csv", str(root / "profile.csv"),
         "--percentile", "q1", "--out", str(root / "prep")],
    ):
        assert main(argv) == 0
    return root


@pytest.mark.parametrize("backend", ["mock", "http"])
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_detect_leaves_no_cycles_that_grow_with_the_cohort(
    small_pipeline, pipeline_dirs, tmp_path, scripted_server, monkeypatch, parallelism, cached,
    backend,
):
    # Stages run with the cyclic collector off (see `main`), so a reference
    # cycle made per record would leak. The cycles left behind must not depend
    # on the cohort size: 20 and 80 patients, cold and warm cache alike. The
    # HTTP server drops the first send of each request, so every request
    # keeps a transport error until its retry succeeds.
    monkeypatch.setattr(inference.time, "sleep", lambda seconds: None)
    # pytest keeps every log record, and a retry's record holds its error.
    monkeypatch.setattr(inference.logger, "disabled", True)

    def cyclic_garbage(root, out):
        argv = ["detect", "--corpus", str(root / "corpus"), "--merged", str(root / "prep"),
                "--mode", "all", "--parallelism", parallelism, "--out", str(out)]
        if backend == "mock":
            argv.append("--mock")
        else:
            server = scripted_server([_NO_MENTION], FirstSendDropped)
            argv += ["--backend-url", server.url]
        if cached:
            argv += ["--cache-dir", str(out.parent / "cache")]
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == 0
            if backend == "http":
                assert server.calls == 2 * len(server.seen)  # each request dropped once
            return gc.collect()
        finally:
            if was:
                gc.enable()

    found = []
    for n, root in (("20", small_pipeline), ("80", pipeline_dirs)):
        for run in ("cold", "warm") if cached else ("once",):
            found.append(cyclic_garbage(root, tmp_path / n / run))
    assert len(set(found)) == 1, found


class _DyingMockServer(ScriptedServer):
    """Answers each prompt with `MockBackend`'s text, and every request after
    the first `answered` (None: none) with a 503."""

    def __init__(self, answered):
        super().__init__([])
        self.answered = answered
        self.mock = MockBackend()

    def next_outcome(self, headers, body):
        with self.lock:
            self.calls += 1
            if self.answered is not None and self.calls > self.answered:
                return 503, {"error": "unavailable"}
        return 200, {"text": self.mock.complete(CompletionRequest(json.loads(body)["prompt"])).text}


@pytest.mark.parametrize("cached", [
    True,
    pytest.param(False, marks=pytest.mark.xfail(
        strict=True, reason="with no cache every reply is lost: a rerun sends every request until "
                            "direction 5's response store keeps the finished ones")),
])
def test_a_detect_whose_server_dies_resumes_from_the_cache(
    small_pipeline, tmp_path, scripted_server, monkeypatch, capsys, cached
):
    monkeypatch.setattr(inference.HttpBackend, "backoff_s", 0.0)

    def detect(answered, out):
        server = scripted_server(answered, _DyingMockServer)
        argv = ["detect", "--corpus", str(small_pipeline / "corpus"), "--merged", str(small_pipeline / "prep"),
                "--parallelism", "1", "--backend-url", server.url, "--out", str(tmp_path / out)]
        if cached:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        return main(argv), server

    code, whole = detect(None, "whole")
    assert code == 0
    shutil.rmtree(tmp_path / "cache", ignore_errors=True)
    capsys.readouterr()
    code, _ = detect(whole.calls // 2, "resumed")
    err = capsys.readouterr().err
    assert code == 2 and "backend error:" in err and "Traceback" not in err
    code, healthy = detect(None, "resumed")
    assert code == 0
    assert healthy.calls == whole.calls - whole.calls // 2
    labels = sorted(path.name for path in (tmp_path / "whole").glob("detect_*.jsonl"))
    assert labels == sorted(path.name for path in (tmp_path / "resumed").glob("detect_*.jsonl"))
    for name in labels:
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "resumed" / name).read_bytes()


def test_print_config_dumps_and_exits(tmp_path, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text("m: 17\npercentile: q2\n", encoding="utf-8")
    code = _run(
        "--config", str(config),
        "--print-config",
        "profile",
        "--corpus", "unused",
        "--mock",
        "--out", "unused.csv",
    )
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["config_file_values"]["m"] == 17
    assert dumped["m"] == 17
    assert "percentile" not in dumped  # a preprocess setting


def test_config_file_value_used_when_flag_absent(pipeline_dirs, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text("m: 5\n", encoding="utf-8")
    out = tmp_path / "profile.csv"
    assert (
        _run(
            "--config", str(config),
            "profile",
            "--corpus", str(pipeline_dirs / "corpus"),
            "--condition", "diabetes",
            "--mock",
            "--out", str(out),
        )
        == 0
    )
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert all(int(r["sampled_count"]) <= 5 for r in rows)


@pytest.mark.parametrize(
    "config, expected",
    [
        (None, GenerationParams()),
        ('generation: {top_k: "40", temperature: 0.2}\n', GenerationParams(top_k=40, temperature=0.2)),
        ("generation: {top_p: 0.5, beam_width: 4}\n", GenerationParams(top_p=0.5)),
    ],
)
def test_generation_config_block_reaches_the_backend(pipeline_dirs, tmp_path, monkeypatch, config, expected):
    sent = []
    inner = MockBackend.complete

    def recording(self, request):
        sent.append(request.params)
        return inner(self, request)

    monkeypatch.setattr(MockBackend, "complete", recording)
    argv = ["profile", "--corpus", str(pipeline_dirs / "corpus"), "--m", "2", "--condition", "diabetes",
            "--mock", "--out", str(tmp_path / "profile.csv")]
    if config is not None:
        (tmp_path / "cfg.yaml").write_text(config, encoding="utf-8")
        argv = ["--config", str(tmp_path / "cfg.yaml"), *argv]
    assert _run(*argv) == 0
    assert sent and set(sent) == {expected}
    assert all(type(params.top_k) is int for params in sent)


_PROFILE = ("profile", "--corpus", "unused", "--mock", "--out", "unused.csv")


def _printed(capsys, *argv) -> dict:
    assert _run("--print-config", *argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "key, flag, variable, builtin, values",
    [
        ("backend_url", "--backend-url", "NOTEPHENO_BACKEND_URL", None,
         ("http://flag:1", "http://file:2", "http://env:3")),
        ("cache_dir", "--cache-dir", "NOTEPHENO_CACHE_DIR", None, ("flag-cache", "file-cache", "env-cache")),
        ("parallelism", "--parallelism", None, 4, (5, 6, None)),
        ("m", "--m", None, 200, (7, 8, None)),
    ],
)
def test_a_setting_comes_from_the_flag_the_file_the_environment_then_the_default(
    tmp_path, monkeypatch, capsys, key, flag, variable, builtin, values,
):
    from_flag, from_file, from_env = values
    for name in ("NOTEPHENO_BACKEND_URL", "NOTEPHENO_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)
    config = tmp_path / "cfg.yaml"
    config.write_text(f"{key}: {from_file}\n", encoding="utf-8")
    with_file = ("--config", str(config), *_PROFILE)
    assert _printed(capsys, *_PROFILE)[key] == builtin
    if variable:
        monkeypatch.setenv(variable, from_env)
        assert _printed(capsys, *_PROFILE)[key] == from_env
    assert _printed(capsys, *with_file)[key] == from_file
    assert _printed(capsys, *with_file, flag, str(from_flag))[key] == from_flag


def test_print_config_prints_the_built_in_defaults(capsys):
    printed = _printed(capsys, *_PROFILE)
    assert (printed["m"], printed["parallelism"], printed["chunk_budget"]) == (200, 4, 12000)
    assert printed["generation"] == GenerationParams()._asdict()
    assert _printed(capsys, "preprocess", "--corpus", "c", "--profile-csv", "p", "--out", "o")["percentile"] == "q1"
    assert _printed(capsys, "evaluate", "--corpus", "c", "--detect-dir", "d", "--out", "o")["ci_level"] == 0.95


def test_print_config_resolves_the_generation_block_and_ignores_other_keys(tmp_path, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text(
        'seed: 3\ngeneration: {top_k: "40", temperature: 0.2, model_id: from-file, beam_width: 4}\n',
        encoding="utf-8",
    )
    printed = _printed(capsys, "--config", str(config), *_PROFILE, "--temperature", "0.3")
    assert printed["generation"] == GenerationParams(top_k=40, temperature=0.3, model_id="from-file")._asdict()
    assert printed["seed"] == 0
    assert printed["config_file_values"]["seed"] == 3


@pytest.mark.parametrize(
    "text, key",
    [("m: abc\n", "m"), ("parallelism: 2.5\n", "parallelism"), ("generation: {top_k: many}\n", "generation")],
)
def test_an_unreadable_config_value_exits_1_naming_the_file_and_key(tmp_path, capsys, text, key):
    config = tmp_path / "cfg.yaml"
    config.write_text(text, encoding="utf-8")
    assert _run("--config", str(config), *_PROFILE) == 1
    assert f"error: {config}: cannot read {key} " in capsys.readouterr().err


def test_settings_from_a_config_file_write_the_same_bytes_as_flags(small_pipeline, tmp_path):
    corpus = str(small_pipeline / "corpus")
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "m: 7\nparallelism: 2\nchunk_budget: 400\npercentile: q2\nci_level: 0.9\n"
        "generation: {temperature: 0.2}\n",
        encoding="utf-8",
    )
    dispatch = ("--parallelism", "2", "--chunk-budget", "400", "--temperature", "0.2")
    runs = {
        "flags": ((), {"profile": ("--m", "7", *dispatch), "preprocess": ("--percentile", "q2"),
                       "detect": dispatch, "evaluate": ("--ci-level", "0.9")}),
        "file": (("--config", str(config)), {}),
    }
    for name, (top, flags) in runs.items():
        out = tmp_path / name
        for stage, *argv in (
            ("profile", "--corpus", corpus, "--seed", "5", "--mock", "--out", str(out / "profile.csv")),
            ("preprocess", "--corpus", corpus, "--profile-csv", str(out / "profile.csv"),
             "--out", str(out / "prep")),
            ("detect", "--corpus", corpus, "--merged", str(out / "prep"), "--mode", "all", "--mock",
             "--out", str(out / "det")),
            ("evaluate", "--corpus", corpus, "--detect-dir", str(out / "det"), "--out", str(out / "report.csv")),
        ):
            assert _run(*top, stage, *argv, *flags.get(stage, ())) == 0
    flags, file = tmp_path / "flags", tmp_path / "file"
    _same_bytes(flags, file, "*.csv")
    _same_bytes(flags / "prep", file / "prep", "merged_*.jsonl")
    _same_bytes(flags / "prep", file / "prep", "consolidation_stats.csv")
    _same_bytes(flags / "det", file / "det", "detect_*.jsonl")
    manifests = sorted(path.relative_to(flags) for path in flags.rglob("manifest_*.json"))
    assert len(manifests) == 4
    for path in manifests:
        left, right = (json.loads((root / path).read_text().replace(str(root), "")) for root in (flags, file))
        left.pop("elapsed_s"), right.pop("elapsed_s")
        assert left == right, path


_SHARED_FLAGS = {
    "--corpus": ("profile", "preprocess", "detect", "evaluate", "trend"),
    "--out": ("synth", "profile", "preprocess", "detect", "evaluate", "trend", "bench"),
    "--condition": ("synth", "profile", "preprocess", "detect", "evaluate"),
    "--profiles": ("synth", "profile", "preprocess", "detect", "evaluate"),
    "--chunk-budget": ("profile", "detect"),
    "--parallelism": ("profile", "detect"),
    **{flag: ("profile", "detect", "bench")
       for flag in ("--mock", "--backend-url", "--cache-dir", "--temperature", "--model-id")},
}


@pytest.mark.parametrize("command", ["synth", "profile", "preprocess", "detect", "evaluate", "trend", "bench"])
def test_each_subcommand_help_lists_its_shared_flags_once(command, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(command, "--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = {flag: len(re.findall(rf"^  {flag}[ \n]", text, re.M)) for flag in _SHARED_FLAGS}
    assert listed == {flag: int(command in users) for flag, users in _SHARED_FLAGS.items()}


@pytest.mark.parametrize("payload", [{"choices": ["Yes"]}, {"choices": [None]}])
def test_a_completion_choice_that_is_not_an_object_exits_2(pipeline_dirs, tmp_path, capsys, scripted_server, payload):
    server = scripted_server([(200, payload)])
    code = _run("profile", "--corpus", str(pipeline_dirs / "corpus"), "--m", "2",
                "--backend-url", server.url, "--out", str(tmp_path / "p.csv"))
    assert code == 2
    assert "backend error: unrecognized completion payload" in capsys.readouterr().err


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDC00", "\\ud83d\\ude00"])
def test_a_note_with_an_unpaired_surrogate_exits_1_at_load(pipeline_dirs, tmp_path, capsys, escape):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs / "corpus", corpus)
    docs = corpus / "documents.jsonl"
    lines = docs.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"text": "', f'"text": "{escape} ', 1)
    docs.write_text("".join(lines), encoding="utf-8")
    code = _run("preprocess", "--corpus", str(corpus), "--profile-csv", str(pipeline_dirs / "profile.csv"),
                "--out", str(tmp_path / "prep"))
    if escape == "\\ud83d\\ude00":  # a valid pair loads and is written back whole
        assert code == 0
        patients = load_patients(corpus / "patients.jsonl")
        labels = load_labels(corpus / "labels.jsonl", patients)
        notes = list(iter_documents(docs, patients))
        assert notes[1].text.startswith("\U0001F600 ")
        write_cohort(notes, patients, labels, *(tmp_path / name for name in ("d.jsonl", "p.jsonl", "l.jsonl")))
        assert load_patients(tmp_path / "p.jsonl") == patients
        assert load_labels(tmp_path / "l.jsonl", patients) == labels
        assert list(iter_documents(tmp_path / "d.jsonl", patients)) == notes
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "error: documents.jsonl line 2: record holds an unpaired surrogate" in err
        assert not list((tmp_path / "prep").glob("merged_*"))


def test_synth_holds_one_patients_notes_at_a_time(tmp_path):
    # Each synth runs in a fresh interpreter, traced from its `main` call on,
    # as a synth process would hold it.
    env = dict(os.environ, PYTHONPATH=str(Path(notepheno.__file__).parents[1]))
    probe = (
        "import sys, tracemalloc; from notepheno import cli; tracemalloc.start(); "
        "assert cli.main(sys.argv[1:]) == 0; print(tracemalloc.get_traced_memory()[1], file=sys.stderr)"
    )
    peaks = {}
    for n in (100, 400):
        argv = ["synth", "--n-patients", str(n), "--prevalence", "diabetes=0.3", "--seed", "1",
                "--docs-min", "20", "--docs-max", "20", "--out", str(tmp_path / str(n))]
        result = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        peaks[n] = int(result.stderr)
    # four times the notes: holding them all would near four times the peak
    assert peaks[400] < 2 * peaks[100], peaks


def test_synth_prevalence_that_is_not_a_number_names_the_flag(tmp_path, capsys):
    assert _run("synth", "--n-patients", "5", "--prevalence", "ami=abc", "--out", str(tmp_path / "c")) == 1
    assert "error: --prevalence 'ami=abc': could not convert string to float: 'abc'" in capsys.readouterr().err
    for entry in ("ami=1.5", "ami=-0.1", "ami=nan"):
        assert _run("synth", "--n-patients", "5", "--prevalence", entry, "--out", str(tmp_path / "c")) == 1
        assert f"error: --prevalence {entry!r}: the fraction must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


# sha256 of the files of one small seeded cohort. Every random draw of
# `generate_synthetic` moves these, also a draw whose value goes unused.
_PINNED_COHORT = {
    "documents.jsonl": "d50483b352676bbe7628fc3061935891e7f3d18212662581fcde6dc9a03642f5",
    "labels.jsonl": "16b6c3cc6497ee6487948116baadb704f056d265672fd9c68e9831318e144b72",
    "patients.jsonl": "53c42141e7639954e5bf12283568fa881feb515d20728be204244bc8b60c9c17",
    "truth.jsonl": "0695aadbbbe383cd54f775328e5927a1a0a95f0eedd3d6af4e8da50917f8b9d2",
}


def test_a_seeded_synth_cohort_keeps_its_bytes(tmp_path):
    assert _run("synth", "--out", str(tmp_path), "--n-patients", "40", "--prevalence", "ami=0.2",
                "--prevalence", "diabetes=0.3", "--prevalence", "hypertension=0.35", "--seed", "3") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _PINNED_COHORT}
    assert digests == _PINNED_COHORT


def test_synth_prevalence_of_an_unselected_condition_exits_1(tmp_path, capsys):
    for argv in (["--prevalence", "diabetis=0.5"], ["--condition", "ami", "--prevalence", "diabetes=0.5"]):
        assert _run("synth", "--n-patients", "5", *argv, "--out", str(tmp_path / "c")) == 1
        err = capsys.readouterr().err
        assert f"error: --prevalence {argv[-1]!r} names no selected condition: " in err
        assert "ami" in err
    # a condition given twice, whichever value would have been kept
    assert _run("synth", "--n-patients", "5", "--prevalence", "ami=0.2", "--prevalence", "ami=0.9",
                "--out", str(tmp_path / "c")) == 1
    assert "error: --prevalence 'ami=0.9': 'ami' is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_bench_command_writes_csv(tmp_path, scripted_server):
    server = scripted_server([(200, {"text": "Yes."})])
    out = tmp_path / "bench.csv"
    assert _run("bench", "--backend-url", server.url, "--out", str(out)) == 0
    assert server.calls == 10
    content = out.read_text()
    assert content.startswith("question,correct,latency_ms")
    assert "accuracy" in content


def test_bench_with_the_mock_exits_1_before_any_request(tmp_path, monkeypatch, capsys):
    prompts = record_prompts(monkeypatch, MockBackend)
    out = tmp_path / "bench.csv"
    assert _run("bench", "--mock", "--out", str(out)) == 1
    assert "the mock backend answers no benchmark question" in capsys.readouterr().err
    assert not out.exists()
    assert prompts == []


_NO_MENTION = (200, {"text": "No, there is no clear mention of it in the given clinical text."})


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_stage_keeps_one_connection_per_worker(pipeline_dirs, tmp_path, scripted_server, stage):
    server = scripted_server([_NO_MENTION])
    corpus = str(pipeline_dirs / "corpus")
    if stage == "profile":
        argv = ["profile", "--corpus", corpus, "--m", "10", "--out", str(tmp_path / "p.csv")]
    else:
        argv = ["detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all", "--out", str(tmp_path / "det")]
    # three conditions, all sent in the stage's one dispatch
    assert _run(*argv, "--backend-url", server.url, "--parallelism", "2") == 0
    assert server.calls > 6
    assert 1 <= server.connections <= 2


def test_parallelism_1_starts_no_worker_threads(pipeline_dirs, tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    def no_threads(*args, **kwargs):
        raise AssertionError("a thread pool was created at parallelism 1")

    # every import of the pool class, however spelt, builds it through this
    monkeypatch.setattr(ThreadPoolExecutor, "__init__", no_threads)
    corpus = str(pipeline_dirs / "corpus")
    assert _run("profile", "--corpus", corpus, "--m", "5", "--mock", "--parallelism", "1",
                "--out", str(tmp_path / "p.csv")) == 0
    assert _run("detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all", "--mock", "--parallelism", "1", "--out", str(tmp_path / "det")) == 0


def test_profile_sends_one_request_per_chunk_of_the_budget(pipeline_dirs, tmp_path, monkeypatch):
    prompts = record_prompts(monkeypatch, MockBackend)
    budget = 80
    assert _run(
        "profile", "--corpus", str(pipeline_dirs / "corpus"), "--condition", "diabetes",
        "--m", "4", "--seed", "3", "--chunk-budget", str(budget), "--mock",
        "--parallelism", "1", "--out", str(tmp_path / "p.csv"),
    ) == 0
    corpus = pipeline_dirs / "corpus"
    notes = list(iter_documents(corpus / "documents.jsonl", load_patients(corpus / "patients.jsonl")))
    samples = sampled_documents(notes, 4, 3)
    docs = [doc for picked in samples.values() for doc in picked]
    chunks = [chunk.text for doc in docs for chunk in chunk_text(doc.text, budget)]
    assert len(chunks) > len(docs)  # the budget split some documents
    # one inference request per distinct chunk of the one condition, none twice
    assert len(prompts) == len(set(prompts)) == len(set(chunks))
    manifest = json.loads((tmp_path / "manifest_profile.json").read_text())
    assert manifest["chunk_budget"] == budget
    assert manifest["coalesced_requests"] == len(chunks) - len(set(chunks))


def test_detect_sends_one_request_per_chunk_and_kind(pipeline_dirs, tmp_path, monkeypatch):
    prompts = record_prompts(monkeypatch, MockBackend)
    budget = 80
    assert _run(
        "detect", "--corpus", str(pipeline_dirs / "corpus"),
        "--merged", str(pipeline_dirs / "prep"), "--mode", "all",
        "--chunk-budget", str(budget), "--mock", "--parallelism", "1", "--out", str(tmp_path / "det"),
    ) == 0
    records = [
        record
        for condition in ("ami", "diabetes", "hypertension")
        for record in _read_jsonl(pipeline_dirs / "prep" / f"merged_{condition}.jsonl")
    ]
    chunks = [
        (record["condition"], chunk.text)
        for record in records
        for chunk in chunk_text(record["text"], budget)
    ]
    assert len(chunks) > len(records)  # the budget split some merged documents
    # one inference and one extraction request per distinct (condition, chunk), none twice
    assert len(prompts) == len(set(prompts)) == len(set(chunks)) * 2
    manifest = json.loads((tmp_path / "det" / "manifest_detect.json").read_text())
    assert manifest["coalesced_requests"] == (len(chunks) - len(set(chunks))) * 2


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_stage_makes_one_dispatch_for_all_conditions(pipeline_dirs, tmp_path, monkeypatch, stage):
    dispatches = []
    inner = cli.run_parallel

    def counting(fn, items, parallelism):
        dispatches.append(len(items))
        return inner(fn, items, parallelism)

    monkeypatch.setattr(cli, "run_parallel", counting)
    corpus = str(pipeline_dirs / "corpus")
    if stage == "profile":
        argv = ["profile", "--corpus", corpus, "--m", "10", "--out", str(tmp_path / "p.csv")]
    else:
        argv = ["detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all", "--out", str(tmp_path / "det")]
    assert _run(*argv, "--mock", "--parallelism", "2") == 0
    assert len(dispatches) == 1 and dispatches[0] > 0


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_manifest_backend_requests_without_cache(pipeline_dirs, tmp_path, monkeypatch, stage):
    prompts = record_prompts(monkeypatch, MockBackend)
    corpus = str(pipeline_dirs / "corpus")
    if stage == "profile":
        argv = ["profile", "--corpus", corpus, "--m", "10", "--out", str(tmp_path / "p.csv")]
    else:
        argv = ["detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all", "--out", str(tmp_path)]
    assert _run(*argv, "--mock", "--parallelism", "1") == 0
    manifest = json.loads((tmp_path / f"manifest_{stage}.json").read_text())
    assert prompts and manifest["backend_requests"] == len(prompts)
    assert manifest["cache_hits"] == 0


# one sentence longer than a chunk budget of 60
_LONG_SENTENCE = "Diabetes noted with " + "stable readings " * 6 + "today."


def test_a_library_run_detect_warns_once_of_its_oversized_chunk(caplog):
    texts = {"p1": "Short note. " + _LONG_SENTENCE, "p2": "Diabetes on diet. Review soon."}
    patients = make_cohort([(pid, f"d{pid}", "DischargeSummary", text) for pid, text in texts.items()])[0]
    diabetes = [p for p in builtin_profiles() if p.name == "diabetes"]
    labelled = dict(cli.run_detect(patients, [(texts, diabetes[0])], MockBackend(), GenerationParams(),
                                   modes=tuple(cli.MODE_PATHS), chunk_budget=60))
    assert set(labelled["diabetes"]) == {"p1", "p2"}
    warnings = [r for r in caplog.records if "chunk budget" in r.getMessage()]
    assert len(warnings) == 1
    assert warnings[0].getMessage().startswith("1 chunk(s)")


def test_oversized_chunk_counted_once_and_warned_once_per_stage(tmp_path, caplog):
    patients, labels, notes = make_cohort(
        [
            ("p1", "d1", "DischargeSummary", "Short note. " + _LONG_SENTENCE),
            ("p2", "d2", "DischargeSummary", "Diabetes on diet. Review soon."),
        ],
        labels=[("p1", "diabetes", 1, 1), ("p2", "diabetes", 1, 1)],
    )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_cohort(notes, patients, labels, corpus / "documents.jsonl", corpus / "patients.jsonl",
                 corpus / "labels.jsonl")
    budget = "60"
    assert len(_LONG_SENTENCE) > 60
    stages = {
        "profile": ["profile", "--corpus", str(corpus), "--m", "5", "--out", str(tmp_path / "p" / "p.csv")],
        "detect": ["detect", "--corpus", str(corpus), "--no-preprocess", "--mode", "all",
                   "--out", str(tmp_path / "det")],
    }
    for stage, argv in stages.items():
        caplog.clear()
        assert _run(*argv, "--condition", "diabetes", "--chunk-budget", budget, "--mock",
                    "--parallelism", "1") == 0
        out = Path(argv[argv.index("--out") + 1])
        manifest_dir = out.parent if stage == "profile" else out
        manifest = json.loads((manifest_dir / f"manifest_{stage}.json").read_text())
        assert manifest["oversized_chunks"] == 1, stage
        warnings = [r for r in caplog.records if "chunk budget" in r.getMessage()]
        assert len(warnings) == 1, stage
        assert warnings[0].getMessage().startswith("1 chunk(s)")


def test_a_condition_with_no_kept_type_is_warned_once_by_preprocess_and_by_detect(pipeline_dirs, tmp_path, caplog):
    lines = (pipeline_dirs / "profile.csv").read_text(encoding="utf-8").splitlines()
    rows = list(csv.DictReader(lines))
    assert any(row["condition"] == "diabetes" and row["positive_count"] != "0" for row in rows)
    for row in rows:
        if row["condition"] == "diabetes":
            row.update(positive_count="0", ir="0.000000")
    profile = tmp_path / "profile.csv"
    with profile.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    corpus = str(pipeline_dirs / "corpus")
    stages = {
        "preprocess": ["preprocess", "--corpus", corpus, "--profile-csv", str(profile), "--percentile", "q1",
                       "--out", str(tmp_path / "prep")],
        "detect": ["detect", "--corpus", corpus, "--merged", str(tmp_path / "prep"), "--mode", "all", "--mock",
                   "--out", str(tmp_path / "det")],
    }
    for stage, argv in stages.items():
        caplog.clear()
        assert _run(*argv) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and warnings[0].startswith("diabetes: "), (stage, warnings)
    assert "every patient is labelled 0 without a request" in warnings[0]
    # the bytes are those the unwarned tables give: nothing of diabetes is kept, the rest is as before
    assert (tmp_path / "prep" / "merged_diabetes.jsonl").read_bytes() == b""
    for name in ("merged_ami.jsonl", "merged_hypertension.jsonl"):
        assert (tmp_path / "prep" / name).read_bytes() == (pipeline_dirs / "prep" / name).read_bytes()
    for before in sorted((pipeline_dirs / "det").glob("detect_*.jsonl")):
        after = tmp_path / "det" / before.name
        if "_diabetes" not in before.name:
            assert after.read_bytes() == before.read_bytes()
            continue
        records = _read_jsonl(after)
        assert [r["patient_id"] for r in records] == [r["patient_id"] for r in _read_jsonl(before)]
        assert {(r["label"], len(r["measurements"])) for r in records} == {(0, 0)}


def test_each_manifest_hashes_exactly_the_settings_it_records(pipeline_dirs, tmp_path):
    assert _run("evaluate", "--corpus", str(pipeline_dirs / "corpus"), "--detect-dir", str(pipeline_dirs / "det"),
                "--out", str(tmp_path / "report.csv")) == 0
    dirs = {"synth": pipeline_dirs / "corpus", "profile": pipeline_dirs, "preprocess": pipeline_dirs / "prep",
            "detect": pipeline_dirs / "det", "evaluate": tmp_path}
    settings = {  # the settings each stage's manifest records
        "synth": ("spec",),
        "profile": ("m", "seed", "chunk_budget"),
        "preprocess": ("percentile",),
        "detect": ("modes", "chunk_budget", "input"),
        "evaluate": ("ci_level",),
    }
    manifests = {}
    for stage, keys in settings.items():
        manifest = manifests[stage] = json.loads((dirs[stage] / f"manifest_{stage}.json").read_text())
        recorded = json.dumps({key: manifest[key] for key in keys}, sort_keys=True)
        assert manifest["config_hash"] == hashlib.sha256(recorded.encode("utf-8")).hexdigest()[:16], stage
        assert manifest["stage"] == stage and manifest["elapsed_s"] >= 0
    assert manifests["detect"]["modes"] == list(cli.MODE_PATHS)
    assert manifests["detect"]["chunk_budget"] == inference.DEFAULT_CHUNK_BUDGET
    assert manifests["detect"]["input"] == "merged"
    assert manifests["synth"]["spec"] == {
        "n_patients": 80, "prevalence": {"diabetes": 0.3, "ami": 0.2, "hypertension": 0.3},
        "docs_per_patient": [2, 4], "seed": 5,
    }
    assert set(manifests["synth"]) == {"stage", "config_hash", "spec", "elapsed_s"}


def test_preprocess_writes_each_stats_row_from_retention_report(pipeline_dirs, tmp_path, monkeypatch):
    reports = []
    report = cli.retention_report

    def recording(*args):
        reports.append(report(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "retention_report", recording)
    assert _run("preprocess", "--corpus", str(pipeline_dirs / "corpus"), "--profile-csv",
                str(pipeline_dirs / "profile.csv"), "--percentile", "q1", "--out", str(tmp_path)) == 0
    assert len(reports) == 3  # one per condition
    with (tmp_path / "consolidation_stats.csv").open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["words_fraction_remaining"] for row in rows] == [
        f"{r.words_fraction_remaining:.4f}" for r in reports
    ]
    assert (tmp_path / "consolidation_stats.csv").read_bytes() == (
        pipeline_dirs / "prep" / "consolidation_stats.csv"
    ).read_bytes()


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_the_profile_stage_samples_what_sample_document_types_picks(pipeline_dirs, tmp_path, monkeypatch, seed):
    corpus = pipeline_dirs / "corpus"
    notes = list(iter_documents(corpus / "documents.jsonl", load_patients(corpus / "patients.jsonl")))
    sizes = sorted(Counter(doc.doc_type for doc in notes).values())
    seen = []
    relevance = cli.compute_information_relevance
    monkeypatch.setattr(cli, "compute_information_relevance",
                        lambda samples, verdicts: seen.append(samples) or relevance(samples, verdicts))
    # m below every type's size, equal to some type's size, and above every size
    for m in (1, 2, sizes[len(sizes) // 2], sizes[-1], sizes[-1] + 1):
        seen.clear()
        assert _run("profile", "--corpus", str(corpus), "--condition", "diabetes", "--m", str(m),
                    "--seed", str(seed), "--mock", "--out", str(tmp_path / "p.csv")) == 0
        assert seen == [sampled_documents(notes, m, seed)], m


def test_every_documents_check_fires_on_a_line_profile_and_preprocess_would_not_use(
    pipeline_dirs, tmp_path, monkeypatch, capsys
):
    prompts = record_prompts(monkeypatch, MockBackend)
    source = pipeline_dirs / "corpus"
    patients = load_patients(source / "patients.jsonl")
    notes = list(iter_documents(source / "documents.jsonl", patients))
    kept = set().union(*(
        filter_document_types(_read_profile_csv(pipeline_dirs / "profile.csv")[condition], "q1").kept_types
        for condition in ("ami", "diabetes", "hypertension")
    ))
    doc_type = min({doc.doc_type for doc in notes} - kept)
    valid = {"patient_id": min(patients), "doc_id": "P99999-D00", "doc_type": doc_type,
             "timestamp": "2015-03-01T08:00:00", "text": "An unused note."}
    corpus = tmp_path / "corpus"
    shutil.copytree(source, corpus)
    docs = corpus / "documents.jsonl"
    original = docs.read_text(encoding="utf-8")
    # as a valid line, profile --m 1 --seed 5 would not sample it, and preprocess would keep none of it
    docs.write_text(original + json.dumps(valid) + "\n", encoding="utf-8")
    with_valid = list(iter_documents(corpus / "documents.jsonl", patients))
    assert valid["doc_id"] not in {d.doc_id for d in sampled_documents(with_valid, 1, 5)[doc_type]}
    lineno = original.count("\n") + 1
    first = notes[0].doc_id
    cases = {
        json.dumps({k: v for k, v in valid.items() if k != "timestamp"}): "missing field 'timestamp'",
        json.dumps(dict(valid, doc_id=first)): f"duplicate doc_id {first!r}",
        json.dumps(dict(valid, patient_id="nobody")): "unknown patient_id 'nobody'",
        json.dumps(dict(valid, timestamp="noon")): "bad timestamp 'noon'",
        json.dumps(dict(valid, text="\ud800")): "record holds an unpaired surrogate",
        "{not json": "invalid record",
        "[1]": "record is not an object",
    }
    for bad, message in cases.items():
        docs.write_text(original + bad + "\n", encoding="utf-8")
        for argv in (
            ("profile", "--corpus", str(corpus), "--m", "1", "--seed", "5", "--mock",
             "--out", str(tmp_path / "p.csv")),
            ("preprocess", "--corpus", str(corpus), "--profile-csv", str(pipeline_dirs / "profile.csv"),
             "--out", str(tmp_path / "prep")),
        ):
            assert _run(*argv) == 1, (bad, argv[0])
            assert f"error: documents.jsonl line {lineno}: {message}" in capsys.readouterr().err, (bad, argv[0])
    assert prompts == []
    assert not (tmp_path / "p.csv").exists() and not list(tmp_path.glob("prep/*"))


def test_evaluate_refuses_a_label_file_of_another_mode(pipeline_dirs, tmp_path, capsys):
    det = tmp_path / "det"
    shutil.copytree(pipeline_dirs / "det", det)
    path = det / "detect_merged_ami.jsonl"
    shutil.copyfile(det / "detect_prompt1_ami.jsonl", path)
    code = _run("evaluate", "--corpus", str(pipeline_dirs / "corpus"), "--detect-dir", str(det),
                "--out", str(tmp_path / "report.csv"))
    assert code == 1
    assert f"error: {path}: expected the prediction records of mode 'merged', found prompt1" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "report.csv").exists()
