"""End-to-end CLI behaviour: stage artifacts, exit codes, config handling."""
import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import notepheno
from notepheno.cli import main
from notepheno.inference import CachedBackend


def _run(*argv):
    return main(list(argv))


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
            assert record["doc_type"] == "__merged__"
            assert record["condition"] == condition
            assert record["provenance"]
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
    code = _run(
        "detect",
        "--corpus", str(pipeline_dirs / "corpus"),
        "--merged", str(pipeline_dirs / "prep"),
        "--condition", "diabetes",
        "--backend-url", server.url,
        "--parallelism", "1",
        "--out", str(tmp_path / "det"),
    )
    assert code == 2
    assert "not JSON" in capsys.readouterr().err


def test_detect_cache_counters_match_calls_at_parallelism_4(pipeline_dirs, tmp_path, monkeypatch):
    calls = []
    lock = threading.Lock()
    inner = CachedBackend.complete

    def counting(self, request):
        with lock:
            calls.append(request.prompt)
        return inner(self, request)

    monkeypatch.setattr(CachedBackend, "complete", counting)
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


def test_cli_import_loads_neither_requests_nor_yaml():
    env = dict(os.environ, PYTHONPATH=str(Path(notepheno.__file__).parents[1]))
    probe = "import sys, notepheno.cli; print(sorted({'requests', 'yaml'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


def test_bench_command_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert _run("bench", "--mock", "--out", str(out)) == 0
    content = out.read_text()
    assert content.startswith("question,correct,latency_ms")
    assert "accuracy" in content
