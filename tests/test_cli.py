"""End-to-end CLI behaviour: stage artifacts, exit codes, config handling."""
import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import make_cohort

import notepheno
from notepheno import cli, inference
from notepheno.cli import _load_corpus_dir, _read_jsonl, main
from notepheno.corpus import write_cohort
from notepheno.inference import CachedBackend, MockBackend, chunk_text
from notepheno.preprocess import sample_document_types


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
    patients = _load_corpus_dir(corpus, documents=False, labels=False).patients
    assert len(calls) == len(set(calls)) == len(patients)


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
        assert all(r["label"] == 0 and not r["evidence_doc_ids"] for r in records)


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
            assert record["evidence_doc_ids"] == (
                by_mode["prompt1"][pid]["evidence_doc_ids"] + by_mode["prompt2"][pid]["evidence_doc_ids"]
            )


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
    probe = (
        "import sys, notepheno.cli; "
        "print(sorted({'requests', 'yaml', 'http.client'} & set(sys.modules)))"
    )
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
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread pool was created at parallelism 1")

    monkeypatch.setattr(inference, "ThreadPoolExecutor", no_threads)
    corpus = str(pipeline_dirs / "corpus")
    assert _run("profile", "--corpus", corpus, "--m", "5", "--mock", "--parallelism", "1",
                "--out", str(tmp_path / "p.csv")) == 0
    assert _run("detect", "--corpus", corpus, "--merged", str(pipeline_dirs / "prep"),
                "--mode", "all", "--mock", "--parallelism", "1", "--out", str(tmp_path / "det")) == 0


def _count_mock_calls(monkeypatch):
    prompts = []
    inner = MockBackend.complete

    def counting(self, request):
        prompts.append(request.prompt)
        return inner(self, request)

    monkeypatch.setattr(MockBackend, "complete", counting)
    return prompts


def test_profile_sends_one_request_per_chunk_of_the_budget(pipeline_dirs, tmp_path, monkeypatch):
    prompts = _count_mock_calls(monkeypatch)
    budget = 80
    assert _run(
        "profile", "--corpus", str(pipeline_dirs / "corpus"), "--condition", "diabetes",
        "--m", "4", "--seed", "3", "--chunk-budget", str(budget), "--mock",
        "--parallelism", "1", "--out", str(tmp_path / "p.csv"),
    ) == 0
    samples = sample_document_types(
        _load_corpus_dir(pipeline_dirs / "corpus", documents=True, labels=False), 4, 3
    )
    docs = [doc for picked in samples.values() for doc in picked]
    chunks = sum(len(chunk_text(doc.text, budget)) for doc in docs)
    assert chunks > len(docs)  # the budget split some documents
    assert len(prompts) == chunks
    manifest = json.loads((tmp_path / "manifest_profile.json").read_text())
    assert manifest["chunk_budget"] == budget



def test_detect_sends_one_request_per_chunk_and_kind(pipeline_dirs, tmp_path, monkeypatch):
    prompts = _count_mock_calls(monkeypatch)
    budget = 80
    assert _run(
        "detect", "--corpus", str(pipeline_dirs / "corpus"),
        "--merged", str(pipeline_dirs / "prep"), "--mode", "all",
        "--chunk-budget", str(budget), "--mock", "--parallelism", "1", "--out", str(tmp_path / "det"),
    ) == 0
    chunks = [
        len(chunk_text(record["text"], budget))
        for condition in ("ami", "diabetes", "hypertension")
        for record in _read_jsonl(pipeline_dirs / "prep" / f"merged_{condition}.jsonl")
    ]
    assert sum(chunks) > len(chunks)  # the budget split some merged documents
    assert len(prompts) == sum(chunks) * 2  # one inference and one extraction prompt each


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
    prompts = _count_mock_calls(monkeypatch)
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


def test_oversized_chunk_counted_once_and_warned_once_per_stage(tmp_path, caplog):
    long_sentence = "Diabetes noted with " + "stable readings " * 6 + "today."
    cohort = make_cohort(
        [
            ("p1", "d1", "DischargeSummary", "Short note. " + long_sentence),
            ("p2", "d2", "DischargeSummary", "Diabetes on diet. Review soon."),
        ],
        labels=[("p1", "diabetes", 1, 1), ("p2", "diabetes", 1, 1)],
    )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_cohort(cohort, corpus / "documents.jsonl", corpus / "patients.jsonl", corpus / "labels.jsonl")
    budget = "60"
    assert len(long_sentence) > 60
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
