"""detect's request plan and its reading of the raw notes: each condition
gets its own replies in chunk order, each distinct text is chunked once, the
prompts sent are pinned, the raw notes stream in any file order, and the stage
holds neither the documents nor the dataclass machinery."""
import hashlib
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import make_cohort

from notepheno import cli
from notepheno.adjudication import MODE_PATHS, InferredStatus
from notepheno.corpus import load_patients, write_cohort
from notepheno.inference import CompletionResponse, GenerationParams, MockBackend, chunk_text
from notepheno.prompting import builtin_profiles, render_prompt

BUDGET = 30  # every sentence below is its own chunk
SENTENCES = ("Seen on ward one.", "Seen on ward two.", "Seen on ward three.")
UNITS = {"ami": "ng/L", "diabetes": "mmol/l"}


def _text(pid):
    return " ".join(f"{sentence} {pid}." for sentence in SENTENCES)


class ChunkBackend:
    """Answers by the prompt's condition, kind and chunk: Yes only to
    `(yes_condition, yes_patient)`'s second chunk, and an extraction reply
    whose one value names the condition, the patient and the chunk."""

    backend_id = "chunks"

    def __init__(self, texts_by_condition, yes_condition, yes_patient):
        self.replies = {}
        for profile in builtin_profiles():
            if profile.name not in texts_by_condition:
                continue
            for pid, text in texts_by_condition[profile.name].items():
                chunks = chunk_text(text, BUDGET)
                for number, chunk in enumerate(chunks, 1):
                    yes = (profile.name, pid, number) == (yes_condition, yes_patient, 2)
                    value = _value(profile.name, pid, number)
                    self.replies[render_prompt(profile, "inference", chunk.text).text] = "Yes." if yes else "No."
                    self.replies[render_prompt(profile, "extraction", chunk.text).text] = (
                        f"{value} {UNITS[profile.name]}"
                    )

    def complete(self, request):
        return CompletionResponse(self.replies[request.prompt])


def _value(condition, pid, number):
    return float(10 * int(pid[1:]) + number + (50 if condition == "diabetes" else 0))


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("layout", ["shared", "coinciding", "separate"])
def test_each_condition_reads_its_own_replies_in_chunk_order(layout, parallelism):
    pids = ("p1", "p2", "p3")
    raw = {pid: _text(pid) for pid in pids}
    if layout == "shared":  # one map for both conditions, as under --no-preprocess
        texts = {"ami": raw, "diabetes": raw}
    elif layout == "coinciding":  # separate maps whose text of p1 and p3 is the same
        texts = {"ami": raw, "diabetes": {**raw, "p2": _text("p2") + " Extra."}}
    else:
        texts = {"ami": raw, "diabetes": {pid: text + " Extra." for pid, text in raw.items()}}
    assert all(len(chunk_text(text, BUDGET)) >= 3 for by_pid in texts.values() for text in by_pid.values())
    profiles = [p for p in builtin_profiles() if p.name in texts]
    patients = make_cohort([(pid, f"d{pid}", "Note", "") for pid in (*pids, "p4")])[0]
    backend = ChunkBackend(texts, "diabetes", "p2")
    found = dict(cli.run_detect(
        patients, [(texts[p.name], p) for p in profiles], backend, GenerationParams(),
        modes=tuple(MODE_PATHS), chunk_budget=BUDGET, parallelism=parallelism,
    ))
    for condition in ("ami", "diabetes"):
        assert list(found[condition]) == ["p1", "p2", "p3", "p4"]
        assert found[condition]["p4"].statuses == {}
        for pid in pids:
            findings = found[condition][pid]
            yes = (condition, pid) == ("diabetes", "p2")
            assert findings.statuses["inference"] is (InferredStatus.YES if yes else InferredStatus.NO)
            chunks = len(chunk_text(texts[condition][pid], BUDGET))
            values = [m.raw_value for m in findings.measurements]
            assert values == [_value(condition, pid, n) for n in range(1, chunks + 1)]


def test_each_distinct_text_is_chunked_once_whichever_conditions_hold_it(monkeypatch):
    pids = ("p1", "p2", "p3")
    raw = {pid: _text(pid) for pid in pids}
    profiles = [p for p in builtin_profiles() if p.name in UNITS]
    patients = make_cohort([(pid, f"d{pid}", "Note", "") for pid in pids])[0]
    backend = ChunkBackend({p.name: raw for p in profiles}, "diabetes", "p2")
    calls = []
    inner = cli.chunk_text

    def counting(text, budget):
        calls.append(text)
        return inner(text, budget)

    monkeypatch.setattr(cli, "chunk_text", counting)
    found = {}
    for name, selected in (("one", [(raw, p) for p in profiles]), ("copies", [(dict(raw), p) for p in profiles])):
        calls.clear()
        found[name] = dict(cli.run_detect(patients, selected, backend, GenerationParams(), modes=tuple(MODE_PATHS),
                                          chunk_budget=BUDGET))
        assert sorted(calls) == sorted(raw.values())
    assert found["copies"] == found["one"]
    assert found["one"]["diabetes"]["p2"].statuses["inference"] is InferredStatus.YES

    # separate maps sharing one text whose first sentence is longer than the budget
    shared = "Seen on the long ward round of the day. p1. Seen on ward two. p1."
    texts = {p.name: {"p1": shared} for p in profiles}
    chunks = chunk_text(shared, BUDGET)
    assert [chunk.oversized for chunk in chunks] == [True, False]
    calls.clear()
    counts = Counter()
    found = dict(cli.run_detect(make_cohort([("p1", "dp1", "Note", "")])[0], [(texts[p.name], p) for p in profiles],
                                ChunkBackend(texts, "diabetes", "p1"), GenerationParams(), modes=tuple(MODE_PATHS),
                                chunk_budget=BUDGET, counts=counts))
    assert calls == [shared] and counts["oversized_chunks"] == 1
    for condition in UNITS:
        findings = found[condition]["p1"]
        yes = condition == "diabetes"
        assert findings.statuses["inference"] is (InferredStatus.YES if yes else InferredStatus.NO)
        assert [m.raw_value for m in findings.measurements] == [_value(condition, "p1", n) for n in (1, 2)]


def _write_corpus(directory, docs):
    """A corpus directory of (patient_id, doc_id, doc_type, text) notes, in
    the given order, each note an hour after the one before."""
    patients, labels, notes = make_cohort(docs)
    directory.mkdir(parents=True, exist_ok=True)
    write_cohort(notes, patients, labels, directory / "documents.jsonl", directory / "patients.jsonl",
                 directory / "labels.jsonl")
    return directory


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    assert cli.main(["synth", "--out", str(root / "corpus"), "--n-patients", "24", "--seed", "3",
                     "--prevalence", "diabetes=0.4", "--prevalence", "ami=0.3",
                     "--prevalence", "hypertension=0.4", "--docs-min", "2", "--docs-max", "5"]) == 0
    return root / "corpus"


def _label_files(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).glob("detect_*.jsonl"))}


def test_no_preprocess_labels_do_not_depend_on_the_order_of_the_documents_file(synth_corpus, tmp_path):
    lines = (synth_corpus / "documents.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    by_patient = {}
    for line in lines:
        by_patient.setdefault(json.loads(line)["patient_id"], []).append(line)
    # round-robin over the patients, latest patient first, each patient's notes newest first
    queues = [list(reversed(notes)) for notes in reversed(by_patient.values())]
    interleaved = [queue[at] for at in range(max(map(len, queues))) for queue in queues if at < len(queue)]
    assert sorted(interleaved) == sorted(lines) and interleaved != lines
    shuffled = tmp_path / "corpus"
    shuffled.mkdir()
    for name in ("patients.jsonl", "labels.jsonl"):
        (shuffled / name).write_bytes((synth_corpus / name).read_bytes())
    (shuffled / "documents.jsonl").write_text("".join(interleaved), encoding="utf-8")
    for corpus, out in ((synth_corpus, "grouped"), (shuffled, "interleaved")):
        assert cli.main(["detect", "--corpus", str(corpus), "--no-preprocess", "--mode", "all", "--mock",
                         "--chunk-budget", "200", "--out", str(tmp_path / out)]) == 0
    grouped = _label_files(tmp_path / "grouped")
    assert len(grouped) == 9 and any(b'"label": 1' in data for data in grouped.values())
    assert _label_files(tmp_path / "interleaved") == grouped


@pytest.mark.parametrize(
    "docs, complaint",
    [
        ([("p1", "d1", "Note", "Known diabetes."), ("p2", "d2", "Note", "Seen."), ("p2", "d1", "Note", "Seen.")],
         "documents.jsonl line 3: duplicate doc_id 'd1'"),
        ([("p1", "d1", "Note", "Known diabetes."), ("p9", "d2", "Note", "Seen.")],
         "documents.jsonl line 2: unknown patient_id 'p9'"),
    ],
)
def test_no_preprocess_refuses_a_bad_documents_line_naming_it(tmp_path, capsys, docs, complaint):
    corpus = _write_corpus(tmp_path / "corpus", docs)
    (corpus / "patients.jsonl").write_text(
        "".join(json.dumps({"patient_id": pid, "admit_date": "2015-03-01"}) + "\n" for pid in ("p1", "p2")),
        encoding="utf-8",
    )
    capsys.readouterr()
    assert cli.main(["detect", "--corpus", str(corpus), "--no-preprocess", "--mock",
                     "--out", str(tmp_path / "det")]) == 1
    assert f"error: {complaint}" in capsys.readouterr().err
    assert not list((tmp_path / "det").glob("detect_*.jsonl"))


@pytest.mark.parametrize("source", ["--no-preprocess", "--merged"])
def test_labels_at_parallelism_1_and_4_are_byte_identical(synth_corpus, tmp_path, source):
    if source == "--merged":
        assert cli.main(["profile", "--corpus", str(synth_corpus), "--m", "20", "--mock",
                         "--out", str(tmp_path / "profile.csv")]) == 0
        assert cli.main(["preprocess", "--corpus", str(synth_corpus), "--profile-csv", str(tmp_path / "profile.csv"),
                         "--out", str(tmp_path / "prep")]) == 0
    flags = ["--no-preprocess"] if source == "--no-preprocess" else ["--merged", str(tmp_path / "prep")]
    for parallelism in ("1", "4"):
        assert cli.main(["detect", "--corpus", str(synth_corpus), *flags, "--mode", "all", "--mock",
                         "--chunk-budget", "60", "--parallelism", parallelism,
                         "--out", str(tmp_path / parallelism)]) == 0
    assert len(_label_files(tmp_path / "1")) == 9
    assert _label_files(tmp_path / "4") == _label_files(tmp_path / "1")


def test_detect_manifest_records_its_input(synth_corpus, tmp_path):
    merged = tmp_path / "merged_diabetes.jsonl"
    merged.write_text("", encoding="utf-8")
    manifests = {}
    for name, flags in (("raw", ["--no-preprocess"]), ("merged", ["--merged", str(merged)])):
        assert cli.main(["detect", "--corpus", str(synth_corpus), *flags, "--condition", "diabetes",
                         "--mock", "--out", str(tmp_path / name)]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest_detect.json").read_text(encoding="utf-8"))
    assert manifests["raw"]["input"] == "no_preprocess" and "merged" not in manifests["raw"]
    assert manifests["merged"]["input"] == "merged" and manifests["merged"]["merged"] == str(merged)
    assert manifests["raw"]["config_hash"] != manifests["merged"]["config_hash"]


@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_implausible_values_are_counted_and_warned_once_per_stage(tmp_path, caplog, parallelism):
    corpus = _write_corpus(tmp_path / "corpus", [("p1", "d1", "Note", "Seen."), ("p2", "d2", "Note", "Seen."),
                                                 ("p3", "d3", "Note", "Seen.")])
    merged = tmp_path / "merged_diabetes.jsonl"
    merged.write_text("".join(
        json.dumps({"patient_id": pid, "condition": "diabetes", "text": f"Glucose - mmol/l random : {value} mmol/l."})
        + "\n"
        for pid, value in (("p1", "0.2"), ("p2", "150.0"), ("p3", "12.5"))
    ), encoding="utf-8")
    caplog.set_level(logging.WARNING)
    assert cli.main(["detect", "--corpus", str(corpus), "--merged", str(merged), "--condition", "diabetes",
                     "--mode", "prompt2", "--mock", "--parallelism", parallelism,
                     "--out", str(tmp_path / "det")]) == 0
    warnings = [r.getMessage() for r in caplog.records if "implausible" in r.getMessage()]
    assert warnings == ["dropped 2 implausible glucose value(s)"]
    manifest = json.loads((tmp_path / "det" / "manifest_detect.json").read_text(encoding="utf-8"))
    assert manifest["implausible_values"] == 2
    written = (tmp_path / "det" / "detect_prompt2_diabetes.jsonl").read_text(encoding="utf-8")
    labels = [json.loads(line)["label"] for line in written.splitlines()]
    assert labels == [0, 0, 1]  # the plausible 12.5 still counts


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, notepheno.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_run_detect_holds_no_text_once_it_returns(synth_corpus):
    patients = load_patients(synth_corpus / "patients.jsonl")
    texts = {pid: f"Known diabetes, patient {pid}." for pid in patients}
    held = sys.getrefcount(texts)
    labelled = cli.run_detect(patients, [(texts, p) for p in builtin_profiles()], MockBackend(), GenerationParams())
    assert sys.getrefcount(texts) == held
    found = dict(labelled)
    assert all(findings.statuses["inference"] is InferredStatus.YES for findings in found["diabetes"].values())


# sha256 of the sorted prompts each stage sends on `synth_corpus` below; a
# reshape of the request plan may change their order, never the set
PROMPT_DIGESTS = {
    "profile": "631d7bf2f0423502c4c288b232797b3fcfa989629c4ba90b821aeb09acff70e0",
    "detect --merged": "939cd406f1ea6b968cfd1de413794add6bc9cc7284df4fb02eaa2d18fedfe13f",
    "detect --no-preprocess": "e8b69109ba2ab521fd2ef57e7eac4d4e6bbc137a86210e23b496157896904c36",
}


def test_the_prompts_each_backend_stage_sends_are_pinned(synth_corpus, tmp_path, monkeypatch):
    sent = []
    inner = MockBackend.complete

    def recording(self, request):
        sent.append(request.prompt)
        return inner(self, request)

    monkeypatch.setattr(MockBackend, "complete", recording)
    corpus, prep = str(synth_corpus), str(tmp_path / "prep")
    common = ["--mock", "--parallelism", "1", "--chunk-budget", "200"]
    digests = {}
    for stage, argv in (
        ("profile", ["profile", "--corpus", corpus, "--m", "20", "--seed", "2", *common,
                     "--out", str(tmp_path / "profile.csv")]),
        ("preprocess", ["preprocess", "--corpus", corpus, "--profile-csv", str(tmp_path / "profile.csv"),
                        "--out", prep]),
        ("detect --merged", ["detect", "--corpus", corpus, "--merged", prep, "--mode", "all", *common,
                             "--out", str(tmp_path / "merged")]),
        ("detect --no-preprocess", ["detect", "--corpus", corpus, "--no-preprocess", "--mode", "all", *common,
                                    "--out", str(tmp_path / "raw")]),
    ):
        sent.clear()
        assert cli.main(argv) == 0
        if stage != "preprocess":
            digests[stage] = hashlib.sha256(json.dumps(sorted(sent)).encode("utf-8")).hexdigest()
    assert digests == PROMPT_DIGESTS
