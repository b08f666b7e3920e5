"""A backend stage sends each distinct (condition, kind, chunk) ask once and
gives the parsed reply to every owner that asked it."""
import json
from collections import Counter

import pytest
from conftest import make_cohort, record_prompts, sampled_documents

from notepheno import cli
from notepheno.adjudication import MODE_PATHS, combine_chunk_statuses, parse_inference_response
from notepheno.corpus import encode_record, write_cohort
from notepheno.inference import CachedBackend, CompletionRequest, GenerationParams, MockBackend, chunk_text
from notepheno.preprocess import compute_information_relevance
from notepheno.prompting import builtin_profiles, render_prompt

BUDGET = 60  # splits every note below at its sentences
DIABETIC = "Known type 2 diabetes, on metformin. Glucose - mmol/l random : 12.4 mmol/l."
CARDIAC = "Chest pain, acute myocardial infarction. Troponin level: 35 ng/L."
TEMPLATED = "Patient age 79, weight 61 kg, medication list reviewed."
KINDS = ("inference", "extraction")

# p2's notes repeat p1's, and every patient has the templated note.
NOTES = [
    ("p1", "d1", "DischargeSummary", DIABETIC),
    ("p1", "d2", "ProgressNote", TEMPLATED),
    ("p2", "d3", "DischargeSummary", DIABETIC),
    ("p2", "d4", "ProgressNote", TEMPLATED),
    ("p3", "d5", "DischargeSummary", CARDIAC),
    ("p3", "d6", "ProgressNote", TEMPLATED),
]
MERGED = {"p1": f"{DIABETIC} {TEMPLATED}", "p2": f"{DIABETIC} {TEMPLATED}", "p3": f"{CARDIAC} {TEMPLATED}"}


def _asks(texts, conditions, kinds):
    return [
        (condition, kind, chunk.text)
        for condition in conditions
        for text in texts
        for chunk in chunk_text(text, BUDGET)
        for kind in kinds
    ]


@pytest.fixture
def cohort():
    return make_cohort(NOTES)[0]


@pytest.fixture
def notes():
    return make_cohort(NOTES)[1]


def test_run_detect_sends_each_distinct_prompt_once_and_shares_the_findings(cohort, monkeypatch):
    sent = record_prompts(monkeypatch, MockBackend)
    profiles = [p for p in builtin_profiles() if p.name in ("ami", "diabetes")]
    runs = {}
    for name, texts in (("with", MERGED), ("without", {pid: MERGED[pid] for pid in ("p1", "p3")})):
        before, counts = len(sent), Counter()
        found = dict(cli.run_detect(
            cohort, [(texts, profile) for profile in profiles], MockBackend(), GenerationParams(),
            modes=tuple(MODE_PATHS), chunk_budget=BUDGET, parallelism=1, counts=counts,
        ))
        runs[name] = found, sent[before:], counts
    found, prompts, counts = runs["with"]
    alone, alone_prompts, _ = runs["without"]
    asks = _asks(MERGED.values(), ("ami", "diabetes"), KINDS)
    assert len(set(asks)) < len(asks)  # patients and chunks repeat
    assert len(prompts) == len(set(prompts)) == len(set(asks))
    assert sorted(prompts) == sorted(alone_prompts)  # the repeated patient costs nothing
    assert counts["requests"] == len(prompts)
    assert counts["coalesced_requests"] == len(asks) - len(set(asks))
    assert found["diabetes"]["p1"].measurements  # the compared findings are not empty
    for condition in ("ami", "diabetes"):
        assert found[condition]["p2"] == found[condition]["p1"] == alone[condition]["p1"]
        assert found[condition]["p3"] == alone[condition]["p3"]


def test_run_profile_sends_each_distinct_sampled_text_once(notes, monkeypatch):
    sent = record_prompts(monkeypatch, MockBackend)
    profiles = builtin_profiles()
    counts = Counter()
    tables = cli.run_profile(
        sampled_documents(notes, 10, 0), profiles, MockBackend(), GenerationParams(),
        parallelism=1, chunk_budget=BUDGET, counts=counts,
    )
    asks = _asks([doc.text for doc in notes], [p.name for p in profiles], ("inference",))
    assert len(set(asks)) < len(asks)
    assert len(sent) == len(set(sent)) == len(set(asks))
    assert counts["coalesced_requests"] == len(asks) - len(set(asks))
    # every sampled document keeps its own verdict, asked here one by one
    samples = sampled_documents(notes, 10, 0)
    oracle = MockBackend()
    for profile in profiles:
        verdicts = {
            doc.doc_id: combine_chunk_statuses([
                parse_inference_response(oracle.complete(CompletionRequest(
                    render_prompt(profile, "inference", chunk.text).text, GenerationParams()
                )).text)
                for chunk in chunk_text(doc.text, BUDGET)
            ])
            for doc in notes
        }
        assert tables[profile.name] == compute_information_relevance(samples, verdicts)
    summaries = {p.doc_type: p for p in tables["diabetes"]}
    assert summaries["DischargeSummary"].positive_count == 2  # both copies count


@pytest.fixture
def corpus_dirs(cohort, notes, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_cohort(notes, cohort, corpus / "documents.jsonl", corpus / "patients.jsonl", corpus / "labels.jsonl")
    prep = tmp_path / "prep"
    prep.mkdir()
    for profile in builtin_profiles():
        (prep / f"merged_{profile.name}.jsonl").write_text(
            "".join(
                encode_record({"patient_id": pid, "condition": profile.name, "text": text}) + "\n"
                for pid, text in sorted(MERGED.items())
            ),
            encoding="utf-8",
        )
    return corpus, prep


def _stage_argv(stage, corpus, prep, out):
    if stage == "profile":
        return ["profile", "--corpus", str(corpus), "--m", "10", "--out", str(out / "profile.csv")]
    return ["detect", "--corpus", str(corpus), "--merged", str(prep), "--mode", "all", "--out", str(out)]


def _planned_asks(stage):
    conditions = [p.name for p in builtin_profiles()]
    if stage == "profile":
        return _asks([text for _, _, _, text in NOTES], conditions, ("inference",))
    return _asks(MERGED.values(), conditions, KINDS)


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_manifest_counts_the_requests_that_reached_the_backend(corpus_dirs, tmp_path, monkeypatch, stage):
    sent = record_prompts(monkeypatch, MockBackend)
    corpus, prep = corpus_dirs
    out = tmp_path / "out"
    argv = _stage_argv(stage, corpus, prep, out)
    assert cli.main([*argv, "--chunk-budget", str(BUDGET), "--mock", "--parallelism", "1"]) == 0
    manifest = json.loads((out / f"manifest_{stage}.json").read_text())
    asks = _planned_asks(stage)
    assert len(sent) == len(set(sent)) == len(set(asks))
    assert manifest["backend_requests"] == len(sent)
    assert manifest["coalesced_requests"] == len(asks) - len(set(asks)) > 0


@pytest.mark.parametrize("stage", ["profile", "detect"])
def test_cached_parallel_stage_looks_up_each_distinct_prompt_once(corpus_dirs, tmp_path, monkeypatch, stage):
    corpus, prep = corpus_dirs
    plain = tmp_path / "plain"
    assert cli.main([*_stage_argv(stage, corpus, prep, plain), "--chunk-budget", str(BUDGET),
                     "--mock", "--parallelism", "1"]) == 0
    lookups = record_prompts(monkeypatch, CachedBackend)
    cached = tmp_path / "cached"
    assert cli.main([*_stage_argv(stage, corpus, prep, cached), "--chunk-budget", str(BUDGET),
                     "--mock", "--parallelism", "4", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert len(lookups) == len(set(lookups)) == len(set(_planned_asks(stage)))
    manifest = json.loads((cached / f"manifest_{stage}.json").read_text())
    assert manifest["backend_requests"] == len(lookups) and manifest["cache_hits"] == 0
    names = sorted(path.name for path in plain.glob("*") if not path.name.startswith("manifest_"))
    assert names and names == sorted(
        path.name for path in cached.glob("*") if not path.name.startswith("manifest_")
    )
    for name in names:
        assert (plain / name).read_bytes() == (cached / name).read_bytes(), name
