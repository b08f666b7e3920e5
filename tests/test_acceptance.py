"""Acceptance gate: eight end-to-end correctness criteria.

Each test prints one CRITERION n PASS/FAIL line so the suite output doubles as
a checklist.
"""
import csv
import json
import random
import time
from contextlib import contextmanager

from conftest import FlippingBackend, sampled_documents, synthesize

from notepheno.adjudication import (
    InferredStatus,
    apply_clinical_rule,
    merge_patient,
    parse_extraction_response,
    parse_inference_response,
)
from notepheno.bench import builtin_questions, run_benchmark
from notepheno.cli import main, run_detect, run_profile
from notepheno.corpus import HIGH_YIELD_DOC_TYPES, SynthSpec, reference_map
from notepheno.evaluation import combine_or, confusion, metrics
from notepheno.inference import GenerationParams, MockBackend
from notepheno.preprocess import (
    DocTypeProfile,
    FilterPlan,
    consolidate,
    filter_document_types,
    keyword_regex,
    positive_retention,
    sentence_spans,
)
from notepheno.prompting import ClinicalRule, builtin_profiles


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} FAIL: {description}")
        raise
    print(f"CRITERION {number} PASS: {description}")


def _profile(name):
    return next(p for p in builtin_profiles() if p.name == name)


# 1 -------------------------------------------------------------------------

def test_criterion_1_metric_correctness():
    with criterion(1, "metrics match brute-force recomputation on 1000 random vectors"):
        rng = random.Random(1)
        for _ in range(1000):
            ids = [f"p{i}" for i in range(200)]
            ref = {pid: rng.randint(0, 1) for pid in ids}
            pred = {pid: rng.randint(0, 1) for pid in ids}
            tp = sum(1 for p in ids if ref[p] == 1 and pred[p] == 1)
            fn = sum(1 for p in ids if ref[p] == 1 and pred[p] == 0)
            fp = sum(1 for p in ids if ref[p] == 0 and pred[p] == 1)
            tn = sum(1 for p in ids if ref[p] == 0 and pred[p] == 0)
            ms = metrics(confusion(pred, ref))
            expectations = [
                (ms.sensitivity, tp, tp + fn),
                (ms.specificity, tn, tn + fp),
                (ms.ppv, tp, tp + fp),
                (ms.npv, tn, tn + fn),
            ]
            for estimate, num, den in expectations:
                if den == 0:
                    assert estimate is None
                else:
                    assert abs(estimate.point - num / den) <= 1e-12
        fixture = metrics(confusion(
            {f"p{i}": 1 if i < 97 else 0 for i in range(200)},
            {f"p{i}": 1 if i < 84 or 97 <= i < 113 else 0 for i in range(200)},
        ))
        assert abs(fixture.sensitivity.point - 0.840) <= 1e-12
        assert abs(fixture.specificity.point - 0.870) <= 1e-12


# 2 -------------------------------------------------------------------------

def test_criterion_2_parsing_fixtures():
    with criterion(2, "published response fixtures parse to their stated values"):
        (m,) = parse_extraction_response("Response: troponin level: 1.16 ng/mL.", "troponin")
        assert m.normalized_value == 1160.0

        glucose_response = (
            "Response: Key-value pairs: 1. glucose - mmol/l breakfast: 24.8 mmol/l "
            "2. glucose - mmol/l breakfast: 20.1 mmol/l 3. glucose - mmol/l breakfast: 16.6 mmol/l "
            "4. poct blood glucose - mmol/l lunch: 12 mmol/l 5. glucose - mmol/l lunch: 9.7 mmol/l "
            "6. glucose - mmol/l lunch: 8.9 mmol/l"
        )
        values = [x.normalized_value for x in parse_extraction_response(glucose_response, "glucose")]
        for expected in (24.8, 20.1, 16.6, 12.0, 9.7, 8.9):
            assert expected in values

        bp = parse_extraction_response(
            "21. blood pressure systolic: 140 22. blood pressure diastolic: 66", "blood_pressure"
        )
        rule = _profile("hypertension").rule
        assert apply_clinical_rule(bp, rule) is InferredStatus.YES

        hypertension_response = (
            "No, there is no clear mention of hypertension or high blood pressure "
            "in the given clinical text."
        )
        assert parse_inference_response(hypertension_response) is InferredStatus.NO

        ami_response = (
            "Yes, the text identifies acute myocardial infarction (AMI) as the "
            "patient has been diagnosed with AMI)."
        )
        assert parse_inference_response(ami_response) is InferredStatus.YES


# 3 -------------------------------------------------------------------------

def test_criterion_3_boundary_semantics():
    with criterion(3, "threshold boundaries behave per clinical definition"):
        def glucose(v):
            return parse_extraction_response(f"glucose level : {v} mmol/l", "glucose")

        def troponin(v):
            return parse_extraction_response(f"troponin level: {v} ng/L", "troponin")

        glucose_rule = _profile("diabetes").rule
        troponin_rule = _profile("ami").rule
        bp_rule = _profile("hypertension").rule
        assert apply_clinical_rule(glucose(11.1), glucose_rule) is InferredStatus.YES
        assert apply_clinical_rule(troponin(14.0), troponin_rule) is InferredStatus.NO
        assert apply_clinical_rule(troponin(14.01), troponin_rule) is InferredStatus.YES
        low = parse_extraction_response("systolic : 139.9 diastolic : 89.9", "blood_pressure")
        high = parse_extraction_response("systolic : 140 diastolic : 89", "blood_pressure")
        assert apply_clinical_rule(low, bp_rule) is InferredStatus.NO
        assert apply_clinical_rule(high, bp_rule) is InferredStatus.YES


# 4 -------------------------------------------------------------------------

def test_criterion_4_synthetic_recovery():
    with criterion(4, "noisy-backend recovery hits sens 0.95+/-0.03, spec 0.90+/-0.03 on >=18/20 seeds in <60s"):
        started = time.monotonic()
        profile = _profile("diabetes")
        params = GenerationParams()
        passes = 0
        for seed in range(20):
            spec = SynthSpec(n_patients=2000, prevalence={"diabetes": 0.3}, seed=seed)
            patients, labels, notes = synthesize(spec, [profile])
            clean = MockBackend()
            samples = sampled_documents(notes, 60, seed)
            type_profiles = run_profile(samples, [profile], clean, params, parallelism=1)["diabetes"]
            plan = filter_document_types(type_profiles, "q1")
            merged = consolidate(notes, [(plan, profile)])[0]
            noisy = FlippingBackend(fn_rate=0.05, fp_rate=0.10, seed=seed)
            findings = dict(run_detect(
                patients, [(merged, profile)], noisy, params,
                modes=("prompt1",), parallelism=1,
            ))["diabetes"]
            pred = {pid: merge_patient(f.statuses, "prompt1") for pid, f in findings.items()}
            ref = reference_map(labels, "diabetes")
            ms = metrics(confusion(pred, ref))
            if (
                abs(ms.sensitivity.point - 0.95) <= 0.03
                and abs(ms.specificity.point - 0.90) <= 0.03
            ):
                passes += 1
        elapsed = time.monotonic() - started
        assert passes >= 18, f"only {passes}/20 seeds within tolerance"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# 5 -------------------------------------------------------------------------

def test_criterion_5_or_mode_algebra():
    with criterion(5, "merged positives equal prompt1 union prompt2; OR with ICD trades specificity for sensitivity"):
        profile = _profile("diabetes")
        params = GenerationParams()
        spec = SynthSpec(n_patients=300, prevalence={"diabetes": 0.3}, seed=42)
        patients, _, notes = synthesize(spec, [profile])
        plan = FilterPlan(threshold_value=0.0, kept_types=frozenset(HIGH_YIELD_DOC_TYPES))
        merged = consolidate(notes, [(plan, profile)])[0]
        modes = ("prompt1", "prompt2", "merged")
        findings = dict(run_detect(
            patients, [(merged, profile)],
            FlippingBackend(fn_rate=0.2, fp_rate=0.1),
            params, modes=modes, parallelism=1,
        ))["diabetes"]
        positives = {
            mode: {pid for pid, f in findings.items() if merge_patient(f.statuses, mode) == 1}
            for mode in modes
        }
        assert positives["merged"] == positives["prompt1"] | positives["prompt2"]

        rng = random.Random(7)
        for _ in range(100):
            ids = [f"p{i}" for i in range(120)]
            ref = {pid: 1 if i < 40 else 0 for i, pid in enumerate(ids)}
            model = {pid: rng.randint(0, 1) for pid in ids}
            icd = {pid: rng.randint(0, 1) for pid in ids}
            both = combine_or(model, icd)
            ms_model = metrics(confusion(model, ref))
            ms_icd = metrics(confusion(icd, ref))
            ms_both = metrics(confusion(both, ref))
            assert ms_both.sensitivity.point >= ms_model.sensitivity.point
            assert ms_both.sensitivity.point >= ms_icd.sensitivity.point
            assert ms_both.specificity.point <= ms_model.specificity.point
            assert ms_both.specificity.point <= ms_icd.specificity.point


# 6 -------------------------------------------------------------------------

def test_criterion_6_preprocessing_properties():
    with criterion(6, "filter monotone in percentile; keyword sentences in merged text verbatim and in order; full retention when evidence is kept"):
        rng = random.Random(6)
        for _ in range(200):
            profiles = [
                DocTypeProfile(f"T{i}", 20, rng.randint(0, 20))
                for i in range(rng.randint(1, 15))
            ]
            kept_0 = filter_document_types(profiles, 0).kept_types
            kept_q1 = filter_document_types(profiles, "q1").kept_types
            kept_q2 = filter_document_types(profiles, "q2").kept_types
            assert kept_q2 <= kept_q1 <= kept_0

        profile = _profile("diabetes")
        spec = SynthSpec(n_patients=250, prevalence={"diabetes": 0.4}, seed=13)
        _, labels, notes = synthesize(spec, [profile])
        assert len(notes) >= 500
        plan = FilterPlan(threshold_value=0.0, kept_types=frozenset(HIGH_YIELD_DOC_TYPES))
        merged = consolidate(notes, [(plan, profile)])[0]
        # Each merged text is every stripped keyword sentence of the patient's
        # kept-type notes, notes in (timestamp, doc_id) order, joined by spaces.
        pattern = keyword_regex(profile.keywords)
        expected: dict[str, list[str]] = {}
        for doc in sorted(notes, key=lambda d: (d.timestamp, d.doc_id)):
            if doc.doc_type not in plan.kept_types:
                continue
            for start, end in sentence_spans(doc.text):
                sentence = doc.text[start:end].strip()
                if sentence and pattern.search(sentence):
                    expected.setdefault(doc.patient_id, []).append(sentence)
        assert expected
        assert merged == {pid: " ".join(sentences) for pid, sentences in expected.items()}

        positives = {pid for pid, label in reference_map(labels, "diabetes").items() if label == 1}
        assert positive_retention(positives, merged) == 1.0


# 7 -------------------------------------------------------------------------

def test_criterion_7_benchmark_scoring(scripted_backend_cls):
    with criterion(7, "scripted 8/10-correct backend scores exactly 80%; matchers accept their fixtures"):
        questions = builtin_questions()
        for question in questions:
            assert question.grade(question.expected), question.id
        responses = [q.expected for q in questions]
        responses[0] = "Yes, definitely sepsis tests."
        responses[9] = "No diabetes anywhere."
        result = run_benchmark(scripted_backend_cls(responses))
        assert result.accuracy == 0.8
        wrong = {r.question_id for r in result.results if not r.correct}
        assert wrong == {"Q1", "Q10"}


# 8 -------------------------------------------------------------------------

def test_criterion_8_warm_cache_determinism(tmp_path):
    with criterion(8, "warm-cache rerun makes zero backend calls and reproduces byte-identical labels"):
        corpus = tmp_path / "corpus"
        cache = tmp_path / "cache"
        assert main([
            "synth", "--out", str(corpus), "--n-patients", "60",
            "--prevalence", "diabetes=0.3", "--seed", "21",
        ]) == 0
        assert main([
            "profile", "--corpus", str(corpus), "--m", "30", "--seed", "21",
            "--mock", "--out", str(tmp_path / "profile.csv"),
        ]) == 0
        assert main([
            "preprocess", "--corpus", str(corpus),
            "--profile-csv", str(tmp_path / "profile.csv"),
            "--percentile", "q1", "--out", str(tmp_path / "prep"),
        ]) == 0

        def detect(out):
            assert main([
                "detect", "--corpus", str(corpus), "--merged", str(tmp_path / "prep"),
                "--mode", "all", "--condition", "diabetes", "--mock",
                "--cache-dir", str(cache), "--out", str(out),
            ]) == 0
            manifest = json.loads((out / "manifest_detect.json").read_text())
            return manifest["backend_requests"]

        cold_requests = detect(tmp_path / "det1")
        warm_requests = detect(tmp_path / "det2")
        assert cold_requests > 0
        assert warm_requests == 0
        for mode in ("prompt1", "prompt2", "merged"):
            name = f"detect_{mode}_diabetes.jsonl"
            assert (tmp_path / "det1" / name).read_bytes() == (
                tmp_path / "det2" / name
            ).read_bytes()


def test_criterion_8_warm_cache_determinism_parallelism_4(tmp_path):
    """Criterion 8 with four workers writing and reading the cache at once.

    It cannot reach the race of two threads writing one cache key: a stage
    sends each distinct prompt once, so no two of its requests share a key.
    `test_cache_put_same_key_from_many_threads` in test_inference.py guards
    that race."""
    corpus = tmp_path / "corpus"
    cache = tmp_path / "cache"
    assert main([
        "synth", "--out", str(corpus), "--n-patients", "60",
        "--prevalence", "diabetes=0.3", "--seed", "21",
    ]) == 0
    assert main([
        "profile", "--corpus", str(corpus), "--m", "30", "--seed", "21",
        "--mock", "--parallelism", "4", "--out", str(tmp_path / "profile.csv"),
    ]) == 0
    assert main([
        "preprocess", "--corpus", str(corpus),
        "--profile-csv", str(tmp_path / "profile.csv"),
        "--percentile", "q1", "--out", str(tmp_path / "prep"),
    ]) == 0

    def detect(out):
        assert main([
            "detect", "--corpus", str(corpus), "--merged", str(tmp_path / "prep"),
            "--mode", "all", "--condition", "diabetes", "--mock", "--parallelism", "4",
            "--cache-dir", str(cache), "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest_detect.json").read_text())
        return manifest["backend_requests"]

    cold_requests = detect(tmp_path / "det1")
    warm_requests = detect(tmp_path / "det2")
    assert cold_requests > 0
    assert warm_requests == 0
    for mode in ("prompt1", "prompt2", "merged"):
        name = f"detect_{mode}_diabetes.jsonl"
        assert (tmp_path / "det1" / name).read_bytes() == (
            tmp_path / "det2" / name
        ).read_bytes()
