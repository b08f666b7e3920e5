"""The corpus, truth, label and merged files: each line built from its
file's template is `encode_record` of the record the stage used to build and
encode whole."""
import argparse
import tempfile
from datetime import timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notepheno import cli
from notepheno.adjudication import MODE_PATHS, Findings, InferredStatus, LabMeasurement, merge_patient
from notepheno.cli import _detect_texts, _label_lines, _merged_lines
from notepheno.cli import _read_profile_csv, main, run_detect
from notepheno.corpus import ClinicalDocument, Patient, ReferenceLabel, encode_record, iter_documents, load_patients
from notepheno.inference import GenerationParams, MockBackend
from notepheno.preprocess import consolidate, filter_document_types
from notepheno.prompting import builtin_profiles


# -- the record dicts the stages encoded whole, kept as the reference --------

def _label_record(pid: str, condition: str, mode: str, found: Findings) -> dict:
    return {
        "patient_id": pid,
        "condition": condition,
        "label": merge_patient(found.statuses, mode),
        "mode": mode,
        "measurements": [
            {
                "analyte": m.analyte,
                "raw_value": m.raw_value,
                "raw_unit": m.raw_unit,
                "normalized_value": m.normalized_value,
                "systolic": m.systolic,
                "diastolic": m.diastolic,
            }
            for m in (found.measurements if "extraction" in MODE_PATHS[mode] else ())
        ],
    }


def _label_file(condition: str, mode: str, findings) -> str:
    return "".join(
        encode_record(_label_record(pid, condition, mode, findings[pid])) + "\n" for pid in sorted(findings)
    )


def _merged_file(condition: str, merged) -> str:
    return "".join(
        encode_record({"patient_id": pid, "text": merged[pid], "condition": condition}) + "\n"
        for pid in sorted(merged)
    )


def _encoded(records) -> str:
    return "".join(encode_record(record) + "\n" for record in records)


def _cohort_files(drawn) -> dict[str, str]:
    """The four files synth wrote of a drawn cohort, from the records it built."""
    labels = [label for _, _, patient_labels in drawn for label in patient_labels]
    return {
        "documents.jsonl": _encoded(
            {"patient_id": doc.patient_id, "doc_id": doc.doc_id, "doc_type": doc.doc_type,
             "timestamp": doc.timestamp.isoformat(), "text": doc.text}
            for _, notes, _ in drawn for doc in notes
        ),
        "patients.jsonl": _encoded(
            {"patient_id": patient.patient_id, "admit_date": patient.admit_date.isoformat(),
             "attributes": dict(patient.attributes)}
            for patient, _, _ in sorted(drawn, key=lambda each: each[0].patient_id)
        ),
        "labels.jsonl": _encoded(
            {"patient_id": label.patient_id, "condition": label.condition, "registry_label": label.registry_label,
             **({} if label.icd_label is None else {"icd_label": label.icd_label})}
            for label in labels
        ),
        "truth.jsonl": _encoded(
            {"patient_id": label.patient_id, "condition": label.condition, "label": label.registry_label}
            for label in sorted(labels)
        ),
    }


# -- property tests ----------------------------------------------------------

# quotes, backslashes, control characters and characters outside the Basic
# Multilingual Plane, among any others a JSON string can hold
_awkward = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", " ", "é", "\U0001f600", "\U0010ffff"])
_texts = st.lists(
    st.one_of(_awkward, st.characters(blacklist_categories=("Cs",))), max_size=10
).map("".join)
_values = st.one_of(st.none(), st.floats(), st.integers(-10**6, 10**6).map(float))
_measurements = st.builds(LabMeasurement, _texts, _values, _texts, _values, _values, _values)
_statuses = st.dictionaries(st.sampled_from(["inference", "extraction"]), st.sampled_from(list(InferredStatus)))
_findings = st.dictionaries(
    _texts, st.builds(Findings, _statuses, st.lists(_measurements, max_size=3).map(tuple)), max_size=5
)


@settings(max_examples=150, deadline=None)
@given(_texts, st.sampled_from(list(MODE_PATHS)), _findings)
def test_a_label_line_is_encode_record_of_its_record(condition, mode, findings):
    assert "".join(_label_lines(condition, mode, findings)) == _label_file(condition, mode, findings)


@settings(max_examples=150, deadline=None)
@given(_texts, st.dictionaries(_texts, _texts, max_size=5))
def test_a_merged_line_is_encode_record_of_its_record(condition, merged):
    assert "".join(_merged_lines(condition, merged)) == _merged_file(condition, merged)


# naive and UTC-offset timestamps, with microseconds
_timestamps = st.datetimes(timezones=st.sampled_from(
    [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(-timedelta(hours=3))]
))
# any JSON value, nested or null
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _texts),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_texts, inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def _drawn_cohorts(draw):
    """What `generate_synthetic` yields: per patient, `(patient, notes, labels)`."""
    drawn = []
    for pid in draw(st.lists(_texts, unique=True, max_size=4)):
        patient = Patient(pid, draw(st.dates()), draw(st.dictionaries(_texts, _json, max_size=4)))
        notes = draw(st.lists(st.builds(ClinicalDocument, st.just(pid), _texts, _texts, _timestamps, _texts),
                              max_size=3))
        labels = draw(st.lists(
            st.builds(ReferenceLabel, st.just(pid), _texts, st.sampled_from([0, 1]), st.sampled_from([None, 0, 1])),
            max_size=3, unique_by=lambda label: label.condition,
        ))
        drawn.append((patient, notes, labels))
    return drawn


@settings(max_examples=150, deadline=None)
@given(_drawn_cohorts())
def test_every_synth_line_is_encode_record_of_its_record(drawn):
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "generate_synthetic", lambda spec, profiles: iter(drawn)):
        assert main(["synth", "--out", out, "--n-patients", "1", "--condition", "ami",
                     "--prevalence", "ami=0.5"]) == 0
        written = {name: (Path(out) / name).read_bytes().decode("utf-8") for name in _cohort_files(drawn)}
    assert written == _cohort_files(drawn)


# -- whole files -------------------------------------------------------------

@pytest.fixture(scope="module")
def seeded_run(tmp_path_factory):
    """A seeded synth -> profile -> preprocess -> detect run, with detect
    both on the merged files and on the raw notes."""
    root = tmp_path_factory.mktemp("writers")
    corpus = str(root / "corpus")
    for argv in (
        ["synth", "--out", corpus, "--n-patients", "60", "--prevalence", "ami=0.2",
         "--prevalence", "diabetes=0.3", "--prevalence", "hypertension=0.35", "--seed", "7"],
        ["profile", "--corpus", corpus, "--m", "40", "--mock", "--out", str(root / "profile.csv")],
        ["preprocess", "--corpus", corpus, "--profile-csv", str(root / "profile.csv"),
         "--out", str(root / "prep")],
        ["detect", "--corpus", corpus, "--merged", str(root / "prep"), "--mode", "all", "--mock",
         "--out", str(root / "det")],
        ["detect", "--corpus", corpus, "--no-preprocess", "--mode", "all", "--mock",
         "--out", str(root / "raw")],
    ):
        assert main(argv) == 0
    return root


def test_preprocess_writes_the_merged_files_of_its_records(seeded_run):
    corpus = seeded_run / "corpus"
    notes = iter_documents(corpus / "documents.jsonl", load_patients(corpus / "patients.jsonl"))
    profiles = builtin_profiles()
    selected = [
        (filter_document_types(_read_profile_csv(seeded_run / "profile.csv")[p.name], "q1"), p)
        for p in profiles
    ]
    for profile, merged in zip(profiles, consolidate(notes, selected)):
        assert merged  # else the comparison proves little
        written = (seeded_run / "prep" / f"merged_{profile.name}.jsonl").read_text(encoding="utf-8")
        assert written == _merged_file(profile.name, merged)


@pytest.mark.parametrize("no_preprocess, out", [(False, "det"), (True, "raw")])
def test_detect_writes_the_label_files_of_its_records(seeded_run, no_preprocess, out):
    corpus = seeded_run / "corpus"
    patients = load_patients(corpus / "patients.jsonl")
    profiles = builtin_profiles()
    args = argparse.Namespace(no_preprocess=no_preprocess, merged=str(seeded_run / "prep"), corpus=seeded_run / "corpus")
    texts = _detect_texts(args, patients, [p.name for p in profiles])
    measured = 0
    for condition, findings in run_detect(
        patients, list(zip(texts, profiles)), MockBackend(), GenerationParams(), modes=tuple(MODE_PATHS)
    ):
        measured += sum(bool(found.measurements) for found in findings.values())
        for mode in MODE_PATHS:
            written = (seeded_run / out / f"detect_{mode}_{condition}.jsonl").read_text(encoding="utf-8")
            assert written == _label_file(condition, mode, findings)
    assert measured  # some lines carry measurements
