"""Corpus IO validation and deterministic synthetic generation."""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notepheno.corpus import (
    Cohort,
    CorpusError,
    SynthSpec,
    encode_record,
    generate_synthetic,
    load_cohort,
    write_cohort,
)
from notepheno.prompting import builtin_profiles


def _write_lines(path: Path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _valid_files(tmp_path):
    docs = tmp_path / "documents.jsonl"
    pats = tmp_path / "patients.jsonl"
    labs = tmp_path / "labels.jsonl"
    _write_lines(pats, [{"patient_id": "p1", "admit_date": "2015-01-02", "attributes": {"age": "61"}}])
    _write_lines(
        docs,
        [
            {
                "patient_id": "p1",
                "doc_id": "d1",
                "doc_type": "DischargeSummary",
                "timestamp": "2015-01-02T08:00:00",
                "text": "Stable.",
            }
        ],
    )
    _write_lines(labs, [{"patient_id": "p1", "condition": "diabetes", "registry_label": 1, "icd_label": 0}])
    return docs, pats, labs


def test_load_roundtrip(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    cohort = load_cohort(docs, pats, labs)
    assert cohort.patients["p1"].attributes["age"] == "61"
    assert cohort.documents[0].doc_type == "DischargeSummary"
    assert cohort.labels[0].registry_label == 1
    out = tmp_path / "out"
    out.mkdir()
    write_cohort(cohort, out / "d.jsonl", out / "p.jsonl", out / "l.jsonl")
    again = load_cohort(out / "d.jsonl", out / "p.jsonl", out / "l.jsonl")
    assert again == cohort


def test_reference_map_registry_and_icd(tmp_path):
    cohort = load_cohort(*_valid_files(tmp_path))
    assert cohort.reference_map("diabetes") == {"p1": 1}
    assert cohort.reference_map("diabetes", icd=True) == {"p1": 0}


def test_duplicate_doc_id_reports_line(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(docs.read_text().strip())
    _write_lines(docs, [record, record])
    with pytest.raises(CorpusError, match="line 2.*duplicate doc_id"):
        load_cohort(docs, pats, labs)


def test_unknown_patient_in_documents(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(docs.read_text().strip())
    record["patient_id"] = "ghost"
    record["doc_id"] = "d2"
    _write_lines(docs, [record])
    with pytest.raises(CorpusError, match="unknown patient_id 'ghost'"):
        load_cohort(docs, pats, labs)


def test_malformed_json_names_file_and_line(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.write_text("not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="documents.jsonl line 1"):
        load_cohort(docs, pats, labs)


def test_bad_label_value_rejected(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    _write_lines(labs, [{"patient_id": "p1", "condition": "diabetes", "registry_label": 2}])
    with pytest.raises(CorpusError, match="labels must be 0 or 1"):
        load_cohort(docs, pats, labs)


def test_duplicate_label_rejected(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = {"patient_id": "p1", "condition": "diabetes", "registry_label": 1}
    _write_lines(labs, [record, record])
    with pytest.raises(CorpusError, match="duplicate label"):
        load_cohort(docs, pats, labs)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_patients=0, prevalence={"diabetes": 0.3})
    with pytest.raises(ValueError):
        SynthSpec(n_patients=10, prevalence={"diabetes": 1.5})
    with pytest.raises(ValueError):
        SynthSpec(n_patients=10, prevalence={"diabetes": 0.3}, docs_per_patient=(3, 2))


def test_generate_synthetic_deterministic(tmp_path):
    spec = SynthSpec(n_patients=50, prevalence={"diabetes": 0.3, "ami": 0.2}, seed=11)
    profiles = builtin_profiles()
    cohort_a, truth_a = generate_synthetic(spec, profiles)
    cohort_b, truth_b = generate_synthetic(spec, profiles)
    assert truth_a == truth_b
    for name, cohort in (("a", cohort_a), ("b", cohort_b)):
        d = tmp_path / name
        d.mkdir()
        write_cohort(cohort, d / "d.jsonl", d / "p.jsonl", d / "l.jsonl")
    for fname in ("d.jsonl", "p.jsonl", "l.jsonl"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_generate_synthetic_truth_matches_labels():
    spec = SynthSpec(n_patients=200, prevalence={"diabetes": 0.3}, seed=3)
    cohort, truth = generate_synthetic(spec, builtin_profiles())
    assert len(truth) == 200
    for label in cohort.labels:
        assert label.registry_label == truth[label.patient_id][label.condition]
        assert label.icd_label in (0, 1)
    prevalence = sum(t["diabetes"] for t in truth.values()) / 200
    assert 0.15 < prevalence < 0.45


def test_generate_synthetic_positive_patient_has_evidence():
    spec = SynthSpec(n_patients=80, prevalence={"diabetes": 0.5}, seed=5)
    cohort, truth = generate_synthetic(spec, builtin_profiles())
    for pid, per_cond in truth.items():
        if per_cond["diabetes"]:
            text = " ".join(d.text for d in cohort.documents if d.patient_id == pid)
            assert "diabetes" in text.lower()


def test_unread_files_are_neither_required_nor_checked(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.write_text("not json\n", encoding="utf-8")
    labs.unlink()
    cohort = load_cohort(None, pats, None)
    assert list(cohort.patients) == ["p1"]
    assert cohort.documents == () and cohort.labels == ()
    with pytest.raises(CorpusError, match="documents.jsonl line 1"):
        load_cohort(docs, pats, None)


def test_unread_documents_keep_the_label_checks(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.unlink()
    assert load_cohort(None, pats, labs).reference_map("diabetes") == {"p1": 1}
    _write_lines(labs, [{"patient_id": "ghost", "condition": "diabetes", "registry_label": 1}])
    with pytest.raises(CorpusError, match="labels.jsonl line 1: unknown patient_id 'ghost'"):
        load_cohort(None, pats, labs)


_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_numbers = st.one_of(st.none(), st.floats(), st.integers(-10**6, 10**6))
_label_records = st.fixed_dictionaries(
    {
        "patient_id": _texts,
        "condition": _texts,
        "label": st.integers(0, 1),
        "mode": st.sampled_from(["prompt1", "prompt2", "merged"]),
        "evidence_doc_ids": st.lists(_texts, max_size=3),
        "measurements": st.lists(
            st.fixed_dictionaries(
                {
                    "analyte": _texts,
                    "raw_value": _numbers,
                    "raw_unit": st.one_of(st.none(), _texts),
                    "normalized_value": _numbers,
                    "systolic": _numbers,
                    "diastolic": _numbers,
                }
            ),
            max_size=3,
        ),
    }
)


@settings(max_examples=200, deadline=None)
@given(_label_records)
def test_encode_record_matches_json_dumps(record):
    assert encode_record(record) == json.dumps(record, ensure_ascii=False, sort_keys=True)
