"""Cohort data model, line-record corpus IO, and synthetic cohort generation."""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "ClinicalDocument",
    "Patient",
    "ReferenceLabel",
    "Cohort",
    "SynthSpec",
    "CorpusError",
    "load_cohort",
    "write_cohort",
    "generate_synthetic",
    "HIGH_YIELD_DOC_TYPES",
    "LOW_YIELD_DOC_TYPES",
]


class CorpusError(ValueError):
    """A corpus file is malformed or internally inconsistent."""


@dataclass(frozen=True)
class ClinicalDocument:
    """One timestamped note of a named document type belonging to a patient."""

    patient_id: str
    doc_id: str
    doc_type: str
    timestamp: datetime
    text: str


@dataclass(frozen=True)
class Patient:
    patient_id: str
    admit_date: date
    attributes: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ReferenceLabel:
    """Per-patient, per-condition reference standard (registry plus optional ICD)."""

    patient_id: str
    condition: str
    registry_label: int
    icd_label: int | None = None


@dataclass(frozen=True)
class Cohort:
    """Immutable bundle of patients, documents, and reference labels."""

    patients: Mapping[str, Patient]
    documents: tuple[ClinicalDocument, ...]
    labels: tuple[ReferenceLabel, ...]

    @cached_property
    def word_count(self) -> int:
        """Whitespace-separated words over all documents, counted once per cohort."""
        return sum(len(doc.text.split()) for doc in self.documents)

    def reference_map(self, condition: str, *, icd: bool = False) -> dict[str, int]:
        """Per-patient label map for one condition (registry or ICD)."""
        out: dict[str, int] = {}
        for lab in self.labels:
            if lab.condition != condition:
                continue
            value = lab.icd_label if icd else lab.registry_label
            if value is None:
                raise CorpusError(
                    f"patient {lab.patient_id!r} has no ICD label for {condition!r}"
                )
            out[lab.patient_id] = value
        return out


# Default document-type vocabulary shipped with the package. It is a naming
# convention only and is never enforced on ingested corpora.
HIGH_YIELD_DOC_TYPES = (
    "DischargeSummary",
    "CardiacDischarge",
    "TransferSummary",
    "HospitalistSummary",
    "MedicalSummary",
    "InpatientConsult",
)

LOW_YIELD_DOC_TYPES = (
    "SocialWork",
    "BloodLog",
    "PainSummary",
    "AdultTriage",
    "PharmacyPlan",
    "VascularAccess",
)


def _parse_timestamp(raw: str, where: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"{where}: bad timestamp {raw!r}") from exc


def _parse_date(raw: str, where: str) -> date:
    try:
        return datetime.fromisoformat(raw).date()
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"{where}: bad date {raw!r}") from exc


def _parse_line(raw: str, path: Path, lineno: int) -> dict:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path.name} line {lineno}: invalid record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusError(f"{path.name} line {lineno}: record is not an object")
    return record


def _require(record: dict, fields: Iterable[str], path: Path, lineno: int) -> None:
    for name in fields:
        if name not in record or record[name] in (None, ""):
            raise CorpusError(f"{path.name} line {lineno}: missing field {name!r}")


def _iter_lines(path: Path):
    with path.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if raw:
                yield lineno, raw


def load_cohort(documents_path, patients_path, labels_path) -> Cohort:
    """Load and cross-validate a corpus from its line-record files.

    The patients file is always read: its ids are the ones that documents and
    labels must name. A `documents_path` or `labels_path` of None leaves that
    file unread and that part of the cohort empty.
    """
    patients = _load_patients(Path(patients_path))
    documents = () if documents_path is None else _load_documents(Path(documents_path), patients)
    labels = () if labels_path is None else _load_labels(Path(labels_path), patients)
    return Cohort(patients=patients, documents=documents, labels=labels)


def _load_patients(patients_path: Path) -> dict[str, Patient]:
    patients: dict[str, Patient] = {}
    for lineno, raw in _iter_lines(patients_path):
        record = _parse_line(raw, patients_path, lineno)
        _require(record, ("patient_id", "admit_date"), patients_path, lineno)
        pid = str(record["patient_id"])
        if pid in patients:
            raise CorpusError(f"{patients_path.name} line {lineno}: duplicate patient_id {pid!r}")
        attributes = record.get("attributes") or {}
        if not isinstance(attributes, dict):
            raise CorpusError(f"{patients_path.name} line {lineno}: attributes must be a map")
        patients[pid] = Patient(
            patient_id=pid,
            admit_date=_parse_date(record["admit_date"], f"{patients_path.name} line {lineno}"),
            attributes={str(k): str(v) for k, v in attributes.items()},
        )
    return patients


def _load_documents(
    documents_path: Path, patients: Mapping[str, Patient]
) -> tuple[ClinicalDocument, ...]:
    documents: list[ClinicalDocument] = []
    seen_doc_ids: set[str] = set()
    for lineno, raw in _iter_lines(documents_path):
        record = _parse_line(raw, documents_path, lineno)
        _require(record, ("patient_id", "doc_id", "doc_type", "timestamp"), documents_path, lineno)
        pid = str(record["patient_id"])
        doc_id = str(record["doc_id"])
        if doc_id in seen_doc_ids:
            raise CorpusError(f"{documents_path.name} line {lineno}: duplicate doc_id {doc_id!r}")
        if pid not in patients:
            raise CorpusError(
                f"{documents_path.name} line {lineno}: unknown patient_id {pid!r}"
            )
        seen_doc_ids.add(doc_id)
        documents.append(
            ClinicalDocument(
                patient_id=pid,
                doc_id=doc_id,
                doc_type=str(record["doc_type"]),
                timestamp=_parse_timestamp(record["timestamp"], f"{documents_path.name} line {lineno}"),
                text=str(record.get("text", "")),
            )
        )
    return tuple(documents)


def _load_labels(labels_path: Path, patients: Mapping[str, Patient]) -> tuple[ReferenceLabel, ...]:
    labels: list[ReferenceLabel] = []
    seen_label_keys: set[tuple[str, str]] = set()
    for lineno, raw in _iter_lines(labels_path):
        record = _parse_line(raw, labels_path, lineno)
        _require(record, ("patient_id", "condition"), labels_path, lineno)
        if "registry_label" not in record:
            raise CorpusError(f"{labels_path.name} line {lineno}: missing field 'registry_label'")
        pid = str(record["patient_id"])
        condition = str(record["condition"])
        if pid not in patients:
            raise CorpusError(f"{labels_path.name} line {lineno}: unknown patient_id {pid!r}")
        key = (pid, condition)
        if key in seen_label_keys:
            raise CorpusError(
                f"{labels_path.name} line {lineno}: duplicate label for {pid!r}/{condition!r}"
            )
        seen_label_keys.add(key)
        registry = record["registry_label"]
        icd = record.get("icd_label")
        if registry not in (0, 1) or icd not in (None, 0, 1):
            raise CorpusError(f"{labels_path.name} line {lineno}: labels must be 0 or 1")
        labels.append(ReferenceLabel(pid, condition, int(registry), None if icd is None else int(icd)))
    return tuple(labels)


# The one encoder of every line record the package writes: `json.dumps` with
# these options gives the same text but builds a new encoder per record.
encode_record = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_cohort(cohort: Cohort, documents_path, patients_path, labels_path) -> None:
    """Write a cohort back to the three-file line-record format."""
    with Path(patients_path).open("w", encoding="utf-8") as handle:
        for pid in sorted(cohort.patients):
            patient = cohort.patients[pid]
            handle.write(
                encode_record(
                    {
                        "patient_id": patient.patient_id,
                        "admit_date": patient.admit_date.isoformat(),
                        "attributes": dict(patient.attributes),
                    }
                )
                + "\n"
            )
    with Path(documents_path).open("w", encoding="utf-8") as handle:
        for doc in cohort.documents:
            handle.write(
                encode_record(
                    {
                        "patient_id": doc.patient_id,
                        "doc_id": doc.doc_id,
                        "doc_type": doc.doc_type,
                        "timestamp": doc.timestamp.isoformat(),
                        "text": doc.text,
                    }
                )
                + "\n"
            )
    with Path(labels_path).open("w", encoding="utf-8") as handle:
        for label in cohort.labels:
            record = {
                "patient_id": label.patient_id,
                "condition": label.condition,
                "registry_label": label.registry_label,
            }
            if label.icd_label is not None:
                record["icd_label"] = label.icd_label
            handle.write(encode_record(record) + "\n")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for deterministic synthetic-cohort generation."""

    n_patients: int
    prevalence: Mapping[str, float]
    docs_per_patient: tuple[int, int] = (2, 4)
    evidence_fraction_in_kept_types: float = 1.0
    distractor_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        for condition, frac in self.prevalence.items():
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"prevalence for {condition!r} must be in [0, 1]")
        lo, hi = self.docs_per_patient
        if lo < 1 or hi < lo:
            raise ValueError("docs_per_patient must be a nonempty ascending range")
        if not 0.0 <= self.evidence_fraction_in_kept_types <= 1.0:
            raise ValueError("evidence_fraction_in_kept_types must be in [0, 1]")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ValueError("distractor_rate must be in [0, 1]")


_DISTRACTOR_SENTENCES = (
    "Vital signs stable throughout the shift.",
    "Diet and activity as tolerated.",
    "Follow-up arranged with family physician.",
    "No acute distress noted on examination.",
    "Physiotherapy consulted for mobility.",
)

_DIAGNOSIS_SENTENCES = {
    "ami": "Diagnosed with acute myocardial infarction (stemi) during this admission.",
    "diabetes": "Known type 2 diabetes, continues metformin daily.",
    "hypertension": "Longstanding hypertension treated with ramipril.",
}


def _lab_sentence(rule, rng: random.Random, positive: bool) -> str:
    if rule.analyte == "glucose":
        if positive:
            value = round(rng.uniform(rule.threshold + 0.9, rule.threshold + 18.0), 1)
        else:
            value = round(rng.uniform(4.0, 9.0), 1)
        return f"glucose - mmol/l random : {value} mmol/l."
    if rule.analyte == "troponin":
        value = round(rng.uniform(25.0, 400.0), 1) if positive else round(rng.uniform(2.0, 12.0), 1)
        return f"troponin level: {value} ng/L."
    if rule.analyte == "blood_pressure":
        if positive:
            sys_v, dia_v = rng.randint(145, 195), rng.randint(92, 112)
        else:
            sys_v, dia_v = rng.randint(104, 134), rng.randint(62, 84)
        return f"blood pressure systolic : {sys_v} diastolic : {dia_v}."
    raise ValueError(f"unknown analyte {rule.analyte!r}")


def generate_synthetic(spec: SynthSpec, profiles) -> tuple[Cohort, dict[str, dict[str, int]]]:
    """Generate a deterministic synthetic cohort and its planted truth.

    Positive patients receive at least one document carrying condition evidence
    (a diagnosis sentence, sometimes also an over-threshold lab sentence),
    placed in a high-yield document type with probability
    ``evidence_fraction_in_kept_types``. Every document opens with a baseline
    sentence that matches generic keywords, so every patient owns extractable
    text regardless of status.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    rng = random.Random(spec.seed)
    patients: dict[str, Patient] = {}
    documents: list[ClinicalDocument] = []
    labels: list[ReferenceLabel] = []
    truth: dict[str, dict[str, int]] = {}

    for i in range(spec.n_patients):
        pid = f"P{i:05d}"
        admit = date(2015, 1, 1) + timedelta(days=rng.randrange(365))
        age = rng.randint(35, 90)
        attributes = {
            "sex": rng.choice(["M", "F"]),
            "age": str(age),
            "length_of_stay": str(round(rng.uniform(1.0, 14.0), 1)),
        }
        patients[pid] = Patient(pid, admit, attributes)

        n_docs = rng.randint(*spec.docs_per_patient)
        doc_plans: list[tuple[str, list[str]]] = []
        for j in range(n_docs):
            # First document is always a high-yield type so evidence can land there.
            doc_type = (
                rng.choice(HIGH_YIELD_DOC_TYPES)
                if j == 0
                else rng.choice(HIGH_YIELD_DOC_TYPES + LOW_YIELD_DOC_TYPES)
            )
            sentences = [
                f"Patient age {age}, weight {rng.randint(50, 110)} kg, medication list reviewed."
            ]
            if rng.random() < spec.distractor_rate:
                sentences.append(rng.choice(_DISTRACTOR_SENTENCES))
            doc_plans.append((doc_type, sentences))

        truth[pid] = {}
        for profile in profiles:
            positive = rng.random() < spec.prevalence.get(profile.name, 0.0)
            truth[pid][profile.name] = int(positive)
            if positive:
                high_idx = [k for k, (t, _) in enumerate(doc_plans) if t in HIGH_YIELD_DOC_TYPES]
                low_idx = [k for k, (t, _) in enumerate(doc_plans) if t not in HIGH_YIELD_DOC_TYPES]
                if rng.random() < spec.evidence_fraction_in_kept_types:
                    target = rng.choice(high_idx)
                else:
                    if not low_idx:
                        doc_plans.append(
                            (
                                rng.choice(LOW_YIELD_DOC_TYPES),
                                [f"Patient age {age}, medication list reviewed."],
                            )
                        )
                        low_idx = [len(doc_plans) - 1]
                    target = rng.choice(low_idx)
                diagnosis = _DIAGNOSIS_SENTENCES.get(
                    profile.name, f"Documented diagnosis of {profile.name}."
                )
                doc_plans[target][1].append(diagnosis)
                if rng.random() < 0.5:
                    doc_plans[target][1].append(_lab_sentence(profile.rule, rng, positive=True))
            elif rng.random() < 0.25:
                k = rng.randrange(len(doc_plans))
                doc_plans[k][1].append(_lab_sentence(profile.rule, rng, positive=False))

        for j, (doc_type, sentences) in enumerate(doc_plans):
            timestamp = datetime.combine(admit, time(6, 0)) + timedelta(
                hours=rng.randint(0, 72), minutes=rng.randint(0, 59)
            )
            documents.append(
                ClinicalDocument(pid, f"{pid}-D{j:02d}", doc_type, timestamp, " ".join(sentences))
            )

        for profile in profiles:
            value = truth[pid][profile.name]
            roll = rng.random()
            icd = value
            if value == 1 and roll < 0.15:
                icd = 0
            elif value == 0 and roll < 0.05:
                icd = 1
            labels.append(ReferenceLabel(pid, profile.name, value, icd))

    cohort = Cohort(patients=patients, documents=tuple(documents), labels=tuple(labels))
    return cohort, truth
