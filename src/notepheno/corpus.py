"""Corpus records, line-record corpus IO, and synthetic cohort generation."""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
from datetime import date, datetime, time, timedelta
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "ClinicalDocument",
    "Patient",
    "ReferenceLabel",
    "SynthSpec",
    "CorpusError",
    "load_patients",
    "load_labels",
    "iter_documents",
    "reference_map",
    "write_cohort",
    "generate_synthetic",
    "HIGH_YIELD_DOC_TYPES",
    "LOW_YIELD_DOC_TYPES",
]


class CorpusError(ValueError):
    """A corpus file is malformed or internally inconsistent."""


class Checked:
    """The base of a record that checks its fields: a named tuple whose
    `_check` runs on every construction. The generated `_make`, and so
    `_replace`, would build the tuple without calling `__new__`, so `_make`
    goes through the constructor too.

        class _Fields(NamedTuple): ...
        class Record(Checked, _Fields):
            __slots__ = ()
            def _check(self) -> None: ...  # raises ValueError
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# The package's records are named tuples, not dataclasses: a frozen
# dataclass's `__init__` costs more than twice as much per record, and
# importing `dataclasses` (and `inspect` under it) costs every stage process
# at start-up.
class ClinicalDocument(NamedTuple):
    """One timestamped note of a named document type belonging to a patient."""

    patient_id: str
    doc_id: str
    doc_type: str
    timestamp: datetime
    text: str


class Patient(NamedTuple):
    patient_id: str
    admit_date: date
    attributes: Mapping[str, object] = MappingProxyType({})  # each value as the JSON gives it


class ReferenceLabel(NamedTuple):
    """Per-patient, per-condition reference standard (registry plus optional ICD)."""

    patient_id: str
    condition: str
    registry_label: int
    icd_label: int | None = None


def reference_map(labels: Iterable[ReferenceLabel], condition: str, *, icd: bool = False) -> dict[str, int]:
    """Per-patient label map for one condition (registry or ICD)."""
    out: dict[str, int] = {}
    for lab in labels:
        if lab.condition != condition:
            continue
        value = lab.icd_label if icd else lab.registry_label
        if value is None:
            raise CorpusError(f"patient {lab.patient_id!r} has no ICD label for {condition!r}")
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


def _parse_date(raw: str, path: Path, lineno: int) -> date:
    try:
        return datetime.fromisoformat(raw).date()
    except ValueError as exc:
        raise CorpusError(f"{path.name} line {lineno}: bad date {raw!r}") from exc


# The C scanner under `json.loads`, called directly: it skips the whitespace
# and trailing-data checks, so a line it does not read to its end goes to
# `json.loads` for the record or the error.
_scan_once = json.JSONDecoder().scan_once
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _parse_line(raw: str, path: Path, lineno: int) -> dict:
    try:
        record, end = _scan_once(raw, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(raw):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path.name} line {lineno}: invalid record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusError(f"{path.name} line {lineno}: record is not an object")
    # An unpaired \uD800-\uDFFF escape decodes to a string no stage can write
    # back. The package writes no such escapes, so other lines skip the check.
    if "\\u" in raw and _SURROGATE_ESCAPE.search(raw):
        try:
            encode_record(record).encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"{path.name} line {lineno}: record holds an unpaired surrogate") from None
    return record


def _records(path, fields: Sequence[str], only: Collection[int] | None = None):
    """Yield `(lineno, record, values)` for each non-blank line of the
    line-record file at `path`: its JSON object and the values of `fields`
    (two or more), each a nonempty string. A line that is not an object, or
    whose value of a field is absent, null, empty or not a string, raises
    CorpusError naming the file, the line and the first such field. With
    `only`, a collection of record positions (0 for the first non-blank
    line), the other lines are skipped unparsed."""
    path = Path(path)
    values_of = itemgetter(*fields)  # a C call per record, where `map(record.get, …)` costs 4x
    with path.open(encoding="utf-8") as handle:
        position = -1
        for lineno, raw in enumerate(handle, start=1):
            if raw.isspace():
                continue
            position += 1
            if only is not None and position not in only:
                continue
            raw = raw.strip()
            record = _parse_line(raw, path, lineno)
            try:
                values = values_of(record)
            except KeyError:
                values = (None,)
            for value in values:
                if type(value) is not str or not value:
                    name, value = next((name, record.get(name)) for name in fields
                                       if type(record.get(name)) is not str or not record[name])
                    complaint = (f"missing field {name!r}" if value in (None, "")
                                 else f"{name} must be a string, got {value!r}")
                    raise CorpusError(f"{path.name} line {lineno}: {complaint}")
            yield lineno, record, values


def load_patients(patients_path) -> dict[str, Patient]:
    """The patients of a patients file, by id: the ids that notes and labels must name."""
    patients_path = Path(patients_path)
    patients: dict[str, Patient] = {}
    for lineno, record, (pid, admit) in _records(patients_path, ("patient_id", "admit_date")):
        if pid in patients:
            raise CorpusError(f"{patients_path.name} line {lineno}: duplicate patient_id {pid!r}")
        attributes = record.get("attributes") or {}
        if not isinstance(attributes, dict):
            raise CorpusError(f"{patients_path.name} line {lineno}: attributes must be a map")
        patients[pid] = Patient(pid, _parse_date(admit, patients_path, lineno), attributes)
    return patients


# The name the benchmark's tracer (perfbench/tracing.py) wraps to time the
# corpus load; it goes when that target list names `load_patients`.
load_cohort = load_patients


def iter_documents(
    documents_path, patients: Mapping[str, Patient], only: Collection[int] | None = None
) -> Iterator[ClinicalDocument]:
    """Yield the documents of a documents file in file order: the package's
    one reader of notes. Each line is checked as it is read: a missing or
    non-string field, a `doc_id` seen on an earlier line, a `patient_id` not
    in `patients`, a bad timestamp, one with a UTC offset where the file's
    first has none (or the reverse), a `text` that is not a string (an absent
    one is an empty note) or an unpaired surrogate raises CorpusError naming
    the file and the line.

    With `only`, a collection of document positions (0 for the file's first
    document), only those lines are parsed, checked and yielded: a second
    pass over a file whose every line a first pass has checked.
    """
    path = Path(documents_path)
    seen_doc_ids: set[str] = set()
    aware = None  # whether the file's timestamps carry a UTC offset, as its first one read does
    fields = ("patient_id", "doc_id", "doc_type", "timestamp")
    for lineno, record, (pid, doc_id, doc_type, timestamp) in _records(path, fields, only):
        if doc_id in seen_doc_ids:
            raise CorpusError(f"{path.name} line {lineno}: duplicate doc_id {doc_id!r}")
        if pid not in patients:
            raise CorpusError(f"{path.name} line {lineno}: unknown patient_id {pid!r}")
        seen_doc_ids.add(doc_id)
        try:
            when = datetime.fromisoformat(timestamp)
        except ValueError as exc:
            raise CorpusError(f"{path.name} line {lineno}: bad timestamp {timestamp!r}") from exc
        if aware is None:
            aware = when.tzinfo is not None
        elif aware != (when.tzinfo is not None):
            raise CorpusError(f"{path.name} line {lineno}: timestamp {timestamp!r} {'lacks' if aware else 'has'} "
                              "a UTC offset, unlike the file's first timestamp")
        text = record.get("text", "")
        if not isinstance(text, str):
            raise CorpusError(f"{path.name} line {lineno}: text must be a string, got {text!r}")
        # `tuple.__new__` skips the named tuple's Python-level `__new__`, about
        # a fifth of the cost of checking and building a document
        yield tuple.__new__(ClinicalDocument, (pid, doc_id, doc_type, when, text))


def _is_label(value) -> bool:
    """Whether `value` is a label: the JSON integer 0 or 1, not `true` or `1.0`."""
    return type(value) is int and value in (0, 1)


def load_labels(labels_path, patients: Mapping[str, Patient]) -> tuple[ReferenceLabel, ...]:
    """The reference labels of a labels file, each naming one of `patients`."""
    labels_path = Path(labels_path)
    labels: list[ReferenceLabel] = []
    seen_label_keys: set[tuple[str, str]] = set()
    for lineno, record, (pid, condition) in _records(labels_path, ("patient_id", "condition")):
        if "registry_label" not in record:
            raise CorpusError(f"{labels_path.name} line {lineno}: missing field 'registry_label'")
        if pid not in patients:
            raise CorpusError(f"{labels_path.name} line {lineno}: unknown patient_id {pid!r}")
        key = (pid, condition)
        if key in seen_label_keys:
            raise CorpusError(f"{labels_path.name} line {lineno}: duplicate label for {pid!r}/{condition!r}")
        seen_label_keys.add(key)
        registry = record["registry_label"]
        icd = record.get("icd_label")
        if not (_is_label(registry) and (icd is None or _is_label(icd))):
            raise CorpusError(f"{labels_path.name} line {lineno}: labels must be 0 or 1")
        labels.append(ReferenceLabel(pid, condition, registry, icd))
    return tuple(labels)


# The one encoder of every line record the package writes: `json.dumps` with
# these options gives the same text but builds a new encoder per record. The
# records are trees the package has just built, so no cycle check is needed.
encode_record = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False).encode


def _atomic_write(files: Iterable[tuple[Path, Iterable[str] | Callable[[dict], Iterable[str]]]]) -> None:
    """Write the parts of each `(path, parts)` of `files` in turn to a file
    beside its path, drawing a pair only once the file before it is written,
    then rename every file into place, so a failure leaves each earlier file
    at those paths whole and no temporary file behind.

    Each file is hashed as its parts are written, with no second read. Parts
    that are a callable, as a manifest's are, are drawn by calling it with
    the `{file name: sha256}` of the files written before it."""
    written: list[tuple[Path, Path]] = []
    digests: dict[str, str] = {}
    try:
        for path, parts in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            written.append((path.with_name(path.name + ".tmp"), path))
            digest = hashlib.sha256()
            with written[-1][0].open("wb") as handle:
                for data in map(str.encode, parts(digests) if callable(parts) else parts):
                    digest.update(data)
                    handle.write(data)
            digests[path.name] = digest.hexdigest()
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            tmp.unlink(missing_ok=True)
        raise


def write_cohort(notes: Iterable[ClinicalDocument], patients: Mapping[str, Patient],
                 labels: Iterable[ReferenceLabel], documents_path, patients_path, labels_path,
                 *more: tuple[Path, Iterable[str]]) -> None:
    """Write a corpus in the three-file line-record format: the documents
    file as `notes` arrive, then `patients`, by id, and `labels`, then the
    parts of each `(path, parts)` of `more`. The patients, labels and `more`
    are read only once every note is written, so a caller that draws them
    with their notes can fill them as they stream. All the files replace any
    earlier ones together, once all are written.

    Each line is built from its kind's template, keys in sorted order, and
    equals `encode_record` of the record's dict plus a newline."""
    documents = (
        f'{{"doc_id": {encode_basestring(doc.doc_id)}, "doc_type": {encode_basestring(doc.doc_type)}, '
        f'"patient_id": {encode_basestring(doc.patient_id)}, "text": {encode_basestring(doc.text)}, '
        f'"timestamp": {encode_basestring(doc.timestamp.isoformat())}}}\n'
        for doc in notes
    )

    def patient_lines():  # a generator body, so the patients are sorted only once they are read
        for _, patient in sorted(patients.items()):
            yield (f'{{"admit_date": {encode_basestring(patient.admit_date.isoformat())}, '
                   f'"attributes": {encode_record(dict(patient.attributes))}, '
                   f'"patient_id": {encode_basestring(patient.patient_id)}}}\n')

    def label_lines():
        for label in labels:
            icd = "" if label.icd_label is None else f'"icd_label": {label.icd_label}, '
            yield (f'{{"condition": {encode_basestring(label.condition)}, {icd}'
                   f'"patient_id": {encode_basestring(label.patient_id)}, '
                   f'"registry_label": {label.registry_label}}}\n')

    _atomic_write([(Path(documents_path), documents), (Path(patients_path), patient_lines()),
                   (Path(labels_path), label_lines()), *more])


class _SynthSpecFields(NamedTuple):
    n_patients: int
    prevalence: Mapping[str, float]
    docs_per_patient: tuple[int, int] = (2, 4)
    seed: int = 0


class SynthSpec(Checked, _SynthSpecFields):
    """Parameters for deterministic synthetic-cohort generation."""

    __slots__ = ()

    def _check(self) -> None:
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        for condition, frac in self.prevalence.items():
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"prevalence for {condition!r} must be in [0, 1]")
        lo, hi = self.docs_per_patient
        if lo < 1 or hi < lo:
            raise ValueError("docs_per_patient must be a nonempty ascending range")


_DISTRACTOR_RATE = 0.3  # share of documents given one distractor sentence
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
            sys_v, dia_v = rng.randrange(145, 196), rng.randrange(92, 113)
        else:
            sys_v, dia_v = rng.randrange(104, 135), rng.randrange(62, 85)
        return f"blood pressure systolic : {sys_v} diastolic : {dia_v}."
    raise ValueError(f"unknown analyte {rule.analyte!r}")


def generate_synthetic(spec: SynthSpec, profiles) -> Iterator[tuple[Patient, list, list]]:
    """Draw a deterministic synthetic cohort one patient at a time, yielding
    per patient in id order `(patient, notes, labels)`: its
    `ClinicalDocument`s and its `ReferenceLabel`s, whose registry label is
    the planted truth.

    Positive patients receive condition evidence (a diagnosis sentence,
    sometimes also an over-threshold lab sentence) in one high-yield document.
    Every document opens with a baseline sentence that matches generic
    keywords, so every patient owns extractable text regardless of status.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    rng = random.Random(spec.seed)
    docs_min, docs_max = spec.docs_per_patient
    all_doc_types = HIGH_YIELD_DOC_TYPES + LOW_YIELD_DOC_TYPES

    for i in range(spec.n_patients):
        pid = f"P{i:05d}"
        admit = date(2015, 1, 1) + timedelta(days=rng.randrange(365))
        age = rng.randrange(35, 91)
        attributes = {
            "sex": rng.choice(["M", "F"]),
            "age": str(age),
            "length_of_stay": str(round(rng.uniform(1.0, 14.0), 1)),
        }
        patient = Patient(pid, admit, attributes)

        n_docs = rng.randrange(docs_min, docs_max + 1)
        doc_plans: list[tuple[str, list[str]]] = []
        for j in range(n_docs):
            # First document is always a high-yield type so evidence can land there.
            doc_type = rng.choice(HIGH_YIELD_DOC_TYPES if j == 0 else all_doc_types)
            sentences = [
                f"Patient age {age}, weight {rng.randrange(50, 111)} kg, medication list reviewed."
            ]
            if rng.random() < _DISTRACTOR_RATE:
                sentences.append(rng.choice(_DISTRACTOR_SENTENCES))
            doc_plans.append((doc_type, sentences))

        truth = {}
        for profile in profiles:
            positive = rng.random() < spec.prevalence.get(profile.name, 0.0)
            truth[profile.name] = int(positive)
            if positive:
                high_idx = [k for k, (t, _) in enumerate(doc_plans) if t in HIGH_YIELD_DOC_TYPES]
                rng.random()  # an unused draw, kept so that seeded cohorts stay the same
                target = rng.choice(high_idx)
                diagnosis = _DIAGNOSIS_SENTENCES.get(
                    profile.name, f"Documented diagnosis of {profile.name}."
                )
                doc_plans[target][1].append(diagnosis)
                if rng.random() < 0.5:
                    doc_plans[target][1].append(_lab_sentence(profile.rule, rng, positive=True))
            elif rng.random() < 0.25:
                k = rng.randrange(len(doc_plans))
                doc_plans[k][1].append(_lab_sentence(profile.rule, rng, positive=False))

        notes = []
        morning = datetime.combine(admit, time(6, 0))
        for j, (doc_type, sentences) in enumerate(doc_plans):
            timestamp = morning + timedelta(hours=rng.randrange(73), minutes=rng.randrange(60))
            notes.append(ClinicalDocument(pid, f"{pid}-D{j:02d}", doc_type, timestamp, " ".join(sentences)))

        labels = []
        for profile in profiles:
            value = truth[profile.name]
            roll = rng.random()
            icd = value
            if value == 1 and roll < 0.15:
                icd = 0
            elif value == 0 and roll < 0.05:
                icd = 1
            labels.append(ReferenceLabel(pid, profile.name, value, icd))
        yield patient, notes, labels
