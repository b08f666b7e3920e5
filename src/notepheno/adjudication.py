"""Response parsing, clinical threshold rules, and per-patient label merging."""
from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .prompting import _ANALYTES, ClinicalRule

__all__ = [
    "InferredStatus",
    "LabMeasurement",
    "Findings",
    "MODE_PATHS",
    "parse_inference_response",
    "parse_extraction_response",
    "apply_clinical_rule",
    "merge_patient",
    "combine_chunk_statuses",
]


class InferredStatus(Enum):
    YES = "Yes"
    NO = "No"
    NO_MENTION = "NoMention"


class LabMeasurement(NamedTuple):
    """One extracted laboratory value, normalized to the analyte's canonical unit."""

    analyte: str
    raw_value: float | None
    raw_unit: str
    normalized_value: float | None = None
    systolic: float | None = None
    diastolic: float | None = None


# The prompt paths each label mode ORs, inference before extraction: the one
# list of the modes and of the paths a detect run asks for.
MODE_PATHS = {
    "prompt1": ("inference",),
    "prompt2": ("extraction",),
    "merged": ("inference", "extraction"),
}


class Findings(NamedTuple):
    """One patient's detect result for one condition: the status of each
    prompt path asked, and the measurements the extraction path found.
    A patient without text has no statuses."""

    statuses: Mapping[str, InferredStatus]
    measurements: tuple[LabMeasurement, ...]


# Status scanning is confined to the response head because backends often
# restate the question further down.
_HEAD_CHARS = 200
_NO_MENTION_RE = re.compile(r"\bno mention\b", re.IGNORECASE)
_YES_RE = re.compile(r"\byes\b", re.IGNORECASE)
_NO_RE = re.compile(r"\bno\b", re.IGNORECASE)


def parse_inference_response(text: str) -> InferredStatus:
    """Map free-text inference output onto Yes / No / NoMention.

    Precedence: the exact phrase "no mention" beats a bare "yes" beats a bare
    "no"; an empty or unparseable head is NoMention. "no clear mention" does
    not contain the phrase, so a leading "No," still wins there.
    """
    head = text[:_HEAD_CHARS]
    if _NO_MENTION_RE.search(head):
        return InferredStatus.NO_MENTION
    if _YES_RE.search(head):
        return InferredStatus.YES
    if _NO_RE.search(head):
        return InferredStatus.NO
    return InferredStatus.NO_MENTION


_DIGIT_RE = re.compile(r"\d")
_NUMBER = r"(\d+(?:\.\d+)?)"
_GLUCOSE_RE = re.compile(_NUMBER + r"\s*mmol\s*/\s*l", re.IGNORECASE)
_TROPONIN_RE = re.compile(_NUMBER + r"\s*(ng\s*/\s*m?l)", re.IGNORECASE)
_SYSTOLIC_RE = re.compile(r"systolic[^\d\n]{0,20}" + _NUMBER, re.IGNORECASE)
_DIASTOLIC_RE = re.compile(r"diastolic[^\d\n]{0,20}" + _NUMBER, re.IGNORECASE)
_BP_PAIR_RE = re.compile(
    r"(?:blood\s+pressure|(?<!\w)bp(?!\w))[^\d\n]{0,20}(\d{2,3})\s*/\s*(\d{2,3})",
    re.IGNORECASE,
)

# Plausibility gates; values outside are dropped because they almost always
# signal unit confusion in the source note.
_GLUCOSE_RANGE = (0.5, 100.0)
_SYSTOLIC_RANGE = (50.0, 300.0)
_DIASTOLIC_RANGE = (20.0, 200.0)
_TROPONIN_RANGE = (0.0, 1e6)


def _plausible(value: float, low: float, high: float, what: str, dropped: list | None) -> bool:
    if low < value <= high:
        return True
    if dropped is not None:
        dropped.append(what)
    return False


def parse_extraction_response(text: str, analyte: str, dropped: list | None = None) -> list[LabMeasurement]:
    """Pull number+unit pairs for one analyte out of an extraction response.

    Troponin in ng/mL is normalized to ng/L (x1000). Blood-pressure readings
    pair systolic/diastolic cues index-wise and also accept "N/M" adjacent to a
    pressure cue; a missing half is recorded as None. A value outside its
    plausible range is dropped, and its analyte side ("glucose", "troponin",
    "systolic" or "diastolic") is appended to `dropped` if given: the caller
    reports the drops, so a stage can count them in one line. Appending is
    one list operation, so threads may share one list.
    """
    if analyte in _ANALYTES and _DIGIT_RE.search(text) is None:
        return []  # every pattern below needs a digit
    if analyte == "glucose":
        out = []
        for match in _GLUCOSE_RE.finditer(text):
            value = float(match.group(1))
            if _plausible(value, *_GLUCOSE_RANGE, "glucose", dropped):
                out.append(
                    LabMeasurement("glucose", value, "mmol/L", normalized_value=value)
                )
        return out

    if analyte == "troponin":
        out = []
        for match in _TROPONIN_RE.finditer(text):
            value = float(match.group(1))
            unit = re.sub(r"\s+", "", match.group(2))
            normalized = value * 1000.0 if unit.lower() == "ng/ml" else value
            if _plausible(normalized, *_TROPONIN_RANGE, "troponin", dropped):
                out.append(
                    LabMeasurement("troponin", value, unit, normalized_value=normalized)
                )
        return out

    if analyte == "blood_pressure":
        systolics = [
            float(m.group(1))
            for m in _SYSTOLIC_RE.finditer(text)
            if _plausible(float(m.group(1)), *_SYSTOLIC_RANGE, "systolic", dropped)
        ]
        diastolics = [
            float(m.group(1))
            for m in _DIASTOLIC_RE.finditer(text)
            if _plausible(float(m.group(1)), *_DIASTOLIC_RANGE, "diastolic", dropped)
        ]
        out = []
        for i in range(max(len(systolics), len(diastolics))):
            sys_v = systolics[i] if i < len(systolics) else None
            dia_v = diastolics[i] if i < len(diastolics) else None
            out.append(
                LabMeasurement(
                    "blood_pressure", None, "mmHg", systolic=sys_v, diastolic=dia_v
                )
            )
        for match in _BP_PAIR_RE.finditer(text):
            sys_v, dia_v = float(match.group(1)), float(match.group(2))
            if _plausible(sys_v, *_SYSTOLIC_RANGE, "systolic", dropped) and _plausible(
                dia_v, *_DIASTOLIC_RANGE, "diastolic", dropped
            ):
                out.append(
                    LabMeasurement(
                        "blood_pressure", None, "mmHg", systolic=sys_v, diastolic=dia_v
                    )
                )
        return out

    raise ValueError(f"unknown analyte {analyte!r}")


def _exceeds(value: float, threshold: float, comparator: str) -> bool:
    return value >= threshold if comparator == ">=" else value > threshold


def apply_clinical_rule(
    measurements: Sequence[LabMeasurement], rule: ClinicalRule
) -> InferredStatus:
    """Turn extracted measurements into a document status under a threshold rule.

    No measurements at all means NoMention. Blood pressure averages the
    document's readings and is positive when mean systolic or mean diastolic
    reaches its threshold; the scalar analytes are positive when any single
    value crosses the cut.
    """
    if not measurements:
        return InferredStatus.NO_MENTION
    for m in measurements:
        if m.analyte != rule.analyte:
            raise ValueError(
                f"measurement analyte {m.analyte!r} does not match rule {rule.analyte!r}"
            )
    if rule.analyte == "blood_pressure":
        systolics = [m.systolic for m in measurements if m.systolic is not None]
        diastolics = [m.diastolic for m in measurements if m.diastolic is not None]
        if not systolics and not diastolics:
            return InferredStatus.NO_MENTION
        sys_hit = bool(systolics) and _exceeds(
            sum(systolics) / len(systolics), rule.systolic_threshold, rule.comparator
        )
        dia_hit = bool(diastolics) and _exceeds(
            sum(diastolics) / len(diastolics), rule.diastolic_threshold, rule.comparator
        )
        return InferredStatus.YES if (sys_hit or dia_hit) else InferredStatus.NO
    values = [m.normalized_value for m in measurements if m.normalized_value is not None]
    if not values:
        return InferredStatus.NO_MENTION
    hit = any(_exceeds(v, rule.threshold, rule.comparator) for v in values)
    return InferredStatus.YES if hit else InferredStatus.NO


def merge_patient(statuses: Mapping[str, InferredStatus], mode: str) -> int:
    """A patient's binary label under one mode: 1 iff any of the mode's paths
    says Yes. NoMention and paths not asked contribute nothing, so a patient
    without merged text is a 0."""
    if mode not in MODE_PATHS:
        raise ValueError(f"unknown mode {mode!r}")
    return int(any(statuses.get(path) is InferredStatus.YES for path in MODE_PATHS[mode]))


def combine_chunk_statuses(statuses: Iterable[InferredStatus]) -> InferredStatus:
    """Aggregate chunk verdicts of one document: any Yes wins, NoMention only
    when every chunk says so (or there is no chunk)."""
    statuses = list(statuses)
    if InferredStatus.YES in statuses:
        return InferredStatus.YES
    if statuses.count(InferredStatus.NO_MENTION) == len(statuses):
        return InferredStatus.NO_MENTION
    return InferredStatus.NO

