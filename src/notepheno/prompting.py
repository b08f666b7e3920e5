"""Per-condition profiles (keywords, prompt templates, clinical rules) and prompt rendering."""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .corpus import Checked

__all__ = [
    "ClinicalRule",
    "ConditionProfile",
    "RenderedPrompt",
    "builtin_profiles",
    "render_prompt",
    "load_profiles",
]

PLACEHOLDER = "{text}"

_ANALYTES = ("glucose", "blood_pressure", "troponin")


class _ClinicalRuleFields(NamedTuple):
    analyte: str
    comparator: str = ">="
    threshold: float | None = None
    systolic_threshold: float | None = None
    diastolic_threshold: float | None = None


class ClinicalRule(Checked, _ClinicalRuleFields):
    """Threshold rule applied to extracted laboratory values.

    For blood pressure the systolic/diastolic thresholds combine with OR
    semantics; for the scalar analytes a single threshold and comparator apply.
    """

    __slots__ = ()

    def _check(self) -> None:
        for value in (self.threshold, self.systolic_threshold, self.diastolic_threshold):
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"thresholds must be numbers, got {value!r}")
        if self.analyte not in _ANALYTES:
            raise ValueError(f"unknown analyte {self.analyte!r}")
        if self.comparator not in (">=", ">"):
            raise ValueError(f"comparator must be '>=' or '>', got {self.comparator!r}")
        if self.analyte == "blood_pressure":
            if not self.systolic_threshold or not self.diastolic_threshold:
                raise ValueError("blood_pressure rule needs systolic and diastolic thresholds")
            if self.systolic_threshold <= 0 or self.diastolic_threshold <= 0:
                raise ValueError("thresholds must be positive")
        else:
            if self.threshold is None or self.threshold <= 0:
                raise ValueError("threshold must be positive")


class _ConditionProfileFields(NamedTuple):
    name: str
    keywords: tuple[str, ...]
    inference_template: str
    extraction_template: str
    rule: ClinicalRule


class ConditionProfile(Checked, _ConditionProfileFields):
    """Everything the pipeline needs to know about one target condition."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.keywords:
            raise ValueError(f"profile {self.name!r} has no keywords")
        if not all(isinstance(keyword, str) and keyword.strip() for keyword in self.keywords):
            raise ValueError(f"profile {self.name!r}: keywords must be nonempty strings")
        for template in (self.inference_template, self.extraction_template):
            if not isinstance(template, str) or template.count(PLACEHOLDER) != 1:
                raise ValueError(
                    f"profile {self.name!r}: template must be a string containing {PLACEHOLDER!r} exactly once"
                )


class RenderedPrompt(NamedTuple):
    text: str


_AMI_KEYWORDS = (
    "age",
    "weight",
    "wt",
    "myocardial infarction",
    "myocardial",
    "heart",
    "mi",
    "acute coronary",
    "coronary",
    "ischemic",
    "cardiac",
    "myocardium",
    "infarct",
    "ecg",
    "troponin",
    "artery",
    "pci",
    "stemi",
    "nstemi",
    "cardiogenic",
    "aneurysm",
    "medication",
)

_DIABETES_KEYWORDS = (
    "age",
    "weight",
    "wt",
    "non-alcoholic fatty liver",
    "dyslipidemia",
    "sugar",
    "hypertension",
    "blood pressure",
    "glycemia",
    "glucose",
    "fasting",
    "fpg",
    "ogtt",
    "hba1c",
    "a1c",
    "mmtt",
    "hemoglobin",
    "insulin",
    "diabetes",
    "diabetic",
    "dm",
    "tolerance",
    "inhibitor",
    "peptide",
    "tzds",
    "glp-1",
    "inhibitors",
    "dpp-4",
    "metformin",
    "medication",
)

_HYPERTENSION_KEYWORDS = (
    "age",
    "weight",
    "wt",
    "hypertension",
    "blood pressure",
    "systolic",
    "diastolic",
    "htn",
    "dash",
    "hypertensive",
    "medication",
)

_AMI_INFERENCE = (
    "Analyze the clinical text: '{text}', and answer yes or no if you identify "
    "acute myocardial infarction. Be careful with some abbreviations for acute "
    "myocardial infarction, including ami, mi, stemi, and non-stemi."
)
_AMI_EXTRACTION = "Find all the key-value pairs of troponin level from the given text: {text}."

_DIABETES_INFERENCE = (
    "Analyze the clinical text: '{text}', answer yes or no if you identify "
    "diabetes. Look for relevant information, including elevated blood glucose "
    "levels, mentions of diabetes diagnosis, or references to anti-diabetic "
    "medications."
)
_DIABETES_EXTRACTION = (
    "Find all the key-value pairs of blood sugar/glucose levels from the given text: {text}."
)

_HYPERTENSION_INFERENCE = (
    "Analyze the clinical text: '{text}', answer yes or no if you identify "
    "hypertension (high blood pressure). Look for relevant information, "
    "including high blood pressure readings or symptoms, mentions of "
    "hypertension diagnosis, or references to antihypertensive medications."
)
_HYPERTENSION_EXTRACTION = (
    "Find all the key-value pairs of blood pressure from the given text: {text}."
)


def builtin_profiles() -> list[ConditionProfile]:
    """The three shipped condition profiles.

    The glucose comparator is the guideline's inclusive bound; a profiles
    file can word the cut the other way.
    """
    return [
        ConditionProfile(
            name="ami",
            keywords=_AMI_KEYWORDS,
            inference_template=_AMI_INFERENCE,
            extraction_template=_AMI_EXTRACTION,
            rule=ClinicalRule(analyte="troponin", comparator=">", threshold=14.0),
        ),
        ConditionProfile(
            name="diabetes",
            keywords=_DIABETES_KEYWORDS,
            inference_template=_DIABETES_INFERENCE,
            extraction_template=_DIABETES_EXTRACTION,
            rule=ClinicalRule(analyte="glucose", comparator=">=", threshold=11.1),
        ),
        ConditionProfile(
            name="hypertension",
            keywords=_HYPERTENSION_KEYWORDS,
            inference_template=_HYPERTENSION_INFERENCE,
            extraction_template=_HYPERTENSION_EXTRACTION,
            rule=ClinicalRule(
                analyte="blood_pressure",
                comparator=">=",
                systolic_threshold=140.0,
                diastolic_threshold=90.0,
            ),
        ),
    ]


def render_prompt(profile: ConditionProfile, kind: str, text: str) -> RenderedPrompt:
    """Substitute note text into the profile's template for the given kind.

    The placeholder is substituted exactly once, so braces inside the note text
    pass through untouched.
    """
    if kind not in ("inference", "extraction"):
        raise ValueError(f"unknown prompt kind {kind!r}")
    if not text:
        raise ValueError("cannot render a prompt from empty text")
    template = (
        profile.extraction_template if kind == "extraction" else profile.inference_template
    )
    return RenderedPrompt(template.replace(PLACEHOLDER, text, 1))


def _rule_from_config(raw: dict) -> ClinicalRule:
    return ClinicalRule(
        analyte=raw["analyte"],
        comparator=raw.get("comparator", ">="),
        threshold=raw.get("threshold"),
        systolic_threshold=raw.get("systolic_threshold"),
        diastolic_threshold=raw.get("diastolic_threshold"),
    )


def _read_yaml(path):
    """The document of the YAML file at `path`; ValueError naming the file if
    it is not valid YAML."""
    import yaml  # only runs that pass --config or --profiles pay for the import

    try:
        return yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML: {exc}") from None


def load_profiles(path) -> list[ConditionProfile]:
    """Load condition profiles from a YAML config, overriding the built-ins.

    The file holds a top-level ``profiles`` list; each entry mirrors the
    ConditionProfile fields. Unlisted conditions are not implied. Condition
    names must be unique: replies and artifacts are keyed by them.
    """
    raw = _read_yaml(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("profiles"), list):
        raise ValueError(f"{path}: expected a top-level 'profiles' list")
    profiles = []
    for number, entry in enumerate(raw["profiles"], 1):
        where = f"{path}: profiles entry {number}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a mapping, got {entry!r}")
        for key in ("name", "keywords", "inference_template", "extraction_template", "rule"):
            if entry.get(key) is None:
                raise ValueError(f"{where}: missing key {key!r}")
        if not isinstance(entry["rule"], dict) or entry["rule"].get("analyte") is None:
            raise ValueError(f"{where}: missing key 'rule.analyte'")
        if not isinstance(entry["keywords"], list):
            raise ValueError(f"{where}: keywords must be a list, got {entry['keywords']!r}")
        if any(p.name == entry["name"] for p in profiles):
            raise ValueError(f"{path}: duplicate condition name {entry['name']!r}")
        try:
            profiles.append(
                ConditionProfile(
                    name=entry["name"],
                    keywords=tuple(entry["keywords"]),
                    inference_template=entry["inference_template"],
                    extraction_template=entry["extraction_template"],
                    rule=_rule_from_config(entry["rule"]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if not profiles:
        raise ValueError(f"{path}: no profiles defined")
    return profiles
