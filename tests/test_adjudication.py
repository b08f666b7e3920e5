"""Response parsing, threshold rules, and per-patient label merging."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notepheno.adjudication import (
    InferredStatus,
    LabMeasurement,
    apply_clinical_rule,
    combine_chunk_statuses,
    merge_patient,
    parse_extraction_response,
    parse_inference_response,
)
from notepheno.prompting import ClinicalRule


# -- inference parsing -------------------------------------------------------

def test_parse_inference_precedence():
    assert parse_inference_response("Yes, clearly present.") is InferredStatus.YES
    assert parse_inference_response("No, absent.") is InferredStatus.NO
    assert parse_inference_response("There is no mention of it.") is InferredStatus.NO_MENTION
    # the phrase beats a yes that also appears
    assert (
        parse_inference_response("Yes... although there is no mention of labs.")
        is InferredStatus.NO_MENTION
    )
    # a bare yes beats a bare no
    assert parse_inference_response("yes and no") is InferredStatus.YES
    assert parse_inference_response("") is InferredStatus.NO_MENTION
    assert parse_inference_response("Unclear response entirely.") is InferredStatus.NO_MENTION


def test_parse_inference_scans_head_only():
    buried = "x" * 250 + " yes"
    assert parse_inference_response(buried) is InferredStatus.NO_MENTION


def test_parse_inference_no_clear_mention_is_no():
    text = "No, there is no clear mention of hypertension or high blood pressure in the given clinical text."
    assert parse_inference_response(text) is InferredStatus.NO


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_parse_inference_total(text):
    assert parse_inference_response(text) in InferredStatus


# -- extraction parsing ------------------------------------------------------

def test_parse_glucose_values():
    text = "1. glucose - mmol/l breakfast: 24.8 mmol/l 2. glucose - mmol/l lunch: 9.7 mmol/l"
    values = [m.normalized_value for m in parse_extraction_response(text, "glucose")]
    assert values == [24.8, 9.7]


def test_troponin_ng_ml_normalized_to_ng_l():
    (m,) = parse_extraction_response("Response: troponin level: 1.16 ng/mL.", "troponin")
    assert m.raw_value == 1.16
    assert m.raw_unit.lower() == "ng/ml"
    assert m.normalized_value == pytest.approx(1160.0)
    (m2,) = parse_extraction_response("troponin level: 58 ng/L", "troponin")
    assert m2.normalized_value == 58.0


def test_blood_pressure_pairing():
    text = "blood pressure systolic: 140\nblood pressure diastolic: 66"
    (m,) = parse_extraction_response(text, "blood_pressure")
    assert (m.systolic, m.diastolic) == (140.0, 66.0)
    # compact reading near a pressure cue
    (m2,) = parse_extraction_response("BP 150/95 on arrival", "blood_pressure")
    assert (m2.systolic, m2.diastolic) == (150.0, 95.0)
    # a lone half is kept with the other side missing
    (m3,) = parse_extraction_response("diastolic : 88", "blood_pressure")
    assert (m3.systolic, m3.diastolic) == (None, 88.0)


def test_implausible_values_dropped():
    assert parse_extraction_response("glucose reading : 500 mmol/l", "glucose") == []
    assert parse_extraction_response("systolic: 400", "blood_pressure") == []
    with pytest.raises(ValueError):
        parse_extraction_response("anything", "cholesterol")


# The parser as it was before replies without a digit skipped the patterns,
# kept as the reference. Its blood-pressure cues skip `[^\d\n]`, as the
# parser's do, so no cue eats the first digit of a non-ASCII reading.
_NUMBER = r"(\d+(?:\.\d+)?)"
_OLD_GLUCOSE_RE = re.compile(_NUMBER + r"\s*mmol\s*/\s*l", re.IGNORECASE)
_OLD_TROPONIN_RE = re.compile(_NUMBER + r"\s*(ng\s*/\s*m?l)", re.IGNORECASE)
_OLD_SYSTOLIC_RE = re.compile(r"systolic[^\d\n]{0,20}" + _NUMBER, re.IGNORECASE)
_OLD_DIASTOLIC_RE = re.compile(r"diastolic[^\d\n]{0,20}" + _NUMBER, re.IGNORECASE)
_OLD_BP_PAIR_RE = re.compile(
    r"(?:blood\s+pressure|(?<!\w)bp(?!\w))[^\d\n]{0,20}(\d{2,3})\s*/\s*(\d{2,3})", re.IGNORECASE
)


def _old_parse_extraction_response(text, analyte):
    def plausible(value, low, high):
        return low < value <= high

    if analyte == "glucose":
        return [
            LabMeasurement("glucose", v, "mmol/L", normalized_value=v)
            for v in (float(m.group(1)) for m in _OLD_GLUCOSE_RE.finditer(text))
            if plausible(v, 0.5, 100.0)
        ]
    if analyte == "troponin":
        out = []
        for match in _OLD_TROPONIN_RE.finditer(text):
            value = float(match.group(1))
            unit = re.sub(r"\s+", "", match.group(2))
            normalized = value * 1000.0 if unit.lower() == "ng/ml" else value
            if plausible(normalized, 0.0, 1e6):
                out.append(LabMeasurement("troponin", value, unit, normalized_value=normalized))
        return out
    if analyte == "blood_pressure":
        sys_vs = [v for v in (float(m.group(1)) for m in _OLD_SYSTOLIC_RE.finditer(text)) if plausible(v, 50.0, 300.0)]
        dia_vs = [v for v in (float(m.group(1)) for m in _OLD_DIASTOLIC_RE.finditer(text)) if plausible(v, 20.0, 200.0)]
        out = [
            LabMeasurement("blood_pressure", None, "mmHg",
                           systolic=sys_vs[i] if i < len(sys_vs) else None,
                           diastolic=dia_vs[i] if i < len(dia_vs) else None)
            for i in range(max(len(sys_vs), len(dia_vs)))
        ]
        for match in _OLD_BP_PAIR_RE.finditer(text):
            sys_v, dia_v = float(match.group(1)), float(match.group(2))
            if plausible(sys_v, 50.0, 300.0) and plausible(dia_v, 20.0, 200.0):
                out.append(LabMeasurement("blood_pressure", None, "mmHg", systolic=sys_v, diastolic=dia_v))
        return out
    raise ValueError(f"unknown analyte {analyte!r}")


# reply fragments: the units and cues of every pattern, ASCII and non-ASCII
# decimal digits, and the separators between them
_REPLY_PARTS = st.sampled_from([
    "glucose", "mmol/l", " mmol / L", "troponin level: ", "ng/mL", "ng / l", "systolic : ",
    "diastolic", "blood pressure ", "BP ", "/", ".", " ", "\n", ":", "1", "12", "7.5", "140",
    "95", "٣", "５", "١٤٠", "x", "No key-value pairs.",
])
_replies = st.one_of(st.lists(_REPLY_PARTS, max_size=12).map("".join), st.text(max_size=40))


@settings(max_examples=300, deadline=None)
@given(_replies, st.sampled_from(["glucose", "troponin", "blood_pressure"]))
def test_parse_extraction_matches_the_reference_parser(text, analyte):
    assert parse_extraction_response(text, analyte) == _old_parse_extraction_response(text, analyte)


def test_non_ascii_digits_are_read_as_before():
    for text, analyte in (("glucose: ٣.٥ mmol/l", "glucose"), ("troponin level: ５８ ng/L", "troponin")):
        found = parse_extraction_response(text, analyte)
        assert found and found == _old_parse_extraction_response(text, analyte)


def test_blood_pressure_cues_read_non_ascii_digits_whole():
    (pair,) = parse_extraction_response("BP ١٦٥/٩٥", "blood_pressure")
    assert (pair.systolic, pair.diastolic) == (165.0, 95.0)
    (systolic,) = parse_extraction_response("systolic: １５０", "blood_pressure")
    assert (systolic.systolic, systolic.diastolic) == (150.0, None)


@given(st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=40))
@settings(max_examples=50)
def test_a_digit_free_reply_still_refuses_an_unknown_analyte(text):
    with pytest.raises(ValueError, match="unknown analyte 'cholesterol'"):
        parse_extraction_response(text, "cholesterol")


# -- clinical rules ----------------------------------------------------------

GLUCOSE_RULE = ClinicalRule(analyte="glucose", comparator=">=", threshold=11.1)
TROPONIN_RULE = ClinicalRule(analyte="troponin", comparator=">", threshold=14.0)
BP_RULE = ClinicalRule(
    analyte="blood_pressure", systolic_threshold=140.0, diastolic_threshold=90.0
)


def _glucose(value):
    return LabMeasurement("glucose", value, "mmol/L", normalized_value=value)


def _troponin(value):
    return LabMeasurement("troponin", value, "ng/L", normalized_value=value)


def _bp(sys_v, dia_v):
    return LabMeasurement("blood_pressure", None, "mmHg", systolic=sys_v, diastolic=dia_v)


def test_glucose_boundary_inclusive():
    assert apply_clinical_rule([_glucose(11.1)], GLUCOSE_RULE) is InferredStatus.YES
    assert apply_clinical_rule([_glucose(11.09)], GLUCOSE_RULE) is InferredStatus.NO
    strict = ClinicalRule(analyte="glucose", comparator=">", threshold=11.1)
    assert apply_clinical_rule([_glucose(11.1)], strict) is InferredStatus.NO


def test_troponin_boundary_strict():
    assert apply_clinical_rule([_troponin(14.0)], TROPONIN_RULE) is InferredStatus.NO
    assert apply_clinical_rule([_troponin(14.01)], TROPONIN_RULE) is InferredStatus.YES


def test_bp_rule_uses_means_with_or():
    assert apply_clinical_rule([_bp(140.0, 66.0)], BP_RULE) is InferredStatus.YES
    assert apply_clinical_rule([_bp(139.9, 89.9)], BP_RULE) is InferredStatus.NO
    assert apply_clinical_rule([_bp(120.0, 95.0)], BP_RULE) is InferredStatus.YES
    # one high reading averaged down by a later normal one
    assert (
        apply_clinical_rule([_bp(160.0, 80.0), _bp(110.0, 70.0)], BP_RULE)
        is InferredStatus.NO
    )


def test_rule_without_measurements_is_no_mention():
    assert apply_clinical_rule([], GLUCOSE_RULE) is InferredStatus.NO_MENTION
    assert (
        apply_clinical_rule([_bp(None, None)], BP_RULE) is InferredStatus.NO_MENTION
    )
    with pytest.raises(ValueError):
        apply_clinical_rule([_glucose(12.0)], TROPONIN_RULE)


def test_scalar_rule_any_value_crossing():
    assert (
        apply_clinical_rule([_glucose(5.0), _glucose(14.2)], GLUCOSE_RULE)
        is InferredStatus.YES
    )


# -- merging -----------------------------------------------------------------

def test_merge_modes_select_paths():
    statuses = {"inference": InferredStatus.NO, "extraction": InferredStatus.YES}
    assert merge_patient(statuses, "prompt1") == 0
    assert merge_patient(statuses, "prompt2") == 1
    assert merge_patient(statuses, "merged") == 1


def test_merge_empty_is_negative():
    assert merge_patient({}, "merged") == 0
    with pytest.raises(ValueError):
        merge_patient({"inference": InferredStatus.YES}, "prompt3")


@given(
    st.dictionaries(
        st.sampled_from(["inference", "extraction"]),
        st.sampled_from(list(InferredStatus)),
    )
)
@settings(max_examples=200)
def test_merged_label_is_or_of_paths(statuses):
    p1 = merge_patient(statuses, "prompt1")
    p2 = merge_patient(statuses, "prompt2")
    merged = merge_patient(statuses, "merged")
    assert merged == int(bool(p1) or bool(p2))


def test_combine_chunk_statuses():
    Y, N, M = InferredStatus.YES, InferredStatus.NO, InferredStatus.NO_MENTION
    assert combine_chunk_statuses([N, M, Y]) is Y
    assert combine_chunk_statuses([N, M]) is N
    assert combine_chunk_statuses([M, M]) is M
    assert combine_chunk_statuses([]) is M
