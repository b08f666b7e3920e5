"""Condition profiles, clinical rules, and prompt rendering."""
import pytest
import yaml

from notepheno.prompting import (
    ClinicalRule,
    ConditionProfile,
    builtin_profiles,
    load_profiles,
    render_prompt,
)


def test_builtin_rules():
    by_name = {p.name: p for p in builtin_profiles()}
    ami = by_name["ami"].rule
    assert (ami.analyte, ami.comparator, ami.threshold) == ("troponin", ">", 14.0)
    dia = by_name["diabetes"].rule
    assert (dia.analyte, dia.comparator, dia.threshold) == ("glucose", ">=", 11.1)
    htn = by_name["hypertension"].rule
    assert (htn.systolic_threshold, htn.diastolic_threshold) == (140.0, 90.0)


def test_templates_ask_yes_or_no():
    for profile in builtin_profiles():
        assert "yes or no" in profile.inference_template
        assert profile.extraction_template.startswith("Find all the key-value pairs of")


def test_render_inference_embeds_text(diabetes_profile):
    rendered = render_prompt(diabetes_profile, "inference", "Glucose high today.")
    assert "Analyze the clinical text: 'Glucose high today.'," in rendered.text
    assert "{text}" not in rendered.text


def test_render_preserves_braces_in_note(diabetes_profile):
    rendered = render_prompt(diabetes_profile, "extraction", "values {text} and {other}")
    assert rendered.text.count("values {text} and {other}") == 1


def test_render_rejects_empty_text_and_bad_kind(diabetes_profile):
    with pytest.raises(ValueError):
        render_prompt(diabetes_profile, "inference", "")
    with pytest.raises(ValueError):
        render_prompt(diabetes_profile, "summary", "note")
    with pytest.raises(ValueError):
        render_prompt(diabetes_profile, "evidence", "note")


def test_profile_requires_single_placeholder():
    rule = ClinicalRule(analyte="glucose", threshold=11.1)
    with pytest.raises(ValueError, match="exactly once"):
        ConditionProfile(
            name="x",
            keywords=("glucose",),
            inference_template="no placeholder here",
            extraction_template="Find {text}",
            rule=rule,
        )


def test_clinical_rule_validation():
    with pytest.raises(ValueError):
        ClinicalRule(analyte="cholesterol", threshold=5.0)
    with pytest.raises(ValueError):
        ClinicalRule(analyte="glucose", threshold=-1.0)
    with pytest.raises(ValueError):
        ClinicalRule(analyte="blood_pressure", systolic_threshold=140.0)
    with pytest.raises(ValueError):
        ClinicalRule(analyte="glucose", threshold=11.1, comparator="<")


def test_load_profiles_yaml(tmp_path):
    config = {
        "profiles": [
            {
                "name": "diabetes",
                "keywords": ["glucose", "diabetes"],
                "inference_template": "Analyze the clinical text: '{text}', answer yes or no.",
                "extraction_template": "Find all the key-value pairs of glucose from the given text: {text}.",
                "rule": {"analyte": "glucose", "threshold": 11.1, "unit": "mmol/L"},
            }
        ]
    }
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    profiles = load_profiles(path)
    assert len(profiles) == 1
    assert profiles[0].rule.comparator == ">="


def test_load_profiles_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ValueError, match="profiles"):
        load_profiles(path)
    entry = {
        "name": "ami",
        "keywords": ["troponin"],
        "inference_template": "Analyze the clinical text: '{text}', answer yes or no.",
        "extraction_template": "Find all the key-value pairs of troponin from the given text: {text}.",
        "rule": {"analyte": "troponin", "threshold": 14.0},
    }
    cases = [
        ({"profiles": None}, "expected a top-level 'profiles' list"),
        ({"profiles": [entry, "gout"]}, "profiles entry 2 must be a mapping, got 'gout'"),
        ({"profiles": [dict(entry, rule={"threshold": 14.0})]}, "profiles entry 1: missing key 'rule.analyte'"),
        ({"profiles": [dict(entry, rule="troponin")]}, "profiles entry 1: missing key 'rule.analyte'"),
    ]
    for key in ("name", "keywords", "inference_template", "extraction_template", "rule"):
        without = {k: v for k, v in entry.items() if k != key}
        cases.append(({"profiles": [entry, without]}, f"profiles entry 2: missing key {key!r}"))
    for config, message in cases:
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_profiles(path)
        assert str(exc.value) == f"{path}: {message}", config


def test_load_profiles_rejects_a_duplicate_condition_name(tmp_path):
    entry = {
        "name": "ami",
        "keywords": ["troponin"],
        "inference_template": "Analyze the clinical text: '{text}', answer yes or no.",
        "extraction_template": "Find all the key-value pairs of troponin from the given text: {text}.",
        "rule": {"analyte": "troponin", "comparator": ">", "threshold": 14.0, "unit": "ng/L"},
    }
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump({"profiles": [entry, dict(entry, keywords=["mi"])]}), encoding="utf-8")
    with pytest.raises(ValueError, match=r"profiles\.yaml: duplicate condition name 'ami'"):
        load_profiles(path)
