"""Confusion matrices, Wilson intervals, and trends."""
from datetime import date

import pytest

from notepheno.corpus import Patient
from notepheno.evaluation import (
    ConfusionMatrix,
    combine_or,
    confusion,
    metrics,
    monthly_trend,
    wilson_interval,
)


def test_confusion_counts():
    predicted = {"a": 1, "b": 0, "c": 1, "d": 0}
    reference = {"a": 1, "b": 1, "c": 0, "d": 0}
    cm = confusion(predicted, reference)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)


def test_confusion_requires_exact_key_match():
    with pytest.raises(ValueError, match="missing predictions"):
        confusion({"a": 1}, {"a": 1, "b": 0})
    with pytest.raises(ValueError, match="without reference"):
        confusion({"a": 1, "zz": 0}, {"a": 1})


def test_wilson_interval_oracle():
    # 90/100 at 95%: hand-computed from the score-interval formula
    low, high = wilson_interval(90, 100, 0.95)
    assert low == pytest.approx(0.8256, abs=1e-3)
    assert high == pytest.approx(0.9448, abs=1e-3)
    # degenerate proportions stay inside [0, 1]
    low0, _ = wilson_interval(0, 50)
    _, high1 = wilson_interval(50, 50)
    assert low0 == 0.0
    assert high1 == 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_metrics_fixture_and_cis():
    cm = ConfusionMatrix(tp=84, fn=16, tn=87, fp=13)
    ms = metrics(cm)
    assert ms.sensitivity.point == pytest.approx(0.840)
    assert ms.specificity.point == pytest.approx(0.870)
    assert ms.ppv.point == pytest.approx(84 / 97)
    assert ms.npv.point == pytest.approx(87 / 103)
    for est in (ms.sensitivity, ms.specificity, ms.ppv, ms.npv):
        assert 0.0 <= est.low < est.point < est.high <= 1.0


def test_metrics_undefined_are_none():
    ms = metrics(ConfusionMatrix(tp=0, fn=0, tn=5, fp=2))
    assert ms.sensitivity is None
    assert ms.npv is not None
    ms2 = metrics(ConfusionMatrix(tp=3, fn=1, tn=0, fp=0))
    assert ms2.specificity is None and ms2.ppv is not None


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_metrics_refuse_a_level_outside_0_1_even_when_every_ratio_is_undefined(level):
    for cm in (ConfusionMatrix(tp=3, fn=1, tn=5, fp=2), ConfusionMatrix(tp=0, fn=0, tn=0, fp=0)):
        with pytest.raises(ValueError, match=r"ci_level must be in \(0, 1\), got "):
            metrics(cm, level)


def test_combine_or():
    assert combine_or({"a": 1, "b": 0}, {"a": 0, "b": 0}) == {"a": 1, "b": 0}
    with pytest.raises(ValueError, match="key sets differ"):
        combine_or({"a": 1}, {"b": 1})


def _patients_with_months():
    return {
        "a": Patient("a", date(2015, 1, 10)),
        "b": Patient("b", date(2015, 1, 20)),
        "c": Patient("c", date(2015, 2, 5)),
    }


def test_monthly_trend_groups_by_admit_month():
    patients = _patients_with_months()
    points = monthly_trend(patients, {"a": 1, "b": 1, "c": 0}, {"a": 1, "b": 0, "c": 1})
    assert [p.month for p in points] == ["2015-01", "2015-02"]
    jan, feb = points
    assert (jan.n, jan.reference_pct, jan.predicted_pct) == (2, 0.5, 1.0)
    assert (feb.reference_pct, feb.predicted_pct) == (1.0, 0.0)
    with pytest.raises(ValueError, match="no patient record"):
        monthly_trend(patients, {"zz": 1}, {"zz": 1})


def test_monthly_trend_without_reference_labels_has_no_reference_fraction():
    points = monthly_trend(_patients_with_months(), {"a": 1, "b": 1, "c": 0}, None)
    assert [(p.month, p.n, p.reference_pct, p.predicted_pct) for p in points] == [
        ("2015-01", 2, None, 1.0), ("2015-02", 1, None, 0.0),
    ]


def test_monthly_trend_refuses_mismatched_patients():
    patients = _patients_with_months()
    reference = {"a": 1, "b": 0, "c": 1}
    with pytest.raises(ValueError, match=r"missing predictions for \['c'\]"):
        monthly_trend(patients, {"a": 1, "b": 1}, reference)
    with pytest.raises(ValueError, match=r"predictions without reference for \['zz'\]"):
        monthly_trend(patients, {"a": 1, "b": 1, "c": 0, "zz": 1}, reference)
