"""Confusion matrices, accuracy metrics with Wilson intervals, monthly trends."""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping, NamedTuple

from .corpus import Checked, Patient

__all__ = [
    "ConfusionMatrix",
    "Estimate",
    "MetricSet",
    "TrendPoint",
    "confusion",
    "metrics",
    "wilson_interval",
    "combine_or",
    "monthly_trend",
]


class _ConfusionMatrixFields(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


class ConfusionMatrix(Checked, _ConfusionMatrixFields):
    """The 2x2 counts of predictions against a reference."""

    __slots__ = ()

    def _check(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")


class Estimate(NamedTuple):
    """Point estimate with its confidence interval bounds."""

    point: float
    low: float
    high: float


class MetricSet(NamedTuple):
    """Sensitivity/specificity/PPV/NPV; None where the denominator is zero."""

    sensitivity: Estimate | None
    specificity: Estimate | None
    ppv: Estimate | None
    npv: Estimate | None


class TrendPoint(NamedTuple):
    month: str  # YYYY-MM
    reference_pct: float | None  # None without reference labels
    predicted_pct: float
    n: int


def _require_same_patients(predicted: Mapping[str, int], reference: Mapping[str, int], source="") -> None:
    """Key sets must match exactly; a patient missing a prediction is an
    error, never silently negative. The message starts with `source`."""
    missing = sorted(set(reference) - set(predicted))
    extra = sorted(set(predicted) - set(reference))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing predictions for {missing[:10]}")
        if extra:
            parts.append(f"predictions without reference for {extra[:10]}")
        raise ValueError(source + "; ".join(parts))


def confusion(
    predicted: Mapping[str, int], reference: Mapping[str, int]
) -> ConfusionMatrix:
    """Standard 2x2 counts over identical key sets (see `_require_same_patients`)."""
    _require_same_patients(predicted, reference)
    tp = fp = fn = tn = 0
    for pid, ref in reference.items():
        pred = predicted[pid]
        if ref == 1 and pred == 1:
            tp += 1
        elif ref == 1:
            fn += 1
        elif pred == 1:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    from statistics import NormalDist  # only evaluate pays for the import

    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def _estimate(numerator: int, denominator: int, level: float) -> Estimate | None:
    if denominator == 0:
        return None
    low, high = wilson_interval(numerator, denominator, level)
    return Estimate(point=numerator / denominator, low=low, high=high)


def metrics(cm: ConfusionMatrix, ci_level: float = 0.95) -> MetricSet:
    """The four diagnostic accuracy ratios with Wilson score intervals.

    A ratio with zero denominator is undefined and reported as None, never
    coerced to 0 or 1. A level outside (0, 1) is refused even when no ratio
    is defined.
    """
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")
    return MetricSet(
        sensitivity=_estimate(cm.tp, cm.tp + cm.fn, ci_level),
        specificity=_estimate(cm.tn, cm.fp + cm.tn, ci_level),
        ppv=_estimate(cm.tp, cm.tp + cm.fp, ci_level),
        npv=_estimate(cm.tn, cm.tn + cm.fn, ci_level),
    )


def combine_or(a: Mapping[str, int], b: Mapping[str, int]) -> dict[str, int]:
    """Pointwise logical OR of two prediction maps over identical key sets."""
    if set(a) != set(b):
        diff = sorted(set(a) ^ set(b))
        raise ValueError(f"key sets differ: {diff[:10]}")
    return {pid: int(bool(a[pid]) or bool(b[pid])) for pid in a}


def monthly_trend(
    patients: Mapping[str, Patient],
    predicted: Mapping[str, int],
    reference: Mapping[str, int] | None,
) -> list[TrendPoint]:
    """Monthly positive fractions of predicted vs reference, by admit month,
    over identical key sets (see `_require_same_patients`). With no
    reference, every point's `reference_pct` is None."""
    if reference is not None:
        _require_same_patients(predicted, reference)
    buckets: dict[str, list[str]] = defaultdict(list)
    for pid in predicted:
        patient = patients.get(pid)
        if patient is None:
            raise ValueError(f"no patient record for {pid!r}")
        buckets[patient.admit_date.strftime("%Y-%m")].append(pid)
    points = []
    for month in sorted(buckets):
        pids = buckets[month]
        n = len(pids)
        points.append(
            TrendPoint(
                month=month,
                reference_pct=None if reference is None else sum(reference[p] for p in pids) / n,
                predicted_pct=sum(predicted[p] for p in pids) / n,
                n=n,
            )
        )
    return points

