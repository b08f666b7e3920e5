"""Ten-question backend benchmark with per-question matchers and timing."""
from __future__ import annotations

import re
import time
from typing import Callable, NamedTuple

from .inference import Backend, CompletionRequest, GenerationParams

__all__ = [
    "BenchQuestion",
    "QuestionResult",
    "BenchResult",
    "builtin_questions",
    "run_benchmark",
]

_POLARITY_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def _leading_polarity(response: str) -> str | None:
    match = _POLARITY_RE.search(response)
    return match.group(1).lower() if match else None


def _polarity_matcher(expected: str) -> Callable[[str], bool]:
    def matcher(response: str) -> bool:
        return _leading_polarity(response) == expected

    return matcher


def _keywords_matcher(*keywords: str) -> Callable[[str], bool]:
    def matcher(response: str) -> bool:
        lowered = response.lower()
        return all(k in lowered for k in keywords)

    return matcher


def _systolic_119(response: str) -> bool:
    return re.search(r"\b119\b", response) is not None


_AFFIRM_RE = re.compile(r"\b(yes|likely|certain\w*|high likelihood)\b", re.IGNORECASE)


def _q8_matcher(response: str) -> bool:
    # Both conditions named, with affirmative rather than negative polarity.
    lowered = response.lower()
    if "diabetes" not in lowered or "hypertension" not in lowered:
        return False
    if _leading_polarity(response) == "no":
        return False
    return _AFFIRM_RE.search(response) is not None


_Q10_NEG_MI_RE = re.compile(r"\bno\b[^.;]*\b(mi|myocardial infarction)\b", re.IGNORECASE)
_Q10_NEG_HTN_RE = re.compile(r"\bno\b[^.;]*\bhypertension\b", re.IGNORECASE)


def _q10_matcher(response: str) -> bool:
    lowered = response.lower()
    affirmative_diabetes = (
        _leading_polarity(response) == "yes" or "has diabetes" in lowered
    )
    return (
        affirmative_diabetes
        and _Q10_NEG_MI_RE.search(response) is not None
        and _Q10_NEG_HTN_RE.search(response) is not None
    )


class BenchQuestion(NamedTuple):
    id: str
    prompt: str
    expected: str
    matcher: Callable[[str], bool]

    def grade(self, response: str) -> bool:
        try:
            return bool(self.matcher(response))
        except Exception:  # matchers are total by contract
            return False


class QuestionResult(NamedTuple):
    question_id: str
    correct: bool
    latency_ms: float


class BenchResult(NamedTuple):
    results: tuple[QuestionResult, ...]
    accuracy: float
    elapsed_s: float
    backend_id: str


def builtin_questions() -> list[BenchQuestion]:
    """The ten shipped disease-detection benchmark questions.

    Grading is operationalized per question: leading yes/no polarity where the
    expected answer is binary, required keyword sets where it names entities,
    numeric presence for the blood-pressure reading, and combined
    affirmative/negative polarity for the two mixed questions.
    """
    return [
        BenchQuestion(
            "Q1",
            "Imagine you are a physician, does the following text contain lab tests "
            "used to detect sepsis: fasting plasma glucose (FPG) test, oral glucose "
            "tolerance test (OGTT), hemoglobin A1c (HbA1c) test, and random plasma "
            "glucose (RPG) test?",
            "No",
            _polarity_matcher("no"),
        ),
        BenchQuestion(
            "Q2",
            "Imagine you are a physician, does the following text contain lab tests "
            "used to detect diabetes: fasting plasma glucose (FPG) test, oral glucose "
            "tolerance test (OGTT), hemoglobin A1c (HbA1c) test, and random plasma "
            "glucose (RPG) test?",
            "Yes",
            _polarity_matcher("yes"),
        ),
        BenchQuestion(
            "Q3",
            "What is the systolic blood pressure from the given text: Temperature "
            "Degrees C 36.2 degrees CPulse Pulse bpm : 72 bpm Blood Pressure Blood "
            "Pressure Systolic : 119 Blood Pressure Diastolic : 71 Blood Pressure "
            "Mean : 87 mmHg Blood Pressure Patient Position?",
            "Systolic: 119",
            _systolic_119,
        ),
        BenchQuestion(
            "Q4",
            "The clinical note states: 'The patient has a history of high blood sugar "
            "and is currently on insulin therapy.' Can you identify if the patient "
            "has diabetes?",
            "Yes",
            _polarity_matcher("yes"),
        ),
        BenchQuestion(
            "Q5",
            "'The patient was diagnosed with hypertension 5 years ago and has been on "
            "lisinopril since. No signs of improvement. Can you extract the diagnosis "
            "of hypertension and recognize when it occurred?",
            "Hypertension 5 years ago",
            _keywords_matcher("hypertension", "5 years"),
        ),
        BenchQuestion(
            "Q6",
            "'The patient was admitted with acute chest pain, later confirmed to be a "
            "myocardial infarction. They also have a long-standing history of "
            "hypertension and are managing diabetes with metformin.' Can you identify "
            "the three conditions: myocardial infarction, hypertension, and diabetes?",
            "Myocardial infarction, diabetes, and hypertension",
            _keywords_matcher("myocardial infarction", "hypertension", "diabetes"),
        ),
        BenchQuestion(
            "Q7",
            "'Patient reported severe chest pain radiating to the left arm, with "
            "nausea and shortness of breath. EKG confirmed ST elevation.' Can you "
            "identify if this patient is likely suffering from an acute myocardial "
            "infarction based on the symptoms and test results?",
            "Yes",
            _polarity_matcher("yes"),
        ),
        BenchQuestion(
            "Q8",
            "'The patient is obese, with a family history of diabetes and "
            "hypertension. Fasting glucose levels are elevated, and blood pressure "
            "remains uncontrolled despite medication.' Based on the risk factors and "
            "medical history, can you infer the likelihood of diabetes and "
            "hypertension in this patient?",
            "Highly likely that the patient has diabetes; almost certainly has hypertension.",
            _q8_matcher,
        ),
        BenchQuestion(
            "Q9",
            "'The patient is currently on metformin, atorvastatin, and "
            "hydrochlorothiazide.' Can you identify which conditions these "
            "medications are most likely treating?",
            "Type 2 diabetes and hypertension",
            _keywords_matcher("diabetes", "hypertension"),
        ),
        BenchQuestion(
            "Q10",
            "'The patient was evaluated for chest pain, but there is no evidence of "
            "myocardial infarction. He has diabetes but no signs of hypertension.' "
            "Can you correctly identify the presence of diabetes while acknowledging "
            "that there is no myocardial infarction or hypertension?",
            "Yes, the patient has diabetes but no MI or hypertension.",
            _q10_matcher,
        ),
    ]


def run_benchmark(backend: Backend, params: GenerationParams | None = None) -> BenchResult:
    """Run the built-in questions sequentially against a backend and score them.

    Sequential on purpose: total wall clock is part of the report. A backend
    failure on any question ends the run and reaches the caller.
    """
    params = params or GenerationParams()
    results: list[QuestionResult] = []
    started = time.monotonic()
    for question in builtin_questions():
        q_start = time.monotonic()
        correct = question.grade(backend.complete(CompletionRequest(question.prompt, params)).text)
        results.append(QuestionResult(question.id, correct, (time.monotonic() - q_start) * 1000.0))
    elapsed = time.monotonic() - started
    accuracy = sum(r.correct for r in results) / len(results) if results else 0.0
    return BenchResult(
        results=tuple(results),
        accuracy=accuracy,
        elapsed_s=elapsed,
        backend_id=backend.backend_id,
    )
