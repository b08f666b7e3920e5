"""Benchmark harness: matchers, scoring, and a dead backend."""
import socket

from notepheno import cli
from notepheno.bench import builtin_questions, run_benchmark
from notepheno.inference import HttpBackend


def _by_id():
    return {q.id: q for q in builtin_questions()}


def test_has_ten_questions():
    questions = builtin_questions()
    assert len(questions) == 10
    assert [q.id for q in questions] == [f"Q{i}" for i in range(1, 11)]


def test_each_matcher_accepts_its_expected_answer():
    for question in builtin_questions():
        assert question.grade(question.expected), question.id


def test_polarity_matchers():
    q = _by_id()
    assert q["Q1"].grade("No, those are diabetes tests, not sepsis tests.")
    assert not q["Q1"].grade("Yes, these detect sepsis.")
    assert q["Q2"].grade("Yes, all four are standard diabetes tests.")
    assert not q["Q4"].grade("No diabetes here.")


def test_numeric_matcher():
    q = _by_id()
    assert q["Q3"].grade("The systolic blood pressure is 119 mmHg.")
    assert not q["Q3"].grade("The systolic blood pressure is 190.")
    assert not q["Q3"].grade("It reads 1190.")


def test_keyword_matchers():
    q = _by_id()
    assert q["Q6"].grade("The three conditions are myocardial infarction, hypertension and diabetes.")
    assert not q["Q6"].grade("Only hypertension and diabetes are present.")
    assert q["Q9"].grade("Metformin treats diabetes; hydrochlorothiazide treats hypertension.")


def test_mixed_polarity_matchers():
    q = _by_id()
    assert q["Q8"].grade(
        "Highly likely that the patient has diabetes; almost certainly has hypertension."
    )
    assert not q["Q8"].grade("No, neither diabetes nor hypertension can be inferred.")
    assert q["Q10"].grade("Yes, the patient has diabetes but no MI or hypertension.")
    assert not q["Q10"].grade("Yes, the patient has diabetes, MI, and hypertension.")


def test_scripted_eight_of_ten_scores_exactly_eighty_percent(scripted_backend_cls):
    questions = builtin_questions()
    responses = [q.expected for q in questions]
    responses[2] = "unable to find a reading"  # Q3 wrong
    responses[6] = "No ST elevation discussed."  # Q7 wrong
    backend = scripted_backend_cls(responses)
    result = run_benchmark(backend)
    assert result.accuracy == 0.8
    wrong = {r.question_id for r in result.results if not r.correct}
    assert wrong == {"Q3", "Q7"}
    assert result.backend_id == "scripted"
    assert all(r.latency_ms >= 0.0 for r in result.results)


def test_bench_against_a_dead_backend_exits_2(tmp_path, monkeypatch, capsys):
    with socket.socket() as probe:  # a local port that nothing listens on once the probe closes
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    monkeypatch.setattr(HttpBackend, "backoff_s", 0.0)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--backend-url", f"http://127.0.0.1:{port}", "--out", str(out)]) == 2
    assert "backend error: backend unreachable" in capsys.readouterr().err
    assert not out.exists()
