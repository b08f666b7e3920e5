"""The benchmark's tracer wraps notepheno functions by name and observes their
results: these tests fail when a change to the package breaks those hooks,
without running the benchmark itself."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from notepheno.inference import CompletionRequest, MockBackend
from notepheno.prompting import builtin_profiles, render_prompt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def _resolve(name: str):
    layer, *path = name.split(".")
    owner = importlib.import_module(f"notepheno.{layer}")
    for part in path:
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_target_is_a_notepheno_callable(tracing):
    missing = [name for name in tracing.TARGETS if not callable(_resolve(name))]
    assert not missing


def test_observers_accept_real_results(tracing):
    diabetes = next(p for p in builtin_profiles() if p.name == "diabetes")
    note = "Known diabetes on insulin. Glucose - mmol/l random : 13.0 mmol/l. Plan unchanged."
    prompt = render_prompt(diabetes, "inference", note).text
    calls = {
        "preprocess.sentence_spans": (note,),
        "prompting.render_prompt": (diabetes, "inference", note),
        "inference.chunk_text": (note, 40),
        "adjudication.parse_inference_response": ("Yes, the patient has diabetes.",),
        "adjudication.parse_extraction_response": ("glucose: 13.0 mmol/L", "glucose"),
        "inference.MockBackend.complete": (MockBackend(), CompletionRequest(prompt)),
    }
    tracer = tracing.Tracer()
    results = {}
    for name, args in calls.items():
        record = tracer.open(name)
        results[name] = _resolve(name)(*args)
        tracer.close(record)
        tracing._OBSERVERS[name](tracer, record, args, results[name])
    assert tracer.counts == {
        "preprocess.sentences_scanned": len(results["preprocess.sentence_spans"]),
        "prompting.prompt_chars": len(results["prompting.render_prompt"].text),
        "inference.chunks": len(results["inference.chunk_text"]),
        "inference.oversized_chunks": 0,
        "adjudication.inference_yes": 1,
        "adjudication.measurements": len(results["adjudication.parse_extraction_response"]),
    }
    assert tracer.counts["inference.chunks"] > 1
    assert tracer.counts["adjudication.measurements"] == 1
    complete = next(s for s in tracer.spans if s[tracing.NAME] == "inference.MockBackend.complete")
    assert complete[tracing.EXTRA] == tracing.prompt_digest(prompt)
