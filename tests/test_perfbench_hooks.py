"""The benchmark's tracer wraps notepheno functions by name and observes their
results: these tests fail when a change to the package breaks those hooks,
without running the benchmark itself."""
import importlib
import importlib.util
import json
import sys
import threading
import warnings
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from notepheno import cli, inference
from notepheno.inference import CompletionRequest, HttpBackend, MockBackend
from notepheno.prompting import builtin_profiles, render_prompt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load(TRACING, "perfbench_tracing")


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


def test_the_request_counter_counts_the_requests_of_the_manifest(tracing, tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # stage.py imports it by that name
    stage = _load(TRACING.with_name("stage.py"), "perfbench_stage")
    for name in stage.BACKENDS:  # so that each wrapped `complete` is restored
        monkeypatch.setattr(getattr(inference, name), "complete", getattr(inference, name).complete)
    counts: dict = {}
    stage.count_backend_calls(inference, counts)
    corpus, det = tmp_path / "corpus", tmp_path / "det"
    assert cli.main(["synth", "--n-patients", "20", "--prevalence", "diabetes=0.3", "--seed", "7",
                     "--out", str(corpus)]) == 0
    assert cli.main(["detect", "--corpus", str(corpus), "--no-preprocess", "--mock",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(det)]) == 0
    requests = json.loads((det / "manifest_detect.json").read_text(encoding="utf-8"))["backend_requests"]
    assert counts["MockBackend"]["calls"] == counts["CachedBackend"]["calls"] == requests > 0


def test_http_backend_reads_the_replies_of_the_benchmark_stub():
    stub = _load(TRACING.with_name("stub.py"), "perfbench_stub")
    server = ThreadingHTTPServer(("127.0.0.1", 0), stub.make_handler(MockBackend(), stub._Stats()))
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    mock = MockBackend()
    note = "Known diabetes on insulin, STEMI last year, htn. Glucose - mmol/l random : 13.0 mmol/l. Plan unchanged."
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        backend = HttpBackend(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            for profile in builtin_profiles():
                for kind in ("inference", "extraction"):
                    request = CompletionRequest(render_prompt(profile, kind, note).text)
                    assert backend.complete(request).text == mock.complete(request).text, (profile.name, kind)
        finally:
            del backend  # closes this thread's keep-alive connection, so the handler thread ends
            server.shutdown()
            server.server_close()  # joins the handler threads
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
