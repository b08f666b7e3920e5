"""Backends, caching, chunking, and the deterministic mock."""
import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import DROP
from hypothesis import given, settings
from hypothesis import strategies as st

from notepheno import inference
from notepheno.inference import (
    BackendError,
    CachedBackend,
    CompletionRequest,
    CompletionResponse,
    GenerationParams,
    HttpBackend,
    MockBackend,
    ResponseCache,
    TransportError,
    chunk_text,
    run_parallel,
)
from notepheno.prompting import builtin_profiles, render_prompt


def test_generation_defaults():
    params = GenerationParams()
    assert (params.temperature, params.top_p, params.top_k) == (0.5, 0.9, 50)


def test_generation_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.5)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0.0)
    with pytest.raises(ValueError):
        GenerationParams(top_k=1)
    with pytest.raises(ValueError):
        GenerationParams(max_new_tokens=0)


# -- chunking ----------------------------------------------------------------

def test_chunk_short_text_is_single_chunk():
    assert chunk_text("short note.") == [chunk_text("short note.")[0]]
    assert chunk_text("") == []


def test_chunk_splits_at_sentence_boundaries():
    text = "One sentence here. " * 40
    chunks = chunk_text(text, max_units=100)
    assert all(len(c.text) <= 100 for c in chunks)
    assert "".join(c.text for c in chunks) == text
    assert all(not c.oversized for c in chunks)


def test_chunk_oversized_sentence_flagged():
    text = "a" * 250 + ". tail."
    chunks = chunk_text(text, max_units=100)
    assert chunks[0].oversized
    assert "".join(c.text for c in chunks) == text
    with pytest.raises(ValueError):
        chunk_text("x", max_units=0)


@given(st.text(max_size=500), st.integers(min_value=5, max_value=200))
@settings(max_examples=200)
def test_chunks_concatenate_to_input(text, budget):
    chunks = chunk_text(text, budget)
    assert "".join(c.text for c in chunks) == text
    for c in chunks:
        assert c.oversized or len(c.text) <= budget


# -- http backend ------------------------------------------------------------
# Against a real local server (conftest.ScriptedServer); backoff sleeps are
# recorded instead of slept.

@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(inference.time, "sleep", slept.append)
    return slept


def test_http_success_payload_shapes(scripted_server):
    payloads = (
        {"text": "ok"},
        {"completion": "ok"},
        {"choices": [{"text": "ok"}]},
        {"choices": [{"message": {"content": "ok"}}]},
    )
    server = scripted_server([(200, payload) for payload in payloads])
    backend = HttpBackend(server.url, api_key="secret")
    for _ in payloads:
        assert backend.complete(CompletionRequest("p")).text == "ok"
    assert server.connections == 1  # one keep-alive connection carried all four
    headers, body = server.received[0]
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {
        "model": "local-completion-model",
        "prompt": "p",
        "temperature": 0.5,
        "top_p": 0.9,
        "top_k": 50,
        "max_tokens": 512,
    }


def test_http_4xx_not_retried(scripted_server, sleeps):
    for status, body in ((400, b"bad request"), (307, b"moved")):  # redirects not followed
        server = scripted_server([(status, body)])
        with pytest.raises(BackendError, match=f"{status}.*{body.decode()}"):
            HttpBackend(server.url).complete(CompletionRequest("p"))
        assert server.calls == 1
    assert sleeps == []


def test_http_5xx_retried_then_succeeds(scripted_server, sleeps):
    server = scripted_server([(503, {"error": "busy"}), DROP, (200, {"text": "ok"})])
    response = HttpBackend(server.url, backoff_s=0.25).complete(CompletionRequest("p"))
    assert response.text == "ok"
    assert server.calls == 3
    # The drop hit the connection the 503 kept alive, so the request was
    # resent at once on a new one: one backoff in all.
    assert sleeps == [0.25]


def test_http_exhausted_retries_raise_transport_error(scripted_server, sleeps):
    server = scripted_server([DROP])
    with pytest.raises(TransportError, match="after 4 attempts"):
        HttpBackend(server.url, backoff_s=0.25).complete(CompletionRequest("p"))
    assert server.calls == 4  # a drop on a new connection is a failed attempt
    assert sleeps == [0.25, 0.5, 1.0]


def test_http_unrecognized_payload(scripted_server):
    for payload, message in (
        ({"weird": 1}, "unrecognized"),
        (b"<html><body>502 Bad Gateway</body></html>", "not JSON"),
        (b"\x80\x81 not utf-8", "not JSON"),
    ):
        server = scripted_server([(200, payload)])
        with pytest.raises(BackendError, match=message):
            HttpBackend(server.url).complete(CompletionRequest("p"))
        assert server.calls == 1


def test_http_url_scheme_selects_transport(scripted_server):
    with pytest.raises(BackendError, match="http"):
        HttpBackend("localhost:8000")
    server = scripted_server([(200, {"text": "ok"})])
    tls = HttpBackend(server.url.replace("http://", "https://"), max_retries=0)
    with pytest.raises(TransportError):
        tls.complete(CompletionRequest("p"))
    assert server.calls == 0  # the plain-HTTP server got a TLS handshake, not a POST


def test_http_idle_connection_closed_by_server_is_replaced_without_backoff(
    scripted_server, sleeps
):
    server = scripted_server([(200, {"text": "first"}), (200, {"text": "second"})])
    backend = HttpBackend(server.url, backoff_s=30.0)
    assert backend.complete(CompletionRequest("p")).text == "first"
    server.close_idle_connections()
    assert backend.complete(CompletionRequest("p")).text == "second"
    assert sleeps == []
    assert (server.calls, server.connections) == (2, 2)


def test_http_threads_keep_one_connection_each(scripted_server):
    server = scripted_server([(200, {"text": "ok"})])
    backend = HttpBackend(server.url)
    responses = run_parallel(backend, [CompletionRequest(f"q{i}") for i in range(40)], 4)
    assert [r.text for r in responses] == ["ok"] * 40
    assert server.calls == 40
    assert server.connections <= 4


# -- cache -------------------------------------------------------------------

class _CountingBackend:
    backend_id = "counting"

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return CompletionResponse(f"answer:{request.prompt}", 0.0, self.backend_id)


def test_cache_key_depends_on_prompt_and_params():
    a = CompletionRequest("p1")
    b = CompletionRequest("p2")
    c = CompletionRequest("p1", GenerationParams(temperature=0.7))
    assert ResponseCache.key(a) != ResponseCache.key(b)
    assert ResponseCache.key(a) != ResponseCache.key(c)
    assert ResponseCache.key(a) == ResponseCache.key(CompletionRequest("p1"))


def test_cached_backend_warm_cache_hits(tmp_path):
    inner = _CountingBackend()
    backend = CachedBackend(inner, ResponseCache(tmp_path))
    first = backend.complete(CompletionRequest("hello"))
    second = backend.complete(CompletionRequest("hello"))
    assert first.text == second.text == "answer:hello"
    assert inner.calls == 1
    assert (backend.hits, backend.misses) == (1, 1)
    # a fresh wrapper over the same directory is fully warm
    rewarmed = CachedBackend(_CountingBackend(), ResponseCache(tmp_path))
    rewarmed.complete(CompletionRequest("hello"))
    assert rewarmed.inner.calls == 0
    assert rewarmed.misses == 0


def test_cache_put_same_key_from_many_threads(tmp_path):
    cache = ResponseCache(tmp_path)
    request = CompletionRequest("same prompt")

    def write(_):
        for _ in range(200):
            cache.put(request, "same answer")

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(write, i) for i in range(8)]
        for future in futures:
            future.result(timeout=60)
    assert cache.get(request) == "same answer"
    assert [p.name for p in tmp_path.iterdir()] == [f"{ResponseCache.key(request)}.txt"]


# -- mock backend ------------------------------------------------------------

def _profile(name):
    return next(p for p in builtin_profiles() if p.name == name)


def test_mock_inference_detects_trigger_tokens():
    backend = MockBackend()
    prompt = render_prompt(_profile("ami"), "inference", "Diagnosed with NSTEMI yesterday.").text
    assert backend.complete(CompletionRequest(prompt)).text.startswith("Yes,")
    prompt = render_prompt(_profile("ami"), "inference", "Family history unremarkable.").text
    assert backend.complete(CompletionRequest(prompt)).text.startswith("No,")
    # "mi" must not fire inside other words
    prompt = render_prompt(_profile("ami"), "inference", "The family was administered dinner.").text
    assert backend.complete(CompletionRequest(prompt)).text.startswith("No,")


def test_mock_routes_by_condition_not_by_note_content():
    backend = MockBackend()
    # a note mentioning hypertension, asked about diabetes, is negative
    prompt = render_prompt(_profile("diabetes"), "inference", "Longstanding hypertension.").text
    assert backend.complete(CompletionRequest(prompt)).text.startswith("No,")


def test_mock_extraction_echoes_lab_patterns():
    backend = MockBackend()
    prompt = render_prompt(
        _profile("diabetes"), "extraction", "glucose - mmol/l random : 13.4 mmol/l today"
    ).text
    text = backend.complete(CompletionRequest(prompt)).text
    assert "13.4 mmol/l" in text
    prompt = render_prompt(_profile("diabetes"), "extraction", "nothing measured").text
    text = backend.complete(CompletionRequest(prompt)).text
    assert text.startswith("There are no key-value pairs of")


def test_mock_evidence_prompt_quotes_supporting_text():
    backend = MockBackend()
    prompt = render_prompt(_profile("diabetes"), "evidence", "Known diabetes, on insulin.").text
    text = backend.complete(CompletionRequest(prompt)).text
    assert 'Supporting text: "diabetes"' in text


def test_mock_flips_are_deterministic():
    a = MockBackend(flip_fn_rate=0.5, flip_fp_rate=0.5, flip_seed=1)
    b = MockBackend(flip_fn_rate=0.5, flip_fp_rate=0.5, flip_seed=1)
    prompts = [
        render_prompt(_profile("diabetes"), "inference", f"note {i} diabetes noted.").text
        for i in range(40)
    ]
    answers_a = [a.complete(CompletionRequest(p)).text for p in prompts]
    answers_b = [b.complete(CompletionRequest(p)).text for p in prompts]
    assert answers_a == answers_b
    assert any(t.startswith("No,") for t in answers_a)  # some flips landed
    assert any(t.startswith("Yes,") for t in answers_a)


def test_run_parallel_preserves_order():
    backend = _CountingBackend()
    reqs = [CompletionRequest(f"q{i}") for i in range(20)]
    responses = run_parallel(backend, reqs, parallelism=4)
    assert [r.text for r in responses] == [f"answer:q{i}" for i in range(20)]


def _mock_pattern_per_token(tokens):
    """The mock's matcher as first written, kept as the reference: every token
    carries its own lookarounds."""
    return re.compile(
        "|".join(
            r"(?<!\w)" + re.escape(tok).replace(r"\ ", r"\s+") + r"(?!\w)"
            for tok in sorted(tokens, key=len, reverse=True)
        ),
        re.IGNORECASE,
    )


@st.composite
def _tokens_and_text(draw):
    tokens = draw(
        st.lists(st.text(alphabet="abAB-1 ", min_size=1, max_size=6), min_size=1, max_size=6)
    )
    pieces = st.sampled_from(tokens + [" ", "  ", "-", "x", "ab", "_", "\n", ". ", "é"])
    words = draw(st.lists(pieces, max_size=12))
    return tokens, "".join(w.upper() if draw(st.booleans()) else w for w in words)


@given(_tokens_and_text())
@settings(max_examples=300)
def test_mock_token_pattern_agrees_with_per_token_lookarounds(case):
    tokens, text = case
    trigger = inference.MockTrigger("the thing", tuple(tokens), "glucose", "the thing")
    pattern = MockBackend(triggers={"thing": trigger})._token_patterns["thing"]
    reference = _mock_pattern_per_token(tokens)
    assert [(m.span(), m.group(0)) for m in pattern.finditer(text)] == [
        (m.span(), m.group(0)) for m in reference.finditer(text)
    ]


@pytest.mark.parametrize("name", sorted(inference.default_mock_triggers()))
def test_mock_default_token_patterns_quote_what_the_reference_quotes(name):
    trigger = inference.default_mock_triggers()[name]
    pattern = MockBackend()._token_patterns[name]
    reference = _mock_pattern_per_token(trigger.positive_tokens)
    texts = [
        "Non-STEMI ruled in; acute  myocardial\ninfarction, prior AMI. family amity.",
        "Diabetic foot; diabetes mellitus; prediabetes; DIABETES-related.",
        "HTN on treatment, hypertensive urgency, hypertension-related, htnx.",
    ]
    for text in texts:
        assert [(m.span(), m.group(0)) for m in pattern.finditer(text)] == [
            (m.span(), m.group(0)) for m in reference.finditer(text)
        ]
