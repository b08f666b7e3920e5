"""Text-completion backends: HTTP client with retry, response cache, chunking, mock."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from .preprocess import keyword_regex, sentence_spans

__all__ = [
    "GenerationParams",
    "CompletionRequest",
    "CompletionResponse",
    "Backend",
    "BackendError",
    "TransportError",
    "HttpBackend",
    "ResponseCache",
    "CachedBackend",
    "MockBackend",
    "MockTrigger",
    "default_mock_triggers",
    "Chunk",
    "chunk_text",
    "run_parallel",
    "worker_pool",
]

logger = logging.getLogger(__name__)

ENV_BACKEND_URL = "NOTEPHENO_BACKEND_URL"
ENV_API_KEY = "NOTEPHENO_API_KEY"
ENV_PARALLELISM = "NOTEPHENO_PARALLELISM"
ENV_CACHE_DIR = "NOTEPHENO_CACHE_DIR"

DEFAULT_CHUNK_BUDGET = 12000
DEFAULT_PARALLELISM = 4


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.5
    top_p: float = 0.9
    top_k: int = 50
    max_new_tokens: int = 512
    model_id: str = "local-completion-model"

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be in [0, 1]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.top_k <= 1:
            raise ValueError("top_k must be > 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    params: GenerationParams = GenerationParams()


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    latency_ms: float
    backend_id: str


class BackendError(RuntimeError):
    """The backend returned a well-formed error payload; never retried."""


class TransportError(RuntimeError):
    """Transport-level failure that persisted through all retries."""


class Backend(Protocol):
    backend_id: str

    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


class _ThreadConnection:
    """One thread's keep-alive connection, closed when that thread's locals go."""

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn

    def __del__(self) -> None:
        self.conn.close()


# A reused keep-alive connection the server has since closed fails with one of
# these before any response arrives (http.client.RemoteDisconnected is a
# ConnectionResetError).
_STALE_CONNECTION_ERRORS = (BrokenPipeError, ConnectionResetError)


class HttpBackend:
    """Completion client for a local inference server's completion route.

    Each worker thread keeps one keep-alive connection. Transient transport
    failures (connection errors, timeouts, 5xx) are retried with exponential
    backoff; 4xx error payloads, 3xx redirects and malformed 200 bodies are
    surfaced immediately. Proxy environment variables are not consulted, and
    HTTPS verifies against the system CA store.
    """

    def __init__(
        self,
        base_url: str,
        route: str = "/v1/completions",
        api_key: str | None = None,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_s: float = 0.5,
    ) -> None:
        # Imported here, not at module level: http.client (and the email
        # package under it) costs every stage process tens of milliseconds,
        # and only runs against an HTTP backend need it.
        import http.client
        from urllib.parse import urlsplit

        self.url = base_url.rstrip("/") + route
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise BackendError(f"backend URL must be http:// or https://, got {self.url!r}")
        self._connection_cls = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._host = parts.hostname
        self._port = parts.port or self._connection_cls.default_port
        self._path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._transport_errors = (OSError, http.client.HTTPException)
        self._local = threading.local()
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backend_id = f"http:{self.url}"

    @classmethod
    def from_env(cls) -> "HttpBackend":
        url = os.environ.get(ENV_BACKEND_URL)
        if not url:
            raise BackendError(f"{ENV_BACKEND_URL} is not set")
        return cls(url)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    @staticmethod
    def _extract_text(payload) -> str:
        if isinstance(payload, dict):
            for key in ("text", "content", "completion"):
                if isinstance(payload.get(key), str):
                    return payload[key]
            choices = payload.get("choices")
            if isinstance(choices, list) and choices:
                choice = choices[0]
                if isinstance(choice.get("text"), str):
                    return choice["text"]
                message = choice.get("message")
                if isinstance(message, dict) and isinstance(message.get("content"), str):
                    return message["content"]
        raise BackendError(f"unrecognized completion payload: {str(payload)[:200]}")

    def _connection(self) -> http.client.HTTPConnection:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = _ThreadConnection(
                self._connection_cls(self._host, self._port, timeout=self.timeout)
            )
        return held.conn

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """POST on this thread's connection; (status, body) of the reply.

        A reused connection that fails before any response arrives is closed
        and the request resent once on a new one: keep-alive servers close
        idle connections, and that costs neither a retry nor a backoff.
        """
        conn = self._connection()
        reused = conn.sock is not None  # a closed connection reconnects on request()
        try:
            try:
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            # A failed exchange leaves the connection mid-message; the next
            # request must start on a new one.
            conn.close()
            raise

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        params = request.params
        body = json.dumps(
            {
                "model": params.model_id,
                "prompt": request.prompt,
                "temperature": params.temperature,
                "top_p": params.top_p,
                "top_k": params.top_k,
                "max_tokens": params.max_new_tokens,
            }
        ).encode("utf-8")
        headers = self._headers()
        started = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                status, data = self._post(body, headers)
            except self._transport_errors as exc:
                last_error = exc
                logger.warning("transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                logger.warning("server error %d (attempt %d)", status, attempt + 1)
                continue
            if status >= 300:  # 4xx, and 3xx: redirects are not followed
                raise BackendError(
                    f"backend rejected request ({status}): "
                    f"{data.decode('utf-8', errors='replace')[:200]}"
                )
            try:
                payload = json.loads(data)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
                raise BackendError(f"completion body is not JSON: {data[:200]!r}") from exc
            text = self._extract_text(payload)
            latency = (time.monotonic() - started) * 1000.0
            return CompletionResponse(text=text, latency_ms=latency, backend_id=self.backend_id)
        raise TransportError(f"backend unreachable after {self.max_retries + 1} attempts") from last_error


class ResponseCache:
    """Content-addressed directory of response files; exact-key lookups only."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(request: CompletionRequest) -> str:
        params = request.params
        payload = json.dumps(
            {
                "model_id": params.model_id,
                "temperature": params.temperature,
                "top_p": params.top_p,
                "top_k": params.top_k,
                "max_new_tokens": params.max_new_tokens,
                "prompt": request.prompt,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.txt"

    def get(self, request: CompletionRequest) -> str | None:
        path = self._path(self.key(request))
        if path.exists():
            return path.read_text(encoding="utf-8")
        return None

    def put(self, request: CompletionRequest, text: str) -> None:
        # Concurrent writers of the same key both land the same content;
        # os.replace keeps readers from ever seeing a partial file. Each
        # writer, thread or process, fills its own temporary file.
        path = self._path(self.key(request))
        tmp = path.with_name(path.name + f".tmp{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


class CachedBackend:
    """Wrap a backend with a response cache; tracks hits and misses."""

    def __init__(self, inner: Backend, cache: ResponseCache) -> None:
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        cached = self.cache.get(request)
        if cached is not None:
            with self._count_lock:
                self.hits += 1
            return CompletionResponse(text=cached, latency_ms=0.0, backend_id=self.backend_id)
        with self._count_lock:
            self.misses += 1
        response = self.inner.complete(request)
        self.cache.put(request, response.text)
        return response


@dataclass(frozen=True)
class Chunk:
    text: str
    oversized: bool = False


def chunk_text(text: str, max_units: int = DEFAULT_CHUNK_BUDGET) -> list[Chunk]:
    """Greedily pack sentences into chunks no longer than max_units characters.

    Splits happen only at sentence boundaries, so the chunks concatenate back
    to the input exactly. A single sentence longer than the budget becomes its
    own chunk with the oversized flag set.
    """
    if max_units < 1:
        raise ValueError("max_units must be positive")
    if len(text) <= max_units:
        return [Chunk(text)] if text else []
    chunks: list[Chunk] = []
    current: list[str] = []
    current_len = 0
    for start, end in sentence_spans(text):
        sentence = text[start:end]
        if current_len + len(sentence) > max_units and current:
            chunks.append(Chunk("".join(current)))
            current, current_len = [], 0
        if len(sentence) > max_units:
            chunks.append(Chunk(sentence, oversized=True))
            continue
        current.append(sentence)
        current_len += len(sentence)
    if current:
        chunks.append(Chunk("".join(current)))
    return chunks


@dataclass(frozen=True)
class MockTrigger:
    """Per-condition behaviour of the deterministic mock backend."""

    condition_phrase: str  # how the inference template names the condition
    positive_tokens: tuple[str, ...]
    analyte: str
    response_name: str  # condition wording used in canned responses


def default_mock_triggers() -> dict[str, MockTrigger]:
    return {
        "ami": MockTrigger(
            condition_phrase="acute myocardial infarction",
            positive_tokens=(
                "acute myocardial infarction",
                "myocardial infarction",
                "stemi",
                "non-stemi",
                "nstemi",
                "ami",
            ),
            analyte="troponin",
            response_name="acute myocardial infarction (AMI)",
        ),
        "diabetes": MockTrigger(
            condition_phrase="diabetes",
            positive_tokens=("diabetes", "diabetic"),
            analyte="glucose",
            response_name="diabetes",
        ),
        "hypertension": MockTrigger(
            condition_phrase="hypertension",
            positive_tokens=("hypertension", "hypertensive", "htn"),
            analyte="blood_pressure",
            response_name="hypertension",
        ),
    }


_EXTRACT_PROMPT_RE = re.compile(
    r"^Find all the key-value pairs of (.+?) from the given text: (.*)$", re.DOTALL
)
_INFER_PREFIX = "Analyze the clinical text: '"

_MOCK_GLUCOSE_RE = re.compile(
    r"((?:poct\s+)?(?:blood\s+)?glucose[^:\n]*?)\s*:\s*(\d+(?:\.\d+)?)\s*mmol/l",
    re.IGNORECASE,
)
_MOCK_TROPONIN_RE = re.compile(
    r"troponin[^\d\n]{0,60}?(\d+(?:\.\d+)?)\s*(ng/m?L|ng/m?l)", re.IGNORECASE
)
_MOCK_BP_RE = re.compile(r"(systolic|diastolic)\s*:?\s*(\d{2,3})", re.IGNORECASE)


class MockBackend:
    """Deterministic stand-in for the completion backend.

    Inference prompts answer "Yes, ..." iff any configured positive token
    occurs word-bounded in the embedded text; extraction prompts echo each
    matching key-value lab pattern, one per line. Optional flip rates turn
    inference verdicts over at a seeded per-prompt probability, for simulating
    an imperfect model.
    """

    backend_id = "mock"

    def __init__(
        self,
        triggers: Mapping[str, MockTrigger] | None = None,
        flip_fn_rate: float = 0.0,
        flip_fp_rate: float = 0.0,
        flip_seed: int = 0,
        latency_ms: float = 0.0,
    ) -> None:
        self.triggers = dict(triggers) if triggers is not None else default_mock_triggers()
        self.flip_fn_rate = flip_fn_rate
        self.flip_fp_rate = flip_fp_rate
        self.flip_seed = flip_seed
        self.latency_ms = latency_ms
        self._token_patterns = {
            name: keyword_regex(trig.positive_tokens) for name, trig in self.triggers.items()
        }

    def _flip_roll(self, prompt: str) -> float:
        digest = hashlib.sha256(f"{self.flip_seed}:{prompt}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big")).random()

    def _find_trigger_for_tail(self, tail: str) -> tuple[str, MockTrigger]:
        lowered = tail.lower()
        best = None
        for name, trigger in self.triggers.items():
            idx = lowered.find("identify " + trigger.condition_phrase.lower())
            if idx >= 0 and (best is None or idx < best[0]):
                best = (idx, name, trigger)
        if best is None:
            raise ValueError(f"mock backend cannot identify condition in prompt tail: {tail[:120]!r}")
        return best[1], best[2]

    def _trigger_for_analyte_phrase(self, phrase: str) -> MockTrigger:
        lowered = phrase.lower()
        if "troponin" in lowered:
            return next(t for t in self.triggers.values() if t.analyte == "troponin")
        if "glucose" in lowered or "sugar" in lowered:
            return next(t for t in self.triggers.values() if t.analyte == "glucose")
        if "pressure" in lowered:
            return next(t for t in self.triggers.values() if t.analyte == "blood_pressure")
        raise ValueError(f"mock backend cannot map analyte phrase {phrase!r}")

    def _extraction_response(self, trigger: MockTrigger, text: str, phrase: str) -> str:
        lines: list[str] = []
        if trigger.analyte == "glucose":
            for match in _MOCK_GLUCOSE_RE.finditer(text):
                key = re.sub(r"\s+", " ", match.group(1)).strip()
                lines.append(f"{key}: {match.group(2)} mmol/l")
        elif trigger.analyte == "troponin":
            for match in _MOCK_TROPONIN_RE.finditer(text):
                lines.append(f"troponin level: {match.group(1)} {match.group(2)}")
        else:
            for match in _MOCK_BP_RE.finditer(text):
                lines.append(f"blood pressure {match.group(1).lower()}: {match.group(2)}")
        if not lines:
            return f"There are no key-value pairs of {phrase} in the given text."
        return "\n".join(lines)

    def _inference_response(self, prompt: str) -> str:
        idx = prompt.rfind("', ")
        if not prompt.startswith(_INFER_PREFIX) or idx < 0:
            raise ValueError(f"mock backend cannot parse prompt: {prompt[:120]!r}")
        embedded = prompt[len(_INFER_PREFIX) : idx]
        tail = prompt[idx:]
        name, trigger = self._find_trigger_for_tail(tail)
        match = self._token_patterns[name].search(embedded)
        positive = match is not None
        if self.flip_fn_rate or self.flip_fp_rate:
            roll = self._flip_roll(prompt)
            if positive and roll < self.flip_fn_rate:
                positive = False
                match = None
            elif not positive and roll < self.flip_fp_rate:
                positive = True
        if positive:
            response = f"Yes, the text identifies {trigger.response_name}."
            if prompt.rstrip().endswith("judgement.") and match is not None:
                response += f' Supporting text: "{match.group(0)}".'
            return response
        return (
            f"No, there is no clear mention of {trigger.response_name} "
            "in the given clinical text."
        )

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        prompt = request.prompt
        extract = _EXTRACT_PROMPT_RE.match(prompt)
        if extract:
            phrase = extract.group(1)
            trigger = self._trigger_for_analyte_phrase(phrase)
            text = self._extraction_response(trigger, extract.group(2), phrase)
        else:
            text = self._inference_response(prompt)
        return CompletionResponse(
            text=text, latency_ms=self.latency_ms, backend_id=self.backend_id
        )


@contextmanager
def worker_pool(parallelism: int) -> Iterator[ThreadPoolExecutor | None]:
    """One set of worker threads for a whole stage, passed to each run_parallel.

    The threads, and the keep-alive connection each keeps to an HTTP backend,
    outlive single dispatches, so a stage opens at most `parallelism`
    connections. Yields None at parallelism 1: requests then run inline.
    """
    if parallelism <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        yield pool


def run_parallel(
    backend: Backend,
    requests_seq: Sequence[CompletionRequest],
    parallelism: int = DEFAULT_PARALLELISM,
    pool: Executor | None = None,
) -> list[CompletionResponse]:
    """Complete requests concurrently, preserving input order.

    With `pool` every request runs on its workers; without, a pool of
    `parallelism` threads serves this call alone, and parallelism 1 (or a
    single request) runs inline on the calling thread.
    """
    if pool is not None:
        return list(pool.map(backend.complete, requests_seq))
    if parallelism <= 1 or len(requests_seq) <= 1:
        return [backend.complete(r) for r in requests_seq]
    with ThreadPoolExecutor(max_workers=parallelism) as own_pool:
        return list(own_pool.map(backend.complete, requests_seq))
