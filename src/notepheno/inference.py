"""Text-completion backends: HTTP client with retry, response cache, chunking, mock."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence

from .corpus import Checked
from .preprocess import keyword_regex, sentence_spans
from .prompting import PLACEHOLDER, ConditionProfile, builtin_profiles

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
    "Chunk",
    "chunk_text",
    "run_parallel",
]

logger = logging.getLogger(__name__)

ENV_API_KEY = "NOTEPHENO_API_KEY"
COMPLETION_ROUTE = "/v1/completions"  # appended to the backend's base URL
REQUEST_TIMEOUT_S = 120.0  # per socket operation of an HTTP request

DEFAULT_CHUNK_BUDGET = 12000
DEFAULT_PARALLELISM = 4


class _GenerationParamsFields(NamedTuple):
    temperature: float = 0.5
    top_p: float = 0.9
    top_k: int = 50
    max_new_tokens: int = 512
    model_id: str = "local-completion-model"


class GenerationParams(Checked, _GenerationParamsFields):
    """The sampling settings sent with every request."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be in [0, 1]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.top_k <= 1:
            raise ValueError("top_k must be > 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")


class CompletionRequest(NamedTuple):
    prompt: str
    params: GenerationParams = GenerationParams()


class CompletionResponse(NamedTuple):
    text: str


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

    max_retries = 3  # retries after the first attempt
    backoff_s = 0.5  # the wait before the first retry; it doubles for each later one

    def __init__(self, base_url: str, api_key: str | None = None) -> None:
        # Imported here, not at module level: http.client (and the email
        # package under it) costs every stage process tens of milliseconds,
        # and only runs against an HTTP backend need it.
        import http.client
        from urllib.parse import urlsplit

        self.url = base_url.rstrip("/") + COMPLETION_ROUTE
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
        api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.backend_id = f"http:{self.url}"

    @staticmethod
    def _extract_text(payload) -> str:
        if isinstance(payload, dict):
            for key in ("text", "content", "completion"):
                if isinstance(payload.get(key), str):
                    return payload[key]
            choices = payload.get("choices")
            if isinstance(choices, list) and choices and isinstance(choices[0], dict):
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
                self._connection_cls(self._host, self._port, timeout=REQUEST_TIMEOUT_S)
            )
        return held.conn

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST on this thread's connection; (status, body) of the reply.

        A reused connection that fails before any response arrives is closed
        and the request resent once on a new one: keep-alive servers close
        idle connections, and that costs neither a retry nor a backoff.
        """
        conn = self._connection()
        reused = conn.sock is not None  # a closed connection reconnects on request()
        try:
            try:
                conn.request("POST", self._path, body, self._headers)
                response = conn.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._path, body, self._headers)
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
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except self._transport_errors as exc:
                # Without its traceback, which holds this frame, the kept
                # error makes no reference cycle.
                last_error = exc.with_traceback(None)
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
            return CompletionResponse(self._extract_text(payload))
        raise TransportError(f"backend unreachable after {self.max_retries + 1} attempts") from last_error


class ResponseCache:
    """Content-addressed directory of response files; exact-key lookups only."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(request: CompletionRequest) -> str:
        payload = json.dumps(
            {**request.params._asdict(), "prompt": request.prompt}, sort_keys=True, ensure_ascii=False
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
        # os.replace keeps readers from ever seeing a partial file. Each writer,
        # thread or process, fills its own temporary file, removed on failure.
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as exc:  # e.g. a lone surrogate from a JSON reply
            raise BackendError(f"reply cannot be stored in the cache: {exc}") from None
        path = self._path(self.key(request))
        tmp = path.with_name(path.name + f".tmp{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


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
            return CompletionResponse(cached)
        with self._count_lock:
            self.misses += 1
        response = self.inner.complete(request)
        self.cache.put(request, response.text)
        return response


class Chunk(NamedTuple):
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

    It answers the prompts of the built-in templates: a prompt belongs to the
    template whose text before and after the placeholder it carries, and the
    note is the text between them. Inference prompts answer "Yes, ..." iff
    one of the condition's positive tokens occurs word-bounded in the note;
    extraction prompts echo each lab pattern of the condition's analyte, one
    per line. Any other prompt is a BackendError.
    """

    backend_id = "mock"

    # The words that make the mock answer Yes. The first one names the
    # condition in replies, with the condition's name in capitals after it
    # where the two differ.
    POSITIVE_TOKENS = {
        "ami": ("acute myocardial infarction", "myocardial infarction",
                "stemi", "non-stemi", "nstemi", "ami"),
        "diabetes": ("diabetes", "diabetic"),
        "hypertension": ("hypertension", "hypertensive", "htn"),
    }

    def __init__(self) -> None:
        # (prefix, suffix, profile, kind) of every built-in template
        self._templates = [
            (*template.split(PLACEHOLDER), profile, kind)
            for profile in builtin_profiles()
            for kind, template in (
                ("inference", profile.inference_template),
                ("extraction", profile.extraction_template),
            )
        ]
        self._token_patterns = {
            name: keyword_regex(tokens) for name, tokens in self.POSITIVE_TOKENS.items()
        }

    def _recognise(self, prompt: str) -> tuple[ConditionProfile, str, str]:
        """The profile, kind and note of a prompt rendered from a built-in template."""
        for prefix, suffix, profile, kind in self._templates:
            end = len(prompt) - len(suffix)
            if end >= len(prefix) and prompt.startswith(prefix) and prompt.endswith(suffix):
                return profile, kind, prompt[len(prefix) : end]
        raise BackendError(f"mock backend does not recognise the prompt: {prompt[:120]!r}")

    def _extraction_response(self, analyte: str, note: str) -> str:
        lines: list[str] = []
        if analyte == "glucose":
            for match in _MOCK_GLUCOSE_RE.finditer(note):
                key = re.sub(r"\s+", " ", match.group(1)).strip()
                lines.append(f"{key}: {match.group(2)} mmol/l")
        elif analyte == "troponin":
            for match in _MOCK_TROPONIN_RE.finditer(note):
                lines.append(f"troponin level: {match.group(1)} {match.group(2)}")
        else:
            for match in _MOCK_BP_RE.finditer(note):
                lines.append(f"blood pressure {match.group(1).lower()}: {match.group(2)}")
        if not lines:
            return f"There are no key-value pairs of {analyte.replace('_', ' ')} in the given text."
        return "\n".join(lines)

    def _inference_response(self, condition: str, note: str) -> str:
        first = self.POSITIVE_TOKENS[condition][0]
        name = first if first == condition else f"{first} ({condition.upper()})"
        if self._token_patterns[condition].search(note):
            return f"Yes, the text identifies {name}."
        return f"No, there is no clear mention of {name} in the given clinical text."

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        profile, kind, note = self._recognise(request.prompt)
        if kind == "inference":
            text = self._inference_response(profile.name, note)
        else:
            text = self._extraction_response(profile.rule.analyte, note)
        return CompletionResponse(text)


def run_parallel(fn: Callable, items: Sequence, parallelism: int = DEFAULT_PARALLELISM) -> list:
    """Apply `fn` to every item on `parallelism` worker threads, in input order.

    A stage makes one call for all its requests, so the pool, and the
    keep-alive connection each worker keeps to an HTTP backend, lives for the
    whole stage: at most `parallelism` connections. Parallelism 1, or a single
    item, runs inline on the calling thread. The first exception an item
    raises cancels the items not yet started and propagates to the caller.
    A parallelism below 1 raises ValueError.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    if parallelism == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run pays for the import

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, items))
