"""Stub completion server for the pipeline benchmark.

Speaks the `/v1/completions` schema over HTTP/1.1 keep-alive and answers
with `MockBackend`'s text, so labels match a `--mock` run byte for byte.
Each reply leaves at arrival + injected latency (FIXED_MS plus PER_KCHAR_MS
per 1,000 prompt characters), however long the answer took to compute.

    PYTHONPATH=src python3 perfbench/stub.py

prints `port <n>` once it listens on 127.0.0.1. `GET /stats` returns the
requests, prompt characters and per-request `[arrival, done]` times
(`time.monotonic`, shared by every process on the host) recorded since
the previous `GET /stats`, and clears them.
"""
from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from notepheno.inference import CompletionRequest, MockBackend

FIXED_MS = 10.0
PER_KCHAR_MS = 5.0


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.prompt_chars = 0
        self.spans: list[tuple[float, float]] = []

    def record(self, prompt_chars: int, arrival: float, done: float) -> None:
        with self.lock:
            self.requests += 1
            self.prompt_chars += prompt_chars
            self.spans.append((arrival, done))

    def drain(self) -> dict:
        with self.lock:
            out = {
                "requests": self.requests,
                "prompt_chars": self.prompt_chars,
                "spans": self.spans,
            }
            self.requests, self.prompt_chars, self.spans = 0, 0, []
        return out


def make_handler(backend: MockBackend, stats: _Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _reply(self, status: str, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode("ascii")
            # Headers and body leave in one write: separate writes stall on
            # Nagle plus delayed ACK and the stub, not the client, gets timed.
            self.wfile.write(head + body)

        def do_POST(self) -> None:  # noqa: N802 (http.server naming)
            arrival = time.monotonic()
            length = int(self.headers.get("Content-Length", 0))
            try:
                body = json.loads(self.rfile.read(length))
                prompt = body["prompt"]
                text = backend.complete(CompletionRequest(prompt)).text
            except (ValueError, KeyError, TypeError) as exc:
                self._reply("400 Bad Request", {"error": str(exc)})
                return
            due = arrival + (FIXED_MS + PER_KCHAR_MS * len(prompt) / 1000.0) / 1000.0
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._reply(
                "200 OK",
                {
                    "object": "text_completion",
                    "model": body.get("model", ""),
                    "choices": [{"index": 0, "text": text, "finish_reason": "stop"}],
                },
            )
            stats.record(len(prompt), arrival, time.monotonic())

        def do_GET(self) -> None:  # noqa: N802
            if self.path != "/stats":
                self._reply("404 Not Found", {"error": "not found"})
                return
            self._reply("200 OK", stats.drain())

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(MockBackend(), _Stats()))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
