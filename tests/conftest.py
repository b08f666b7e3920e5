"""Shared fixtures: tiny hand-built cohorts, scripted and flipping backends and a scripted server."""
from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
from datetime import date, datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from notepheno.corpus import ClinicalDocument, Patient, ReferenceLabel, generate_synthetic
from notepheno.inference import CompletionResponse, MockBackend
from notepheno.preprocess import sample_document_types
from notepheno.prompting import builtin_profiles


class ScriptedBackend:
    """Returns canned responses in order; records every prompt it saw."""

    backend_id = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        if not self.responses:
            raise AssertionError("scripted backend ran out of responses")
        return CompletionResponse(self.responses.pop(0))


class FlippingBackend(MockBackend):
    """MockBackend as an imperfect model: a seeded roll per prompt turns a
    "Yes," inference reply into "No." at fn_rate and a "No," one into "Yes."
    at fp_rate."""

    def __init__(self, fn_rate, fp_rate, seed=0):
        super().__init__()
        self.fn_rate, self.fp_rate, self.seed = fn_rate, fp_rate, seed

    def complete(self, request):
        response = super().complete(request)
        digest = hashlib.sha256(f"{self.seed}:{request.prompt}".encode("utf-8")).digest()
        roll = random.Random(int.from_bytes(digest[:8], "big")).random()
        if response.text.startswith("Yes,") and roll < self.fn_rate:
            return CompletionResponse("No.")
        if response.text.startswith("No,") and roll < self.fp_rate:
            return CompletionResponse("Yes.")
        return response


DROP = "drop"  # server outcome: read the request, close the connection, send nothing


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless an outcome closes the connection
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.opened(self.connection)

    def do_POST(self):  # noqa: N802 (http.server naming)
        body = self.rfile.read(int(self.headers["Content-Length"]))
        outcome = self.server.next_outcome(dict(self.headers), body)
        if outcome == DROP:
            self.close_connection = True
            return
        status, payload = outcome
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002
        pass


class ScriptedServer(ThreadingHTTPServer):
    """Local completion server that answers POSTs with scripted outcomes.

    Each outcome is DROP or (status, payload), payload being a JSON-able
    object or raw bytes. Outcomes are used in order and the last one repeats.
    The server counts the requests and the connections it accepted.
    """

    daemon_threads = True
    handler = _ScriptedHandler

    def __init__(self, outcomes):
        super().__init__(("127.0.0.1", 0), self.handler)
        self.outcomes = list(outcomes)
        self.lock = threading.Lock()
        self.calls = 0
        self.connections = 0
        self.received = []  # (headers, body) per request
        self._sockets = []

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def opened(self, sock):
        with self.lock:
            self.connections += 1
            self._sockets.append(sock)

    def next_outcome(self, headers, body):
        with self.lock:
            self.calls += 1
            self.received.append((headers, body))
            return self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]

    def close_idle_connections(self):
        """Close every accepted connection, as a server's keep-alive timeout does."""
        with self.lock:
            sockets, self._sockets = self._sockets, []
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # the handler already closed it
                pass


class _OneRequestPerConnection(_ScriptedHandler):
    protocol_version = "HTTP/1.0"  # the connection closes after every reply


class FirstSendDropped(ScriptedServer):
    """ScriptedServer that drops the first send of each request body and
    answers a repeat with the scripted outcomes. Every reply closes its
    connection, so each drop reaches the client as a failed attempt rather
    than as a stale keep-alive connection."""

    handler = _OneRequestPerConnection

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.seen = set()

    def next_outcome(self, headers, body):
        outcome = super().next_outcome(headers, body)
        with self.lock:
            first = body not in self.seen
            self.seen.add(body)
        return DROP if first else outcome


@pytest.fixture
def scripted_server():
    """Start server_cls(outcomes), a ScriptedServer by default, on a free
    port; shut down at teardown."""
    started = []

    def start(outcomes, server_cls=ScriptedServer):
        server = server_cls(outcomes)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def scripted_backend_cls():
    return ScriptedBackend


@pytest.fixture
def profiles():
    return builtin_profiles()


@pytest.fixture
def diabetes_profile(profiles):
    return next(p for p in profiles if p.name == "diabetes")


@pytest.fixture
def ami_profile(profiles):
    return next(p for p in profiles if p.name == "ami")


@pytest.fixture
def hypertension_profile(profiles):
    return next(p for p in profiles if p.name == "hypertension")


def record_prompts(monkeypatch, backend_cls):
    """Patch `backend_cls.complete` to record every prompt it is sent, from
    any thread; returns the list it appends to."""
    prompts = []
    lock = threading.Lock()
    inner = backend_cls.complete

    def recording(self, request):
        with lock:
            prompts.append(request.prompt)
        return inner(self, request)

    monkeypatch.setattr(backend_cls, "complete", recording)
    return prompts


def make_cohort(docs, labels=None):
    """The patients, labels and notes of a cohort, from (patient_id, doc_id,
    doc_type, text) tuples and (patient_id, condition, registry, icd) ones."""
    patients = {}
    documents = []
    for i, (pid, doc_id, doc_type, text) in enumerate(docs):
        if pid not in patients:
            patients[pid] = Patient(pid, date(2015, 3, 1))
        documents.append(
            ClinicalDocument(pid, doc_id, doc_type, datetime(2015, 3, 1, 8 + i), text)
        )
    label_objs = tuple(
        ReferenceLabel(pid, cond, reg, icd) for pid, cond, reg, icd in (labels or [])
    )
    return patients, label_objs, tuple(documents)


def synthesize(spec, profiles):
    """`generate_synthetic`'s stream held in memory: the patients by id, the
    labels (whose registry label is the planted truth) and a list of every
    note in file order."""
    patients, labels, notes = {}, [], []
    for patient, drawn, patient_labels in generate_synthetic(spec, profiles):
        patients[patient.patient_id] = patient
        notes += drawn
        labels += patient_labels
    return patients, tuple(labels), notes


def sampled_documents(notes, m, seed):
    """The notes `sample_document_types` picks from a sequence of notes, per type."""
    picked = sample_document_types(notes, m, seed)
    return {doc_type: [notes[at] for at in positions] for doc_type, positions in picked.items()}


@pytest.fixture
def small_notes():
    return make_cohort(
        [
            ("p1", "d1", "DischargeSummary", "Known type 2 diabetes, on metformin. Plan stable."),
            ("p1", "d2", "SocialWork", "Family visited today. Housing discussed."),
            ("p2", "d3", "DischargeSummary", "No acute issues. Glucose - mmol/l random : 6.1 mmol/l."),
            ("p3", "d4", "BloodLog", "Routine draw completed."),
        ]
    )[2]
