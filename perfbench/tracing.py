"""Span tracer and per-layer analysis for the pipeline benchmark.

`Tracer.install()` wraps public functions of the notepheno modules from
outside: every module attribute bound to a wrapped function is rebound, so
names that `cli` and `inference` import (`cli.render_prompt`,
`inference.sentence_spans`, ...) are traced too. A span is
`[name, start, end, parent, thread, extra]`, kept in memory and written out
by the caller when the traced process ends. A target that no longer exists
is listed as absent, and the metrics that need it read "absent".

`analyze()` turns the spans of one traced pass into per-layer metrics. A
span's self time is its duration minus the part of it that its child spans
cover.
"""
from __future__ import annotations

import hashlib
import importlib
import sys
import threading
import time

LAYERS = ("corpus", "preprocess", "prompting", "inference", "adjudication", "evaluation", "cli")

TARGETS = (
    "corpus.load_cohort",
    "preprocess.sentence_spans",
    "preprocess.keyword_regex",
    "preprocess.sample_document_types",
    "preprocess.compute_information_relevance",
    "preprocess.filter_document_types",
    "preprocess.consolidate",
    "preprocess.retention_report",
    "prompting.builtin_profiles",
    "prompting.render_prompt",
    "inference.chunk_text",
    "inference.run_parallel",
    "inference.CachedBackend.complete",
    "inference.MockBackend.complete",
    "inference.HttpBackend.complete",
    "inference.ResponseCache.get",
    "inference.ResponseCache.put",
    "adjudication.parse_inference_response",
    "adjudication.parse_extraction_response",
    "adjudication.apply_clinical_rule",
    "adjudication.combine_chunk_statuses",
    "adjudication.merge_patient",
    "evaluation.confusion",
    "evaluation.metrics",
    "evaluation.combine_or",
    "cli.run_profile",
    "cli.run_detect",
)

COMPLETE_SPANS = (
    "inference.CachedBackend.complete",
    "inference.MockBackend.complete",
    "inference.HttpBackend.complete",
)
# The in-process backend, whose spans stand in for server-side service times
# when no stub server answers.
SERVED_SPAN = "inference.MockBackend.complete"

NAME, START, END, PARENT, THREAD, EXTRA = range(6)


def prompt_digest(prompt: str) -> str:
    return hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # Open run_parallel span: parent of spans opened on pool threads.
        self._dispatch: list | None = None

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._dispatch
        record = [name, time.monotonic(), 0.0, parent, threading.get_ident(), None]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.monotonic()
        self._stack().pop()
        self.spans.append(record)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        dispatch = name == "inference.run_parallel"
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer.open(name)
            if dispatch:
                outer, tracer._dispatch = tracer._dispatch, record
            try:
                result = fn(*args, **kwargs)
            finally:
                if dispatch:
                    tracer._dispatch = outer
                tracer.close(record)
            if observe is not None:
                observe(tracer, record, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"notepheno.{layer}") for layer in LAYERS}
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "notepheno"]
        for name in TARGETS:
            layer, *path = name.split(".")
            owner = modules[layer]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def export(self) -> dict:
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [
            [r[NAME], r[START], r[END], None if r[PARENT] is None else index[id(r[PARENT])],
             r[THREAD], r[EXTRA]]
            for r in self.spans
        ]
        return {"spans": spans, "counts": dict(self.counts), "absent": list(self.absent)}


def _count_sentences(tracer, record, args, result):
    tracer.add("preprocess.sentences_scanned", len(result))


def _count_prompt(tracer, record, args, result):
    tracer.add("prompting.prompt_chars", len(result.text))


def _count_chunks(tracer, record, args, result):
    tracer.add("inference.chunks", len(result))
    tracer.add("inference.oversized_chunks", sum(1 for chunk in result if chunk.oversized))


def _note_prompt(tracer, record, args, result):
    record[EXTRA] = prompt_digest(args[1].prompt)


def _count_status(tracer, record, args, result):
    tracer.add("adjudication.inference_" + result.name.lower(), 1)


def _count_measurements(tracer, record, args, result):
    tracer.add("adjudication.measurements", len(result))


_OBSERVERS = {
    "preprocess.sentence_spans": _count_sentences,
    "prompting.render_prompt": _count_prompt,
    "inference.chunk_text": _count_chunks,
    "adjudication.parse_inference_response": _count_status,
    "adjudication.parse_extraction_response": _count_measurements,
    **{name: _note_prompt for name in COMPLETE_SPANS},
}


# ---------------------------------------------------------------------------
# analysis

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def clipped(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile; None without samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def concurrency(intervals, lo: float, hi: float) -> tuple[float, float]:
    """(mean requests in flight, share of the window with none) over [lo, hi]."""
    inside = clipped(intervals, lo, hi)
    window = hi - lo
    if window <= 0:
        return 0.0, 1.0
    busy = sum(e - s for s, e in inside)
    return busy / window, 1.0 - covered(inside) / window


def analyze(stages: list[dict], parallelism: int) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced pass.

    `stages` holds, per stage process, `stage`, `wall` (`[start, end]` of the
    process as the benchmark saw it) and the tracer's `export()`.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    absent: set[str] = set()
    requests: list[float] = []
    digests: set[str] = set()
    served: list[tuple[float, float]] = []
    dispatch_wall = 0.0
    startup = 0.0
    detect_window = None
    for stage in stages:
        spans = stage["trace"]["spans"]
        absent.update(stage["trace"]["absent"])
        for key, value in stage["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
        children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append((span[START], span[END]))
        for i, span in enumerate(spans):
            name, duration = span[NAME], span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration - covered(children.get(i, ()))
            if name in COMPLETE_SPANS and (
                span[PARENT] is None or spans[span[PARENT]][NAME] not in COMPLETE_SPANS
            ):
                requests.append(duration)
                digests.add(span[EXTRA])
            if name == SERVED_SPAN:
                served.append((span[START], span[END]))
            if name == "inference.run_parallel":
                dispatch_wall += duration
            if name == f"cli.{stage['stage']}":
                startup += span[START] - stage["wall"][0]
                if stage["stage"] == "detect":
                    detect_window = (span[START], span[END])

    def known(*targets):
        return not any(t in absent for t in targets)

    def count_of(target):
        return calls.get(target, 0) if known(target) else None

    def seconds(target):
        return total.get(target, 0.0) if known(target) else None

    out: dict[str, float | int | None] = {}
    for stage in ("profile", "preprocess", "detect", "evaluate"):
        out[f"cli.{stage}.self_s"] = own.get(f"cli.{stage}", 0.0)
    out["cli.startup_s"] = startup
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    out["corpus.load_cohort.calls"] = count_of("corpus.load_cohort")
    out["corpus.load_cohort.s"] = seconds("corpus.load_cohort")
    out["preprocess.consolidate.calls"] = count_of("preprocess.consolidate")
    out["preprocess.consolidate.s"] = seconds("preprocess.consolidate")
    out["preprocess.consolidate.self_s"] = (
        own.get("preprocess.consolidate", 0.0) if known("preprocess.consolidate") else None
    )
    out["preprocess.sentence_spans.calls"] = count_of("preprocess.sentence_spans")
    out["preprocess.sentence_spans.s"] = seconds("preprocess.sentence_spans")
    out["preprocess.sentences_scanned"] = (
        counts.get("preprocess.sentences_scanned", 0) if known("preprocess.sentence_spans") else None
    )
    out["preprocess.retention_report.s"] = seconds("preprocess.retention_report")
    out["preprocess.sample_document_types.s"] = seconds("preprocess.sample_document_types")
    out["prompting.render_prompt.calls"] = count_of("prompting.render_prompt")
    out["prompting.render_prompt.s"] = seconds("prompting.render_prompt")
    out["prompting.prompt_kchars"] = (
        counts.get("prompting.prompt_chars", 0) / 1000.0 if known("prompting.render_prompt") else None
    )
    out["inference.chunk_text.calls"] = count_of("inference.chunk_text")
    out["inference.chunk_text.s"] = seconds("inference.chunk_text")
    for key in ("inference.chunks", "inference.oversized_chunks"):
        out[key] = counts.get(key, 0) if known("inference.chunk_text") else None
    backends_known = known(*COMPLETE_SPANS)
    out["inference.requests"] = len(requests) if backends_known else None
    out["inference.distinct_prompts"] = len(digests) if backends_known else None
    out["inference.unique_request_ratio"] = (
        len(digests) / len(requests) if backends_known and requests else None
    )
    out["inference.request_ms.p50"] = _ms(percentile(requests, 50)) if backends_known else None
    out["inference.request_ms.p99"] = _ms(percentile(requests, 99)) if backends_known else None
    out["inference.request_ms.samples"] = len(requests) if backends_known else None
    out["inference.complete.s"] = sum(requests) if backends_known else None
    out["inference.run_parallel.calls"] = count_of("inference.run_parallel")
    out["inference.run_parallel.s"] = seconds("inference.run_parallel")
    out["inference.pool_busy_share"] = (
        sum(requests) / (parallelism * dispatch_wall)
        if backends_known and known("inference.run_parallel") and dispatch_wall > 0
        else None
    )
    out["inference.cache_get.s"] = seconds("inference.ResponseCache.get")
    out["inference.cache_put.s"] = seconds("inference.ResponseCache.put")
    if served:
        out.update(server_metrics(served, detect_window))
    out["adjudication.parse_inference_response.calls"] = count_of("adjudication.parse_inference_response")
    out["adjudication.parse_inference_response.s"] = seconds("adjudication.parse_inference_response")
    out["adjudication.parse_extraction_response.calls"] = count_of("adjudication.parse_extraction_response")
    out["adjudication.parse_extraction_response.s"] = seconds("adjudication.parse_extraction_response")
    out["adjudication.apply_clinical_rule.s"] = seconds("adjudication.apply_clinical_rule")
    out["adjudication.merge_patient.calls"] = count_of("adjudication.merge_patient")
    out["adjudication.merge_patient.s"] = seconds("adjudication.merge_patient")
    for outcome in ("yes", "no", "no_mention"):
        out[f"adjudication.inference_{outcome}"] = (
            counts.get(f"adjudication.inference_{outcome}", 0)
            if known("adjudication.parse_inference_response") else None
        )
    out["adjudication.measurements"] = (
        counts.get("adjudication.measurements", 0)
        if known("adjudication.parse_extraction_response") else None
    )
    out["evaluation.confusion.s"] = seconds("evaluation.confusion")
    out["evaluation.metrics.s"] = seconds("evaluation.metrics")
    return out


def server_metrics(served, detect_window) -> dict[str, float | None]:
    """Backend-side service times, and concurrency over the detect stage."""
    durations = [e - s for s, e in served]
    out = {
        "inference.server_service_ms.p50": _ms(percentile(durations, 50)),
        "inference.server_service_ms.p99": _ms(percentile(durations, 99)),
        "inference.server_inflight_mean": None,
        "inference.server_idle_share": None,
    }
    if detect_window is not None:
        inflight, idle = concurrency(served, *detect_window)
        out["inference.server_inflight_mean"] = inflight
        out["inference.server_idle_share"] = idle
    return out


def _ms(seconds_value):
    return None if seconds_value is None else seconds_value * 1000.0
