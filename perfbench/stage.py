"""Run one notepheno CLI stage in this process, the way the `notepheno`
console script does, and record what reached the backend.

    PYTHONPATH=src python3 perfbench/stage.py RECORD.json [--trace] <notepheno args>

RECORD.json receives, per backend class, the number of
`complete` calls and the prompt characters they carried. With `--trace` it
also receives the spans of the traced stage (see tracing.py).
"""
from __future__ import annotations

import json
import sys
import threading

from tracing import Tracer

BACKENDS = ("CachedBackend", "MockBackend", "HttpBackend")


def count_backend_calls(inference, counts: dict) -> None:
    lock = threading.Lock()
    for cls_name in BACKENDS:
        cls = getattr(inference, cls_name, None)
        if cls is None:
            continue
        inner = cls.complete

        def complete(self, request, _inner=inner, _key=cls_name):
            with lock:
                entry = counts.setdefault(_key, {"calls": 0, "prompt_chars": 0})
                entry["calls"] += 1
                entry["prompt_chars"] += len(request.prompt)
            return _inner(self, request)

        cls.complete = complete


def main(argv: list[str]) -> int:
    record_path, argv = argv[0], argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    from notepheno import cli, inference

    counts: dict = {}
    count_backend_calls(inference, counts)
    record: dict = {"counts": counts}
    span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
    try:
        code = cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
            record["trace"] = tracer.export()
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
