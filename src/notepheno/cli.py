"""Command-line pipeline: synth, profile, preprocess, detect, evaluate, trend, bench."""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import evaluation
from .adjudication import (
    MODE_PATHS,
    Findings,
    InferredStatus,
    apply_clinical_rule,
    combine_chunk_statuses,
    merge_patient,
    parse_extraction_response,
    parse_inference_response,
)
from .corpus import (
    Cohort,
    CorpusError,
    SynthSpec,
    encode_record,
    generate_synthetic,
    load_cohort,
    write_cohort,
)
from .inference import (
    DEFAULT_CHUNK_BUDGET,
    DEFAULT_PARALLELISM,
    Backend,
    BackendError,
    CachedBackend,
    CompletionRequest,
    GenerationParams,
    HttpBackend,
    MockBackend,
    ResponseCache,
    TransportError,
    chunk_text,
    run_parallel,
)
from .preprocess import (
    DocTypeProfile,
    MergedDocument,
    compute_information_relevance,
    consolidate_all,
    filter_document_types,
    positive_retention,
    sample_document_types,
)
from .prompting import ConditionProfile, builtin_profiles, load_profiles, render_prompt

__all__ = ["main", "run_profile", "run_detect"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2


# ---------------------------------------------------------------------------
# small IO helpers

def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_jsonl(path: Path, records) -> None:
    buf = io.StringIO()
    for record in records:
        buf.write(encode_record(record) + "\n")
    _atomic_write_text(path, buf.getvalue())


def _read_jsonl(path: Path) -> list[dict]:
    records = []
    with Path(path).open(encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                records.append(json.loads(raw))
    return records


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def _write_manifest(out_dir: Path, stage: str, payload: dict) -> None:
    payload = {"stage": stage, **payload}
    _atomic_write_text(out_dir / f"manifest_{stage}.json", json.dumps(payload, indent=2, sort_keys=True))


def _config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config and shared argument plumbing

def _load_config(path) -> dict:
    if not path:
        return {}
    import yaml  # only runs that pass --config pay for the import

    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return raw


def _resolve(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _generation_params(args, config: dict) -> GenerationParams:
    gen = dict(config.get("generation") or {})
    if getattr(args, "temperature", None) is not None:
        gen["temperature"] = args.temperature
    if getattr(args, "model_id", None) is not None:
        gen["model_id"] = args.model_id
    return GenerationParams(
        temperature=float(gen.get("temperature", 0.5)),
        top_p=float(gen.get("top_p", 0.9)),
        top_k=int(gen.get("top_k", 50)),
        max_new_tokens=int(gen.get("max_new_tokens", 512)),
        model_id=str(gen.get("model_id", "local-completion-model")),
    )


def _make_backend(args, config: dict) -> Backend:
    backend_url = _resolve(args, config, "backend_url") or os.environ.get(
        "NOTEPHENO_BACKEND_URL"
    )
    if getattr(args, "mock", False) or not backend_url:
        if not getattr(args, "mock", False) and not backend_url:
            raise BackendError("no backend configured: pass --mock or --backend-url")
        backend: Backend = MockBackend()
    else:
        backend = HttpBackend(backend_url)
    cache_dir = _resolve(args, config, "cache_dir") or os.environ.get("NOTEPHENO_CACHE_DIR")
    if cache_dir:
        backend = CachedBackend(backend, ResponseCache(cache_dir))
    return backend


def _load_corpus_dir(directory, *, documents: bool, labels: bool) -> Cohort:
    """The cohort of a corpus directory, read from only the files a stage
    uses: the patients file always, the documents and labels files when
    asked. A file left unread is neither required nor checked."""
    directory = Path(directory)
    paths = (
        directory / "documents.jsonl" if documents else None,
        directory / "patients.jsonl",
        directory / "labels.jsonl" if labels else None,
    )
    for path in paths:
        if path is not None and not path.exists():
            raise FileNotFoundError(f"corpus file missing: {path}")
    return load_cohort(*paths)


def _select_profiles(args, config: dict) -> list[ConditionProfile]:
    profiles_path = _resolve(args, config, "profiles")
    profiles = load_profiles(profiles_path) if profiles_path else builtin_profiles()
    condition = getattr(args, "condition", None)
    if condition:
        selected = [p for p in profiles if p.name == condition]
        if not selected:
            raise ValueError(f"unknown condition {condition!r}")
        return selected
    return profiles


# ---------------------------------------------------------------------------
# pipeline stages (importable; the subcommands are thin wrappers)

def _ask_all(
    jobs, backend: Backend, params: GenerationParams, parallelism: int, chunk_budget: int,
    counts: Counter | None,
) -> dict[tuple[str, str, str], list]:
    """The request plan of a backend stage, sent in one dispatch.

    `jobs` yields `(owner, text, asks)`, `asks` being `(profile, kind)` pairs.
    Each text is chunked once and each chunk rendered once per ask. A worker
    renders, completes and parses one request, so neither the prompts nor the
    raw replies of the stage are ever held together. Returns the parsed
    replies under `(condition, kind, owner)`, in chunk order; `counts` gets
    the requests sent and the oversized chunks.
    """
    items = []
    oversized = 0
    for owner, text, asks in jobs:
        chunks = chunk_text(text, chunk_budget)
        oversized += sum(chunk.oversized for chunk in chunks)
        items.extend(
            (owner, profile, kind, chunk.text) for chunk in chunks for profile, kind in asks
        )
    if counts is not None:
        counts["requests"] += len(items)
        counts["oversized_chunks"] += oversized

    def ask(item):
        _, profile, kind, text = item
        reply = backend.complete(CompletionRequest(render_prompt(profile, kind, text).text, params))
        if kind == "inference":
            return parse_inference_response(reply.text)
        return parse_extraction_response(reply.text, profile.rule.analyte)

    replies: dict[tuple[str, str, str], list] = defaultdict(list)
    for (owner, profile, kind, _), parsed in zip(items, run_parallel(ask, items, parallelism)):
        replies[profile.name, kind, owner].append(parsed)
    return replies


def _warn_oversized(counts: Counter, chunk_budget: int) -> None:
    # One warning per stage: a corpus of long notes would otherwise log one
    # line per chunk.
    if counts["oversized_chunks"]:
        logger.warning(
            "%d chunk(s) hold a single sentence longer than the chunk budget of %d "
            "characters and were sent whole",
            counts["oversized_chunks"],
            chunk_budget,
        )


def run_profile(
    cohort: Cohort,
    profiles: Sequence[ConditionProfile],
    backend: Backend,
    params: GenerationParams,
    m: int,
    seed: int,
    parallelism: int = 1,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    counts: Counter | None = None,
) -> dict[str, list[DocTypeProfile]]:
    """Sample documents per type, infer each for every condition, and score relevance.

    One sample serves every condition, and all inference requests go out in
    one dispatch. Returns the relevance table per condition name; `counts` is
    as in `_ask_all`.
    """
    samples = sample_document_types(cohort, m, seed)
    docs = [doc for doc_type in sorted(samples) for doc in samples[doc_type]]
    asks = [(profile, "inference") for profile in profiles]
    replies = _ask_all(
        ((doc.doc_id, doc.text, asks) for doc in docs),
        backend, params, parallelism, chunk_budget, counts,
    )
    return {
        profile.name: compute_information_relevance(
            samples,
            {
                doc.doc_id: combine_chunk_statuses(
                    replies.pop((profile.name, "inference", doc.doc_id), ())
                )
                for doc in docs
            },
        )
        for profile in profiles
    }


def run_detect(
    cohort: Cohort,
    selected: Sequence[tuple[Mapping[str, str], ConditionProfile]],
    backend: Backend,
    params: GenerationParams,
    modes=("merged",),
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    parallelism: int = 1,
    counts: Counter | None = None,
) -> Iterator[tuple[str, dict[str, Findings]]]:
    """Ask the prompt paths of `modes` about every condition's `{patient_id:
    text}` in one dispatch.

    Yields `(condition, {patient_id: findings})` for every cohort patient, in
    the order of `selected`, adjudicating each condition only when it is
    taken, so a caller that writes one condition before taking the next holds
    one condition's findings at a time. A text shared by several conditions
    (the raw notes under --no-preprocess) is chunked once. Patients without
    text share one empty record, which every mode labels 0, without any
    backend traffic. `counts` is as in `_ask_all`.
    """
    for mode in modes:
        if mode not in MODE_PATHS:
            raise ValueError(f"unknown mode {mode!r}")
    # "merged" asks every path, so its row gives the order: inference first.
    paths = [p for p in MODE_PATHS["merged"] if any(p in MODE_PATHS[mode] for mode in modes)]
    asks: dict[tuple[str, str], list] = defaultdict(list)
    for texts, profile in selected:
        for pid in sorted(texts):
            asks[pid, texts[pid]].extend((profile, path) for path in paths)
    replies = _ask_all(
        ((pid, text, pairs) for (pid, text), pairs in asks.items()),
        backend, params, parallelism, chunk_budget, counts,
    )

    def findings(texts: Mapping[str, str], profile: ConditionProfile) -> dict[str, Findings]:
        found = {}
        for pid in texts:
            statuses, measurements = {}, ()
            for path in paths:
                parsed = replies.pop((profile.name, path, pid), ())
                if path == "inference":
                    statuses[path] = combine_chunk_statuses(parsed)
                else:
                    measurements = tuple(m for chunk in parsed for m in chunk)
                    statuses[path] = apply_clinical_rule(measurements, profile.rule)
            found[pid] = Findings(statuses, measurements)
        no_text = Findings()
        return {pid: found.get(pid, no_text) for pid in sorted(cohort.patients)}

    return ((profile.name, findings(texts, profile)) for texts, profile in selected)


# ---------------------------------------------------------------------------
# subcommands

def _parse_prevalence(entries) -> dict[str, float]:
    prevalence = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ValueError(f"--prevalence expects name=fraction, got {entry!r}")
        name, _, frac = entry.partition("=")
        prevalence[name.strip()] = float(frac)
    if not prevalence:
        raise ValueError("at least one --prevalence name=fraction is required")
    return prevalence


def _cmd_synth(args, config: dict) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(
        n_patients=args.n_patients,
        prevalence=_parse_prevalence(args.prevalence),
        docs_per_patient=(args.docs_min, args.docs_max),
        evidence_fraction_in_kept_types=args.evidence_fraction,
        distractor_rate=args.distractor_rate,
        seed=args.seed,
    )
    profiles = _select_profiles(args, config)
    cohort, truth = generate_synthetic(spec, profiles)
    write_cohort(
        cohort,
        out_dir / "documents.jsonl",
        out_dir / "patients.jsonl",
        out_dir / "labels.jsonl",
    )
    _write_jsonl(
        out_dir / "truth.jsonl",
        (
            {"patient_id": pid, "condition": cond, "label": label}
            for pid in sorted(truth)
            for cond, label in sorted(truth[pid].items())
        ),
    )
    _write_manifest(
        out_dir,
        "synth",
        {
            "config_hash": _config_hash({"spec": spec.__dict__}),
            "seed": spec.seed,
            "n_patients": spec.n_patients,
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    print(f"wrote synthetic cohort of {spec.n_patients} patients to {out_dir}")
    return EXIT_OK


def _cmd_profile(args, config: dict) -> int:
    started = time.monotonic()
    cohort = _load_corpus_dir(args.corpus, documents=True, labels=False)
    backend = _make_backend(args, config)
    params = _generation_params(args, config)
    m = int(_resolve(args, config, "m", 200))
    parallelism = int(_resolve(args, config, "parallelism", DEFAULT_PARALLELISM))
    chunk_budget = int(_resolve(args, config, "chunk_budget", DEFAULT_CHUNK_BUDGET))
    counts: Counter = Counter()
    relevance = run_profile(
        cohort, _select_profiles(args, config), backend, params, m=m, seed=args.seed,
        parallelism=parallelism, chunk_budget=chunk_budget, counts=counts,
    )
    rows = [
        (condition, p.doc_type, p.sampled_count, p.positive_count, f"{p.ir:.6f}")
        for condition, table in relevance.items()
        for p in table
    ]
    _warn_oversized(counts, chunk_budget)
    out = Path(args.out)
    _write_csv(out, ("condition", "doc_type", "sampled_count", "positive_count", "ir"), rows)
    _write_manifest(
        out.parent,
        "profile",
        {
            "config_hash": _config_hash({"m": m, "seed": args.seed, "chunk_budget": chunk_budget}),
            "seed": args.seed,
            "m": m,
            "chunk_budget": chunk_budget,
            **_backend_block(backend, counts),
            "oversized_chunks": counts["oversized_chunks"],
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    print(f"wrote document-type relevance table to {out}")
    return EXIT_OK


def _backend_block(backend: Backend, counts: Counter) -> dict:
    """The manifest keys of a backend stage. Behind a cache only the misses
    reach the backend; without one there are no hits."""
    cached = isinstance(backend, CachedBackend)
    return {
        "backend_id": backend.backend_id,
        "backend_requests": backend.misses if cached else counts["requests"],
        "cache_hits": backend.hits if cached else 0,
    }


def _read_profile_csv(path, condition: str) -> list[DocTypeProfile]:
    profiles = []
    with Path(path).open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["condition"] != condition:
                continue
            profiles.append(
                DocTypeProfile(
                    doc_type=row["doc_type"],
                    sampled_count=int(row["sampled_count"]),
                    positive_count=int(row["positive_count"]),
                )
            )
    if not profiles:
        raise ValueError(f"{path}: no rows for condition {condition!r}")
    return profiles


def _merged_records(condition: str, merged: Mapping[str, MergedDocument]):
    for pid in sorted(merged):
        doc = merged[pid]
        yield {
            "patient_id": pid,
            "doc_id": f"merged::{pid}::{condition}",
            "doc_type": "__merged__",
            "timestamp": doc.first_timestamp.isoformat(),
            "text": doc.text,
            "condition": condition,
            "provenance": [[s.doc_id, s.start, s.end] for s in doc.provenance],
        }


def _cmd_preprocess(args, config: dict) -> int:
    started = time.monotonic()
    cohort = _load_corpus_dir(args.corpus, documents=True, labels=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    percentile = _resolve(args, config, "percentile", "q1")
    selected = [
        (
            filter_document_types(
                _read_profile_csv(args.profile_csv, profile.name), percentile, condition=profile.name
            ),
            profile,
        )
        for profile in _select_profiles(args, config)
    ]
    stats_rows = []
    for (plan, profile), (merged, stats) in zip(selected, consolidate_all(cohort, selected)):
        positives = {
            lab.patient_id for lab in cohort.labels
            if lab.condition == profile.name and lab.registry_label == 1
        }
        retention = positive_retention(positives, merged)
        _write_jsonl(out_dir / f"merged_{profile.name}.jsonl", _merged_records(profile.name, merged))
        stats_rows.append(
            (
                profile.name,
                stats.kept_type_count,
                f"{plan.threshold_value:.6f}",
                f"{stats.words_fraction_remaining:.4f}",
                "" if retention is None else f"{retention:.4f}",
            )
        )
    _write_csv(
        out_dir / "consolidation_stats.csv",
        ("condition", "kept_type_count", "ir_threshold", "words_fraction_remaining", "positive_retention"),
        stats_rows,
    )
    _write_manifest(
        out_dir,
        "preprocess",
        {
            "config_hash": _config_hash({"percentile": percentile}),
            "percentile": str(percentile),
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    print(f"wrote consolidated corpus and stats to {out_dir}")
    return EXIT_OK


def _detect_texts(args, cohort: Cohort, conditions: Sequence[str]) -> list[dict[str, str]]:
    """Each condition's `{patient_id: text}` for detect, in the order of
    `conditions`: the merged text of the preprocess artifact, or under
    --no-preprocess each patient's raw notes joined in timestamp order, one
    map shared by every condition.

    A merged file that holds records, but none for a condition, is refused:
    it was written for other conditions. An empty file labels all patients 0.
    """
    if args.no_preprocess:
        by_patient: dict[str, list] = defaultdict(list)
        for doc in cohort.documents:
            by_patient[doc.patient_id].append(doc)
        raw = {}
        for pid, docs in by_patient.items():
            docs.sort(key=lambda d: (d.timestamp, d.doc_id))
            text = " ".join(d.text for d in docs if d.text).strip()
            if text:
                raw[pid] = text
        return [raw for _ in conditions]
    if not args.merged:
        raise FileNotFoundError("no preprocess artifact given: pass --merged or --no-preprocess")
    merged_arg = Path(args.merged)
    texts = []
    for condition in conditions:
        path = merged_arg / f"merged_{condition}.jsonl" if merged_arg.is_dir() else merged_arg
        if not path.exists():
            raise FileNotFoundError(
                f"preprocess artifact not found: {path}; "
                "run the preprocess stage or pass --no-preprocess"
            )
        records = _read_jsonl(path)
        found = {r["patient_id"]: r["text"] for r in records if r.get("condition") == condition}
        if records and not found:
            raise ValueError(f"{path} holds merged records, but none for condition {condition!r}")
        texts.append(found)
    return texts


def _label_records(condition: str, mode: str, findings: Mapping[str, Findings]):
    paths = MODE_PATHS[mode]
    for pid in sorted(findings):
        found = findings[pid]
        yield {
            "patient_id": pid,
            "condition": condition,
            "label": merge_patient(found.statuses, mode),
            "mode": mode,
            "evidence_doc_ids": [
                f"merged::{pid}#{path}"
                for path in paths
                if found.statuses.get(path) is InferredStatus.YES
            ],
            "measurements": [
                {
                    "analyte": m.analyte,
                    "raw_value": m.raw_value,
                    "raw_unit": m.raw_unit,
                    "normalized_value": m.normalized_value,
                    "systolic": m.systolic,
                    "diastolic": m.diastolic,
                }
                for m in (found.measurements if "extraction" in paths else ())
            ],
        }


def _cmd_detect(args, config: dict) -> int:
    started = time.monotonic()
    # The merged texts come from the preprocess artifact; only the raw notes
    # of --no-preprocess need the documents.
    cohort = _load_corpus_dir(args.corpus, documents=args.no_preprocess, labels=False)
    backend = _make_backend(args, config)
    params = _generation_params(args, config)
    parallelism = int(_resolve(args, config, "parallelism", DEFAULT_PARALLELISM))
    chunk_budget = int(_resolve(args, config, "chunk_budget", DEFAULT_CHUNK_BUDGET))
    modes = tuple(MODE_PATHS) if args.mode == "all" else (args.mode,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    profiles = _select_profiles(args, config)
    texts = _detect_texts(args, cohort, [profile.name for profile in profiles])
    outputs = []
    counts: Counter = Counter()
    for condition, findings in run_detect(
        cohort, list(zip(texts, profiles)), backend, params, modes=modes,
        chunk_budget=chunk_budget, parallelism=parallelism, counts=counts,
    ):
        for mode in modes:
            path = out_dir / f"detect_{mode}_{condition}.jsonl"
            _write_jsonl(path, _label_records(condition, mode, findings))
            outputs.append(str(path))
    _warn_oversized(counts, chunk_budget)
    _write_manifest(
        out_dir,
        "detect",
        {
            "config_hash": _config_hash({"modes": modes, "chunk_budget": chunk_budget}),
            **_backend_block(backend, counts),
            "oversized_chunks": counts["oversized_chunks"],
            "outputs": outputs,
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    print(f"wrote {len(outputs)} label file(s) to {out_dir}")
    return EXIT_OK


def _predictions_from_file(path) -> dict[str, int]:
    return {r["patient_id"]: int(r["label"]) for r in _read_jsonl(path)}


def _format_metric(est) -> tuple[str, str, str]:
    if est is None:
        return ("undefined", "", "")
    return (f"{est.point:.3f}", f"{est.low:.3f}", f"{est.high:.3f}")


def _cmd_evaluate(args, config: dict) -> int:
    started = time.monotonic()
    cohort = _load_corpus_dir(args.corpus, documents=False, labels=True)
    detect_dir = Path(args.detect_dir)
    ci_level = float(_resolve(args, config, "ci_level", 0.95))
    header = (
        "method", "condition",
        "sensitivity", "sens_low", "sens_high",
        "specificity", "spec_low", "spec_high",
        "ppv", "ppv_low", "ppv_high",
        "npv", "npv_low", "npv_high",
    )
    rows = []
    for profile in _select_profiles(args, config):
        condition = profile.name
        reference = cohort.reference_map(condition)
        has_icd = all(
            lab.icd_label is not None
            for lab in cohort.labels
            if lab.condition == condition
        )
        predictions: dict[str, dict[str, int]] = {}
        for mode in MODE_PATHS:
            path = detect_dir / f"detect_{mode}_{condition}.jsonl"
            if not path.exists():
                raise FileNotFoundError(
                    f"detect artifact not found: {path}; run detect --mode all first"
                )
            predictions[mode] = _predictions_from_file(path)
        methods: list[tuple[str, dict[str, int]]] = []
        if has_icd:
            icd = cohort.reference_map(condition, icd=True)
            methods.append(("icd10", icd))
        methods += list(predictions.items())
        if has_icd:
            methods.append(("pipeline_plus_icd", evaluation.combine_or(predictions["merged"], icd)))
        for method, pred in methods:
            cm = evaluation.confusion(pred, reference)
            ms = evaluation.metrics(cm, ci_level)
            rows.append(
                (method, condition)
                + _format_metric(ms.sensitivity)
                + _format_metric(ms.specificity)
                + _format_metric(ms.ppv)
                + _format_metric(ms.npv)
            )
    out = Path(args.out)
    _write_csv(out, header, rows)
    # human-readable echo
    print(f"{'method':<18}{'condition':<14}{'sens':>8}{'spec':>8}{'ppv':>8}{'npv':>8}")
    for row in rows:
        print(f"{row[0]:<18}{row[1]:<14}{row[2]:>8}{row[5]:>8}{row[8]:>8}{row[11]:>8}")
    _write_manifest(
        out.parent,
        "evaluate",
        {
            "config_hash": _config_hash({"ci_level": ci_level}),
            "ci_level": ci_level,
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    return EXIT_OK


def _trend_svg(points, condition: str) -> str:
    width, height, pad = 640, 320, 48
    if not points:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    xs = list(range(len(points)))
    span = max(1, len(points) - 1)

    def x_px(i):
        return pad + (width - 2 * pad) * i / span

    def y_px(v):
        return height - pad - (height - 2 * pad) * v

    def polyline(values, color):
        pts = " ".join(f"{x_px(i):.1f},{y_px(v):.1f}" for i, v in zip(xs, values))
        return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'

    labels = "".join(
        f'<text x="{x_px(i):.1f}" y="{height - pad + 16}" font-size="9" text-anchor="middle">{p.month}</text>'
        for i, p in enumerate(points)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">'
        f"monthly positive fraction: {condition}</text>"
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        f'fill="none" stroke="#ccc"/>'
        + polyline([p.reference_pct for p in points], "#1f77b4")
        + polyline([p.predicted_pct for p in points], "#d62728")
        + labels
        + f'<text x="{width - pad}" y="{pad - 8}" text-anchor="end" font-size="11">'
        f'<tspan fill="#1f77b4">reference</tspan>  <tspan fill="#d62728">predicted</tspan></text>'
        "</svg>"
    )


def _cmd_trend(args, config: dict) -> int:
    cohort = _load_corpus_dir(args.corpus, documents=False, labels=True)
    records = _read_jsonl(args.pred)
    if not records:
        raise ValueError(f"{args.pred}: no prediction records")
    condition = records[0]["condition"]
    predicted = {r["patient_id"]: int(r["label"]) for r in records}
    reference = cohort.reference_map(condition)
    points = evaluation.monthly_trend(cohort, predicted, reference)
    _write_csv(
        Path(args.out),
        ("month", "n", "reference_pct", "predicted_pct"),
        [(p.month, p.n, f"{p.reference_pct:.4f}", f"{p.predicted_pct:.4f}") for p in points],
    )
    if args.svg:
        _atomic_write_text(Path(args.svg), _trend_svg(points, condition))
    print(f"wrote {len(points)} monthly trend points for {condition}")
    return EXIT_OK


def _cmd_bench(args, config: dict) -> int:
    from . import bench  # only the bench command needs the question set

    backend = _make_backend(args, config)
    params = _generation_params(args, config)
    result = bench.run_benchmark(backend, params=params)
    rows = [
        (r.question_id, int(r.correct), f"{r.latency_ms:.1f}") for r in result.results
    ]
    rows.append(("accuracy", f"{result.accuracy:.2f}", f"{result.elapsed_s:.2f}"))
    _write_csv(Path(args.out), ("question", "correct", "latency_ms"), rows)
    print(
        f"benchmark accuracy {result.accuracy:.0%} in {result.elapsed_s:.1f}s "
        f"({result.backend_id})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mock", action="store_true", help="use the deterministic mock backend")
    parser.add_argument("--backend-url", help="base URL of the completion backend")
    parser.add_argument("--cache-dir", help="response cache directory")
    parser.add_argument("--parallelism", type=int, help="concurrent backend requests")
    parser.add_argument("--temperature", type=float, help="sampling temperature override")
    parser.add_argument("--model-id", help="backend model identifier")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notepheno",
        description="Multi-condition phenotyping pipeline over clinical-note corpora.",
    )
    parser.add_argument("--config", help="YAML config file; flags override its values")
    parser.add_argument(
        "--print-config", action="store_true", help="dump the resolved configuration and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n-patients", type=int, required=True)
    p.add_argument("--prevalence", action="append", metavar="NAME=FRAC")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--docs-min", type=int, default=2)
    p.add_argument("--docs-max", type=int, default=4)
    p.add_argument("--evidence-fraction", type=float, default=1.0)
    p.add_argument("--distractor-rate", type=float, default=0.3)
    p.add_argument("--condition")
    p.add_argument("--profiles", help="condition-profile YAML overriding built-ins")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("profile", help="score document-type relevance via backend inference")
    p.add_argument("--corpus", required=True)
    p.add_argument("--condition")
    p.add_argument("--profiles")
    p.add_argument("--m", type=int, help="samples per document type (default 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk-budget", type=int)
    p.add_argument("--out", required=True)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("preprocess", help="filter document types and consolidate keyword sentences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--condition")
    p.add_argument("--profiles")
    p.add_argument("--profile-csv", required=True, help="output of the profile stage")
    p.add_argument("--percentile", help="0, q1, q2, or a number in [0, 100]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("detect", help="run prompt paths over merged documents and label patients")
    p.add_argument("--corpus", required=True)
    p.add_argument("--merged", help="merged file or preprocess output directory")
    p.add_argument("--no-preprocess", action="store_true", help="run on raw concatenated notes")
    p.add_argument("--mode", choices=(*MODE_PATHS, "all"), default="merged")
    p.add_argument("--condition")
    p.add_argument("--profiles")
    p.add_argument("--chunk-budget", type=int)
    p.add_argument("--out", required=True)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="accuracy report against the reference labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detect-dir", required=True)
    p.add_argument("--condition")
    p.add_argument("--profiles")
    p.add_argument("--ci-level", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("trend", help="monthly predicted vs reference positive fractions")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pred", required=True, help="a detect output file")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="also write a line chart")
    p.set_defaults(func=_cmd_trend)

    p = sub.add_parser("bench", help="run the ten-question backend benchmark")
    p.add_argument("--out", required=True)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.print_config:
            resolved = {
                key: value
                for key, value in sorted(vars(args).items())
                if key not in ("func", "print_config") and value is not None
            }
            resolved["config_file_values"] = config
            print(json.dumps(resolved, indent=2, sort_keys=True, default=str))
            return EXIT_OK
        return args.func(args, config)
    except (BackendError, TransportError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (CorpusError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
