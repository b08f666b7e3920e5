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
from collections import Counter
from concurrent.futures import Executor
from datetime import datetime
from pathlib import Path

from . import evaluation
from .adjudication import (
    DocumentVerdict,
    InferredStatus,
    PatientVerdict,
    apply_clinical_rule,
    combine_chunk_statuses,
    merge_patient,
    parse_evidence_highlights,
    parse_extraction_response,
    parse_inference_response,
)
from .corpus import Cohort, CorpusError, SynthSpec, generate_synthetic, load_cohort, write_cohort
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
    worker_pool,
)
from .preprocess import (
    ConsolidatedCorpus,
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

MODES = ("prompt1", "prompt2", "merged")


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
        buf.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
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


def _load_corpus_dir(directory) -> Cohort:
    directory = Path(directory)
    for name in ("documents.jsonl", "patients.jsonl", "labels.jsonl"):
        if not (directory / name).exists():
            raise FileNotFoundError(f"corpus file missing: {directory / name}")
    return load_cohort(
        directory / "documents.jsonl",
        directory / "patients.jsonl",
        directory / "labels.jsonl",
    )


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

def _tally_oversized(chunks, counts: Counter | None) -> None:
    if counts is not None:
        counts["oversized_chunks"] += sum(1 for chunk in chunks if chunk.oversized)


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
    profile: ConditionProfile,
    backend: Backend,
    params: GenerationParams,
    m: int,
    seed: int,
    parallelism: int = 1,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    pool: Executor | None = None,
    counts: Counter | None = None,
) -> list[DocTypeProfile]:
    """Sample documents per type, infer each with the backend, and score relevance.

    `pool` is the stage's worker pool (see run_parallel); chunks longer than
    the budget are tallied in `counts["oversized_chunks"]`.
    """
    samples = sample_document_types(cohort, m, seed)
    requests: list[CompletionRequest] = []
    owners: list[str] = []
    verdicts: dict[str, InferredStatus] = {}
    for doc_type in sorted(samples):
        for doc in samples[doc_type]:
            chunks = chunk_text(doc.text, chunk_budget)
            _tally_oversized(chunks, counts)
            if not chunks:
                verdicts[doc.doc_id] = InferredStatus.NO_MENTION
                continue
            for chunk in chunks:
                requests.append(
                    CompletionRequest(render_prompt(profile, "inference", chunk.text).text, params)
                )
                owners.append(doc.doc_id)
    responses = run_parallel(backend, requests, parallelism, pool)
    by_doc: dict[str, list[InferredStatus]] = {}
    for doc_id, response in zip(owners, responses):
        by_doc.setdefault(doc_id, []).append(parse_inference_response(response.text))
    for doc_id, statuses in by_doc.items():
        verdicts[doc_id] = combine_chunk_statuses(statuses)
    return compute_information_relevance(samples, verdicts)


def run_detect(
    cohort: Cohort,
    consolidated: ConsolidatedCorpus,
    profile: ConditionProfile,
    backend: Backend,
    params: GenerationParams,
    modes=("merged",),
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    parallelism: int = 1,
    collect_evidence: bool = False,
    pool: Executor | None = None,
    counts: Counter | None = None,
) -> dict[str, dict[str, PatientVerdict]]:
    """Run the requested prompt paths over merged documents and merge per patient.

    Patients absent from the consolidated corpus (condition-free or without
    keyword sentences) are labelled 0 without any backend traffic. `pool` and
    `counts` are as in run_profile.
    """
    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    need_inference = any(m in ("prompt1", "merged") for m in modes) or collect_evidence
    need_extraction = any(m in ("prompt2", "merged") for m in modes)

    patient_ids = sorted(consolidated.merged)
    chunk_lists = {
        pid: chunk_text(consolidated.merged[pid].text, chunk_budget) for pid in patient_ids
    }
    for chunks in chunk_lists.values():
        _tally_oversized(chunks, counts)

    def _batched(kind: str) -> dict[str, list[str]]:
        requests, owners = [], []
        for pid in patient_ids:
            for chunk in chunk_lists[pid]:
                requests.append(
                    CompletionRequest(render_prompt(profile, kind, chunk.text).text, params)
                )
                owners.append(pid)
        responses = run_parallel(backend, requests, parallelism, pool)
        grouped: dict[str, list[str]] = {pid: [] for pid in patient_ids}
        for pid, response in zip(owners, responses):
            grouped[pid].append(response.text)
        return grouped

    verdicts_by_patient: dict[str, list[DocumentVerdict]] = {pid: [] for pid in patient_ids}

    inference_status: dict[str, InferredStatus] = {}
    if need_inference:
        grouped = _batched("inference")
        for pid in patient_ids:
            statuses = [parse_inference_response(t) for t in grouped[pid]]
            status = combine_chunk_statuses(statuses)
            inference_status[pid] = status
            verdicts_by_patient[pid].append(
                DocumentVerdict(
                    patient_id=pid,
                    condition=profile.name,
                    doc_id=f"merged::{pid}",
                    path="inference",
                    status=status,
                )
            )

    if need_extraction:
        grouped = _batched("extraction")
        for pid in patient_ids:
            measurements = []
            for text in grouped[pid]:
                measurements.extend(parse_extraction_response(text, profile.rule.analyte))
            status = apply_clinical_rule(measurements, profile.rule)
            verdicts_by_patient[pid].append(
                DocumentVerdict(
                    patient_id=pid,
                    condition=profile.name,
                    doc_id=f"merged::{pid}",
                    path="extraction",
                    status=status,
                    measurements=tuple(measurements),
                )
            )

    if collect_evidence:
        positive_ids = [
            pid for pid in patient_ids if inference_status.get(pid) is InferredStatus.YES
        ]
        requests, owners, texts = [], [], []
        for pid in patient_ids:
            if pid not in positive_ids:
                continue
            for chunk in chunk_lists[pid]:
                requests.append(
                    CompletionRequest(render_prompt(profile, "evidence", chunk.text).text, params)
                )
                owners.append(pid)
                texts.append(chunk.text)
        responses = run_parallel(backend, requests, parallelism, pool)
        spans_by_pid: dict[str, list[tuple[int, int]]] = {}
        for pid, chunk_source, response in zip(owners, texts, responses):
            spans_by_pid.setdefault(pid, []).extend(
                parse_evidence_highlights(response.text, chunk_source)
            )
        for pid, spans in spans_by_pid.items():
            old = verdicts_by_patient[pid]
            verdicts_by_patient[pid] = [
                DocumentVerdict(
                    patient_id=v.patient_id,
                    condition=v.condition,
                    doc_id=v.doc_id,
                    path=v.path,
                    status=v.status,
                    measurements=v.measurements,
                    evidence_spans=tuple(spans) if v.path == "inference" else v.evidence_spans,
                )
                for v in old
            ]

    out: dict[str, dict[str, PatientVerdict]] = {}
    for mode in modes:
        per_patient = {}
        for pid in sorted(cohort.patients):
            per_patient[pid] = merge_patient(
                verdicts_by_patient.get(pid, []),
                mode,
                patient_id=pid,
                condition=profile.name,
            )
        out[mode] = per_patient
    return out


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
    cohort = _load_corpus_dir(args.corpus)
    backend = _make_backend(args, config)
    params = _generation_params(args, config)
    m = int(_resolve(args, config, "m", 200))
    parallelism = int(_resolve(args, config, "parallelism", DEFAULT_PARALLELISM))
    chunk_budget = int(_resolve(args, config, "chunk_budget", DEFAULT_CHUNK_BUDGET))
    counts: Counter = Counter()
    rows = []
    with worker_pool(parallelism) as pool:
        for profile in _select_profiles(args, config):
            profiles = run_profile(
                cohort, profile, backend, params, m=m, seed=args.seed,
                parallelism=parallelism, chunk_budget=chunk_budget, pool=pool, counts=counts,
            )
            for p in profiles:
                rows.append(
                    (profile.name, p.doc_type, p.sampled_count, p.positive_count, f"{p.ir:.6f}")
                )
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
            "backend_id": backend.backend_id,
            "backend_requests": getattr(backend, "misses", None),
            "oversized_chunks": counts["oversized_chunks"],
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    )
    print(f"wrote document-type relevance table to {out}")
    return EXIT_OK


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


def _merged_records(consolidated: ConsolidatedCorpus):
    for pid in sorted(consolidated.merged):
        doc = consolidated.merged[pid]
        yield {
            "patient_id": pid,
            "doc_id": f"merged::{pid}::{doc.condition}",
            "doc_type": "__merged__",
            "timestamp": doc.first_timestamp.isoformat(),
            "text": doc.text,
            "condition": doc.condition,
            "provenance": [[s.doc_id, s.start, s.end] for s in doc.provenance],
        }


def _cmd_preprocess(args, config: dict) -> int:
    started = time.monotonic()
    cohort = _load_corpus_dir(args.corpus)
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
    for (plan, profile), (consolidated, stats) in zip(selected, consolidate_all(cohort, selected)):
        positives = {
            lab.patient_id for lab in cohort.labels
            if lab.condition == profile.name and lab.registry_label == 1
        }
        retention = positive_retention(positives, consolidated.merged)
        _write_jsonl(out_dir / f"merged_{profile.name}.jsonl", _merged_records(consolidated))
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


def _consolidated_from_merged_file(path, condition: str) -> ConsolidatedCorpus:
    merged = {}
    for record in _read_jsonl(path):
        if record.get("condition") != condition:
            continue
        merged[record["patient_id"]] = MergedDocument(
            patient_id=record["patient_id"],
            condition=condition,
            text=record["text"],
            provenance=(),
            first_timestamp=datetime.fromisoformat(record["timestamp"]),
        )
    return ConsolidatedCorpus(condition=condition, merged=merged, condition_free=frozenset())


def _consolidated_from_raw(cohort: Cohort, condition: str) -> ConsolidatedCorpus:
    # --no-preprocess path: each patient's raw documents concatenated in
    # timestamp order stand in for the merged document.
    merged = {}
    by_patient: dict[str, list] = {}
    for doc in cohort.documents:
        by_patient.setdefault(doc.patient_id, []).append(doc)
    for pid, docs in by_patient.items():
        docs = sorted(docs, key=lambda d: (d.timestamp, d.doc_id))
        text = " ".join(d.text for d in docs if d.text).strip()
        if text:
            merged[pid] = MergedDocument(
                patient_id=pid,
                condition=condition,
                text=text,
                provenance=(),
                first_timestamp=docs[0].timestamp,
            )
    return ConsolidatedCorpus(condition=condition, merged=merged, condition_free=frozenset())


def _detect_input(args, cohort: Cohort, condition: str) -> ConsolidatedCorpus:
    if args.no_preprocess:
        return _consolidated_from_raw(cohort, condition)
    if not args.merged:
        raise FileNotFoundError("no preprocess artifact given: pass --merged or --no-preprocess")
    merged_arg = Path(args.merged)
    merged_path = merged_arg / f"merged_{condition}.jsonl" if merged_arg.is_dir() else merged_arg
    if not merged_path.exists():
        raise FileNotFoundError(
            f"preprocess artifact not found: {merged_path}; "
            "run the preprocess stage or pass --no-preprocess"
        )
    return _consolidated_from_merged_file(merged_path, condition)


def _label_records(condition: str, mode: str, per_patient: dict[str, PatientVerdict]):
    for pid in sorted(per_patient):
        verdict = per_patient[pid]
        measurements = []
        evidence_docs = []
        for dv in verdict.contributing:
            if dv.status is InferredStatus.YES:
                evidence_docs.append(f"{dv.doc_id}#{dv.path}")
            for m in dv.measurements:
                measurements.append(
                    {
                        "analyte": m.analyte,
                        "raw_value": m.raw_value,
                        "raw_unit": m.raw_unit,
                        "normalized_value": m.normalized_value,
                        "systolic": m.systolic,
                        "diastolic": m.diastolic,
                    }
                )
        yield {
            "patient_id": pid,
            "condition": condition,
            "label": verdict.label,
            "mode": mode,
            "evidence_doc_ids": evidence_docs,
            "measurements": measurements,
        }


def _cmd_detect(args, config: dict) -> int:
    started = time.monotonic()
    cohort = _load_corpus_dir(args.corpus)
    backend = _make_backend(args, config)
    params = _generation_params(args, config)
    parallelism = int(_resolve(args, config, "parallelism", DEFAULT_PARALLELISM))
    chunk_budget = int(_resolve(args, config, "chunk_budget", DEFAULT_CHUNK_BUDGET))
    modes = MODES if args.mode == "all" else (args.mode,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    counts: Counter = Counter()
    with worker_pool(parallelism) as pool:
        for profile in _select_profiles(args, config):
            results = run_detect(
                cohort,
                _detect_input(args, cohort, profile.name),
                profile,
                backend,
                params,
                modes=modes,
                chunk_budget=chunk_budget,
                parallelism=parallelism,
                collect_evidence=args.evidence,
                pool=pool,
                counts=counts,
            )
            for mode, per_patient in results.items():
                path = out_dir / f"detect_{mode}_{profile.name}.jsonl"
                _write_jsonl(path, _label_records(profile.name, mode, per_patient))
                outputs.append(str(path))
    _warn_oversized(counts, chunk_budget)
    _write_manifest(
        out_dir,
        "detect",
        {
            "config_hash": _config_hash({"modes": modes, "chunk_budget": chunk_budget}),
            "backend_id": backend.backend_id,
            "backend_requests": getattr(backend, "misses", None),
            "cache_hits": getattr(backend, "hits", None),
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
    cohort = _load_corpus_dir(args.corpus)
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
        for mode in MODES:
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
        methods += [(mode, predictions[mode]) for mode in MODES]
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
    cohort = _load_corpus_dir(args.corpus)
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
    p.add_argument("--mode", choices=MODES + ("all",), default="merged")
    p.add_argument("--condition")
    p.add_argument("--profiles")
    p.add_argument("--evidence", action="store_true", help="also collect highlight spans")
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
