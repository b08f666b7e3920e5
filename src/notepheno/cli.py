"""Command-line pipeline: synth, profile, preprocess, detect, evaluate, trend, bench."""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import logging
import os
import sys
import time
from collections import Counter, defaultdict
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import evaluation
from .adjudication import (
    MODE_PATHS,
    Findings,
    apply_clinical_rule,
    combine_chunk_statuses,
    merge_patient,
    parse_extraction_response,
    parse_inference_response,
)
from .corpus import (
    CorpusError,
    SynthSpec,
    _atomic_write,
    _is_label,
    _records,
    encode_record,
    generate_synthetic,
    iter_documents,
    load_labels,
    load_patients,
    reference_map,
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
    compute_information_relevance,
    consolidate,
    filter_document_types,
    resolve_percentile,
    retention_report,
    sample_document_types,
)
from .prompting import ConditionProfile, _read_yaml, builtin_profiles, load_profiles, render_prompt

__all__ = ["main", "run_profile", "run_detect"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2


# ---------------------------------------------------------------------------
# small IO helpers

def _check_merged(pid, text, patients: Mapping) -> str | None:
    """The complaint, if any, about a merged record: a cohort patient's string text (maybe empty)."""
    if text is None:
        return "missing field 'text'"
    if pid not in patients:
        return f"unknown patient_id {pid!r}"
    if not isinstance(text, str):
        return f"text must be a string, got {text!r}"
    return None


def _out_file(path, flag: str = "--out") -> Path:
    """The file a flag names for a stage to write, refused before the stage
    reads or sends anything if it is a directory."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{flag} {path} is a directory, not a file")
    return path


def _out_dir(path) -> Path:
    """The directory `--out` names for a stage to write into, refused before
    the stage reads or sends anything if it is an existing file."""
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise NotADirectoryError(f"--out {path} is a file, not a directory")
    return path


def _csv(path: Path, header, rows) -> tuple[Path, tuple[str]]:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return path, (buf.getvalue(),)


def _manifest(out_dir: Path, stage: str, started: float, settings: dict, **observed) -> tuple[Path, Callable]:
    """The `(path, parts)` of `manifest_<stage>.json` for `_atomic_write`: the
    JSON-native `settings` the stage ran with, `config_hash` (a sha256 of
    exactly those settings), what the stage `observed`, `outputs` (the `{file
    name: sha256}` of every file written before it in the same call) and
    `elapsed_s` since `started`, taken only as the file is written, so a
    manifest written last times every other write."""
    def parts(outputs: Mapping[str, str]) -> tuple[str]:
        config_hash = hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest()[:16]
        return (json.dumps({"stage": stage, "config_hash": config_hash, **settings, **observed, "outputs": outputs,
                            "elapsed_s": round(time.monotonic() - started, 3)}, indent=2, sort_keys=True),)
    return out_dir / f"manifest_{stage}.json", parts


def _check_listed(path: Path, stage: str) -> None:
    """Refuse a file that `manifest_<stage>.json` beside it does not list among
    its `outputs` with the sha256 of the file's bytes: the file is not one
    the run that manifest records wrote. Without that manifest nothing is
    checked, so hand-made inputs still run."""
    manifest = path.parent / f"manifest_{stage}.json"
    if not manifest.exists():
        return
    listed = json.loads(manifest.read_text(encoding="utf-8")).get("outputs")
    if not isinstance(listed, dict) or path.name not in listed:
        raise ValueError(f"{path} is not among the outputs {manifest.name} lists, so it is not of that run")
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    if digest.hexdigest() != listed[path.name]:
        raise ValueError(f"{path} is not the file {manifest.name} lists: its sha256 differs")


# ---------------------------------------------------------------------------
# config and shared argument plumbing

def _load_config(path, args, settings: Mapping[str, Callable]) -> tuple[dict, dict]:
    """The mapping in the YAML file at `path`, and the flag defaults it sets
    for the command `args` was parsed for: each key of `settings` that names
    a flag of the command, its text read by that flag's type, and for a backend
    command the `generation` block over `GenerationParams()`, each value read
    by its default's type. A null value sets nothing; other keys, and keys of
    the block that `GenerationParams` does not name, are ignored. A value that
    cannot be read raises ValueError naming the file and key."""
    if not path:
        return {}, {}
    raw = _read_yaml(path)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")

    def read(key, convert, value):
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: cannot read {key} {value!r}: {exc}") from None

    def generation(block) -> GenerationParams:
        block, base = dict(block), GenerationParams()
        return base._replace(**{
            name: type(value)(block[name]) for name, value in base._asdict().items() if block.get(name) is not None
        })

    defaults = {
        key: read(key, convert, str(raw[key]))  # as the flag would read the same text
        for key, convert in settings.items()
        if raw.get(key) is not None and hasattr(args, key)
    }
    if raw.get("generation") is not None and hasattr(args, "generation"):
        defaults["generation"] = read("generation", generation, raw["generation"])
    return raw, defaults


def _make_backend(args) -> Backend:
    if args.mock:
        backend: Backend = MockBackend()
    elif args.backend_url:
        backend = HttpBackend(args.backend_url)
    else:
        raise BackendError("no backend configured: pass --mock or --backend-url")
    if args.cache_dir:
        backend = CachedBackend(backend, ResponseCache(args.cache_dir))
    return backend


def _corpus_file(directory, name: str) -> Path:
    path = Path(directory) / name
    if not path.exists():
        raise FileNotFoundError(f"corpus file missing: {path}")
    return path


def _check_dispatch(args) -> None:
    """Refuse a backend stage's `--parallelism` or `--chunk-budget` below 1,
    by its config key and flag, before the stage reads any corpus file."""
    for key, flag in (("parallelism", "--parallelism"), ("chunk_budget", "--chunk-budget")):
        if getattr(args, key) < 1:
            raise ValueError(f"{key} must be at least 1, got {getattr(args, key)} ({flag})")


def _select_profiles(args) -> list[ConditionProfile]:
    profiles = load_profiles(args.profiles) if args.profiles else builtin_profiles()
    if args.condition:
        selected = [p for p in profiles if p.name == args.condition]
        if not selected:
            raise ValueError(f"unknown condition {args.condition!r}")
        return selected
    return profiles


def _profile_hashes(profiles: Sequence[ConditionProfile]) -> dict[str, str]:
    """A manifest's `profiles`: per condition, the first 16 hex digits of the
    sha256 of its profile as JSON."""
    return {p.name: hashlib.sha256(json.dumps(p).encode("utf-8")).hexdigest()[:16] for p in profiles}


def _labels_if_any(corpus, patients: Mapping):
    """The corpus's reference labels, or None for a corpus without `labels.jsonl`."""
    path = Path(corpus) / "labels.jsonl"
    return load_labels(path, patients) if path.exists() else None


# ---------------------------------------------------------------------------
# pipeline stages (importable; the subcommands are thin wrappers)

def _ask_all(
    plan: Sequence[tuple[Mapping[str, str], ConditionProfile]], paths: Sequence[str], backend: Backend,
    params: GenerationParams, parallelism: int, chunk_budget: int, counts: Counter | None,
) -> list[dict[str, dict[str, object]]]:
    """The request plan of a backend stage, sent in one dispatch.

    `plan` holds each condition's `{owner: text}` and profile, and every text
    is asked the prompt `paths`. Each distinct text is chunked once for the
    stage, whichever conditions and owners hold it. The plan is one ordered
    set of asks `(condition, path, chunk text)`, each where it first occurs
    condition by condition, by owner, chunk and path; each ask is rendered and
    sent once, and every owner that asked it reads its parsed reply by the
    ask. A worker renders, completes and parses one request, so neither the
    prompts nor the raw replies of the stage are ever held together. Returns,
    per condition of `plan`, `{path: {owner: reply}}`: an inference reply is
    the owner's chunk verdicts combined, an extraction reply the tuple of its
    chunks' measurements in chunk order.

    `counts` gets the requests sent, the asks that shared an earlier ask's
    request, the oversized chunks (of each distinct text) and the extracted
    values dropped as implausible. The oversized chunks and the dropped
    values are also logged, in one warning each for the whole stage (one per
    analyte side for the values), so a large corpus does not log one line per
    record. A chunk budget below 1 raises ValueError before any text is
    chunked.
    """
    if chunk_budget < 1:
        raise ValueError(f"chunk_budget must be at least 1, got {chunk_budget}")
    chunked: dict[str, list[str]] = {}  # each distinct text's chunk texts
    owners: list[dict[str, list[str]]] = []  # per condition, each owner's chunk texts
    planned = oversized = 0
    for texts, _ in plan:
        owners.append({})
        for owner in sorted(texts):
            text = texts[owner]
            chunks = chunked.get(text)
            if chunks is None:
                pieces = chunk_text(text, chunk_budget)
                oversized += sum(chunk.oversized for chunk in pieces)
                chunks = chunked[text] = [chunk.text for chunk in pieces]
            owners[-1][owner] = chunks
            planned += len(chunks) * len(paths)
    del chunked  # free it before the replies arrive
    # the ordered set of distinct asks: a key asked again keeps its first place
    asks = dict.fromkeys((at, path, chunk) for at, chunks_of in enumerate(owners)
                         for chunks in chunks_of.values() for chunk in chunks for path in paths)
    if oversized:
        logger.warning(
            "%d chunk(s) hold a single sentence longer than the chunk budget of %d "
            "characters and were sent whole",
            oversized,
            chunk_budget,
        )
    dropped: list[str] = []  # the analyte side of each implausible value, appended by the workers

    def ask(key):
        at, kind, text = key
        profile = plan[at][1]
        reply = backend.complete(CompletionRequest(render_prompt(profile, kind, text).text, params))
        if kind == "inference":
            return parse_inference_response(reply.text)
        # a tuple: most replies hold no value, and every empty tuple is one object
        return tuple(parse_extraction_response(reply.text, profile.rule.analyte, dropped))

    parsed = dict(zip(asks, run_parallel(ask, list(asks), parallelism)))
    for side, count in sorted(Counter(dropped).items()):
        logger.warning("dropped %d implausible %s value(s)", count, side)
    if counts is not None:
        counts["requests"] += len(asks)
        counts["coalesced_requests"] += planned - len(asks)
        counts["oversized_chunks"] += oversized
        counts["implausible_values"] += len(dropped)
    combine = {"inference": combine_chunk_statuses, "extraction": lambda found: tuple(chain.from_iterable(found))}
    return [{path: {owner: combine[path]([parsed[at, path, chunk] for chunk in chunks])
                    for owner, chunks in chunks_of.items()} for path in paths}
            for at, chunks_of in enumerate(owners)]


def _sample_documents_file(path: Path, patients: Mapping, m: int, seed: int) -> dict[str, list]:
    """`sample_document_types` over a documents file, which is read twice
    and never held: the first pass checks every line and keeps each
    document's id and position, the second parses only the sampled lines."""
    picked = sample_document_types(iter_documents(path, patients), m, seed)
    wanted = sorted(at for positions in picked.values() for at in positions)
    read = dict(zip(wanted, iter_documents(path, patients, only=frozenset(wanted))))
    return {doc_type: [read[at] for at in positions] for doc_type, positions in picked.items()}


def run_profile(
    samples: Mapping[str, list],
    profiles: Sequence[ConditionProfile],
    backend: Backend,
    params: GenerationParams,
    parallelism: int = 1,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    counts: Counter | None = None,
) -> dict[str, list[DocTypeProfile]]:
    """Infer each sampled document for every condition and score relevance.

    `samples` holds per document type the documents `sample_document_types`
    picked. One `{doc_id: text}` of the sample serves every condition, and all
    inference requests go out in one dispatch. Returns the relevance table
    per condition name; `counts` is as in `_ask_all`.
    """
    texts = {doc.doc_id: doc.text for docs in samples.values() for doc in docs}
    replies = _ask_all([(texts, profile) for profile in profiles], ("inference",),
                       backend, params, parallelism, chunk_budget, counts)
    return {
        profile.name: compute_information_relevance(samples, found["inference"])
        for profile, found in zip(profiles, replies)
    }


def run_detect(
    patients: Iterable[str],
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

    Yields `(condition, {patient_id: findings})` for every id of `patients`, in
    the order of `selected`, adjudicating each condition only when it is
    taken, so a caller that writes one condition before taking the next holds
    one condition's findings at a time. The texts are not held once this
    returns: the generator holds the profiles and their replies. Patients
    without text share one empty record, which every mode labels 0, without
    any backend traffic; a condition where no patient has text is logged in
    one warning. `counts` is as in `_ask_all`.
    """
    for mode in modes:
        if mode not in MODE_PATHS:
            raise ValueError(f"unknown mode {mode!r}")
    # "merged" asks every path, so its row gives the order: inference first.
    paths = [p for p in MODE_PATHS["merged"] if any(p in MODE_PATHS[mode] for mode in modes)]
    profiles = [profile for _, profile in selected]
    for texts, profile in selected:
        if not texts:
            logger.warning("%s: no patient has text, so every patient is labelled 0 without a request", profile.name)
    replies = _ask_all(selected, paths, backend, params, parallelism, chunk_budget, counts)

    def findings(by_path: dict[str, dict], profile: ConditionProfile) -> dict[str, Findings]:
        no_text = Findings({}, ())
        found = {}
        for pid in sorted(patients):
            statuses = {path: by_owner[pid] for path, by_owner in by_path.items() if pid in by_owner}
            measurements = statuses.get("extraction", ())
            if "extraction" in statuses:
                statuses["extraction"] = apply_clinical_rule(measurements, profile.rule)
            found[pid] = Findings(statuses, measurements) if statuses else no_text
        return found

    return ((profile.name, findings(replies.pop(0), profile)) for profile in profiles)


# ---------------------------------------------------------------------------
# subcommands

def _parse_prevalence(entries, conditions: Sequence[str]) -> dict[str, float]:
    prevalence = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ValueError(f"--prevalence expects name=fraction, got {entry!r}")
        name, _, frac = entry.partition("=")
        name = name.strip()
        if name not in conditions:
            raise ValueError(f"--prevalence {entry!r} names no selected condition: {', '.join(conditions)}")
        if name in prevalence:
            raise ValueError(f"--prevalence {entry!r}: {name!r} is given more than once")
        try:
            prevalence[name] = float(frac)
        except ValueError as exc:
            raise ValueError(f"--prevalence {entry!r}: {exc}") from None
        if not 0.0 <= prevalence[name] <= 1.0:  # also refuses nan
            raise ValueError(f"--prevalence {entry!r}: the fraction must be in [0, 1]")
    if not prevalence:
        raise ValueError("at least one --prevalence name=fraction is required")
    return prevalence


def _cmd_synth(args) -> int:
    started = time.monotonic()
    if args.n_patients < 1:
        raise ValueError(f"--n-patients must be at least 1, got {args.n_patients}")
    if not 1 <= args.docs_min <= args.docs_max:
        raise ValueError(f"--docs-min and --docs-max must satisfy 1 <= min <= max, "
                         f"got {args.docs_min} and {args.docs_max}")
    profiles = _select_profiles(args)
    spec = SynthSpec(
        n_patients=args.n_patients,
        prevalence=_parse_prevalence(args.prevalence, [profile.name for profile in profiles]),
        docs_per_patient=(args.docs_min, args.docs_max),
        seed=args.seed,
    )
    out_dir = _out_dir(args.out)
    patients, labels = {}, []

    def notes():  # one patient's notes at a time, written as they are drawn
        for patient, drawn, drawn_labels in generate_synthetic(spec, profiles):
            patients[patient.patient_id] = patient
            labels.extend(drawn_labels)
            yield from drawn

    def truth():  # a generator body, so the labels are sorted only once every note is drawn
        # a synthetic patient's registry label is its planted truth
        for label in sorted(labels):
            yield (f'{{"condition": {encode_basestring(label.condition)}, "label": {label.registry_label}, '
                   f'"patient_id": {encode_basestring(label.patient_id)}}}\n')

    write_cohort(notes(), patients, labels,
                 *(out_dir / name for name in ("documents.jsonl", "patients.jsonl", "labels.jsonl")),
                 (out_dir / "truth.jsonl", truth()), _manifest(out_dir, "synth", started, {"spec": spec._asdict()}))
    print(f"wrote synthetic cohort of {spec.n_patients} patients to {out_dir}")
    return EXIT_OK


def _cmd_profile(args) -> int:
    started = time.monotonic()
    _check_dispatch(args)
    if args.m < 1:
        raise ValueError(f"m must be at least 1, got {args.m} (--m)")
    out = _out_file(args.out)
    documents = _corpus_file(args.corpus, "documents.jsonl")
    patients = load_patients(_corpus_file(args.corpus, "patients.jsonl"))
    backend = _make_backend(args)
    profiles = _select_profiles(args)
    counts: Counter = Counter()
    relevance = run_profile(
        _sample_documents_file(documents, patients, args.m, args.seed), profiles, backend, args.generation,
        args.parallelism, args.chunk_budget, counts,
    )
    rows = [
        (condition, p.doc_type, p.sampled_count, p.positive_count, f"{p.ir:.6f}")
        for condition, table in relevance.items()
        for p in table
    ]
    evidence = {condition: {p.doc_type: {"sampled_count": p.sampled_count, "positive_count": p.positive_count,
                                         "ir_upper": round(p.ir_upper, 6)} for p in table}
                for condition, table in relevance.items()}
    _atomic_write([_csv(out, ("condition", "doc_type", "sampled_count", "positive_count", "ir"), rows),
                   _manifest(out.parent, "profile", started,
                             {"m": args.m, "seed": args.seed, "chunk_budget": args.chunk_budget,
                              "generation": args.generation._asdict(), "profiles": _profile_hashes(profiles)},
                             **_backend_block(backend, counts), type_evidence=evidence)])
    print(f"wrote document-type relevance table to {out}")
    return EXIT_OK


def _backend_block(backend: Backend, counts: Counter) -> dict:
    """The manifest keys of a backend stage, from its `_ask_all` counts.
    Behind a cache only the misses reach the backend; without one there are
    no hits. `coalesced_requests` counts the asks that shared an identical
    ask's request in the stage, and `implausible_values` the extracted
    values dropped as implausible."""
    cached = isinstance(backend, CachedBackend)
    return {
        "backend_id": backend.backend_id,
        "backend_requests": backend.misses if cached else counts["requests"],
        "cache_hits": backend.hits if cached else 0,
        "coalesced_requests": counts["coalesced_requests"],
        "oversized_chunks": counts["oversized_chunks"],
        "implausible_values": counts["implausible_values"],
    }


def _read_profile_csv(path) -> dict[str, list[DocTypeProfile]]:
    """The rows of a profile stage's table, per condition, every row checked."""
    tables: dict[str, list[DocTypeProfile]] = defaultdict(list)
    with Path(path).open(encoding="utf-8") as handle:
        reader = csv.DictReader(handle, restval="")  # a short row's missing fields read ""
        columns = ("condition", "doc_type", "sampled_count", "positive_count")
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} line 1: missing column(s) {', '.join(missing)}")
        seen = set()
        for row in reader:
            key = (row["condition"], row["doc_type"])
            if key in seen:
                raise ValueError(f"{path} line {reader.line_num}: duplicate row for {key[0]!r}/{key[1]!r}")
            seen.add(key)
            try:
                sampled, positive = int(row["sampled_count"]), int(row["positive_count"])
            except ValueError:
                raise ValueError(f"{path} line {reader.line_num}: missing or non-integer count") from None
            try:
                tables[row["condition"]].append(DocTypeProfile(row["doc_type"], sampled, positive))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return tables


def _merged_lines(condition: str, merged: Mapping[str, str]):
    """The lines of a merged file: `encode_record` of each patient's record
    `{patient_id, text, condition}`, built around the file's one condition."""
    head = '{"condition": ' + encode_record(condition) + ', "patient_id": '
    for pid in sorted(merged):
        yield f'{head}{encode_basestring(pid)}, "text": {encode_basestring(merged[pid])}}}\n'


def _cmd_preprocess(args) -> int:
    started = time.monotonic()
    try:  # before any file is read
        resolve_percentile(args.percentile)
    except ValueError as exc:
        raise ValueError(f"{exc} (--percentile)") from None
    out_dir = _out_dir(args.out)
    documents = _corpus_file(args.corpus, "documents.jsonl")
    patients = load_patients(_corpus_file(args.corpus, "patients.jsonl"))
    labels = _labels_if_any(args.corpus, patients)
    profiles = _select_profiles(args)
    tables = _read_profile_csv(args.profile_csv)
    for profile in profiles:
        if profile.name not in tables:
            raise ValueError(f"{args.profile_csv}: no rows for condition {profile.name!r}")
    selected = [(filter_document_types(tables[profile.name], args.percentile), profile) for profile in profiles]
    type_filter = {}
    for plan, profile in selected:
        if not plan.kept_types:
            logger.warning("%s: no document type is kept at percentile %s, so its merged file is empty",
                           profile.name, args.percentile)
        # dropped, though the sample cannot tell their relevance from the kept types'
        undecided = sorted(p.doc_type for p in tables[profile.name]
                           if p.doc_type not in plan.kept_types and p.ir_upper > plan.threshold_value)
        type_filter[profile.name] = {"kept": sorted(plan.kept_types), "dropped_undecided": undecided}
        if undecided:
            logger.info("%s: %d dropped document type(s) have a 95%% Wilson upper bound of their relevance "
                        "above the cut of %.6f: %s", profile.name, len(undecided), plan.threshold_value,
                        ", ".join(undecided))
    # the stage needs the labels only as each condition's positive patients:
    # the rest is freed before the notes stream. Without labels there are none.
    positives = [{pid for pid, label in reference_map(labels or (), profile.name).items() if label}
                 for _, profile in selected]
    labels_read = labels is not None
    del labels
    counts: Counter = Counter()
    consolidated = consolidate(iter_documents(documents, patients), selected, counts)
    files, stats_rows = [], []
    for (plan, profile), merged, positive in zip(selected, consolidated, positives):
        stats = retention_report(counts["words"], positive, merged)
        files.append((out_dir / f"merged_{profile.name}.jsonl", _merged_lines(profile.name, merged)))
        stats_rows.append((profile.name, len(plan.kept_types), f"{plan.threshold_value:.6f}",
                           f"{stats.words_fraction_remaining:.4f}",
                           "" if stats.positive_retention is None else f"{stats.positive_retention:.4f}"))
    header = ("condition", "kept_type_count", "ir_threshold", "words_fraction_remaining", "positive_retention")
    _atomic_write([*files, _csv(out_dir / "consolidation_stats.csv", header, stats_rows),
                   _manifest(out_dir, "preprocess", started,
                             {"percentile": args.percentile, "profiles": _profile_hashes(profiles)},
                             labels_read=labels_read, type_filter=type_filter)])
    print(f"wrote consolidated corpus and stats to {out_dir}")
    return EXIT_OK


def _detect_texts(args, patients: Mapping, conditions: Sequence[str]) -> list[dict[str, str]]:
    """Each condition's `{patient_id: text}` for detect, in the order of
    `conditions`: the merged text of the preprocess artifact, or under
    --no-preprocess each patient's raw notes joined in timestamp order, the
    same for every condition.

    The raw notes are read twice and never held together: the first pass
    checks every line and keeps each patient's last position, the second
    keeps each note's timestamp, id and text only until its patient's last
    note is read. So a file grouped by patient holds one patient's notes at
    a time, and any file order gives the same texts.

    A merged file that holds records, but none for a condition, is refused:
    it was written for other conditions. So is a second record of one patient
    for one condition. An empty file labels all patients 0.
    """
    if args.no_preprocess:
        documents = _corpus_file(args.corpus, "documents.jsonl")
        last = {doc.patient_id: at for at, doc in enumerate(iter_documents(documents, patients))}
        notes: dict[str, list] = defaultdict(list)
        raw = {}
        for at, doc in enumerate(iter_documents(documents, patients)):
            pid = doc.patient_id
            notes[pid].append((doc.timestamp, doc.doc_id, doc.text))
            if last[pid] == at:
                # doc ids are unique, so the texts are never compared
                text = " ".join(note for _, _, note in sorted(notes.pop(pid)) if note).strip()
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
        found: dict[str, str] = {}
        held = False
        for lineno, record, (pid, cond) in _records(path, ("patient_id", "condition")):
            text = record.get("text")
            complaint = _check_merged(pid, text, patients)
            if not complaint and cond == condition:
                if pid in found:
                    complaint = f"duplicate record for {pid!r}/{condition!r}"
                found[pid] = text
            if complaint:
                raise CorpusError(f"{path.name} line {lineno}: {complaint}")
            held = True
        if held and not found:
            raise ValueError(f"{path} holds merged records, but none for condition {condition!r}")
        if merged_arg.is_dir():
            _check_listed(path, "preprocess")
        texts.append(found)
    return texts


def _label_lines(condition: str, mode: str, findings: Mapping[str, Findings]):
    """The lines of a label file: `encode_record` of each patient's record
    `{patient_id, condition, label, mode, measurements}`, the measurements
    being those of the extraction path when `mode` asks it. The keys are in
    sorted order around the file's one condition and mode; only the patient
    id, the label and any measurements are encoded per line."""
    extraction = "extraction" in MODE_PATHS[mode]
    head = '{"condition": ' + encode_record(condition) + ', "label": '
    tail = ', "mode": ' + encode_record(mode) + ', "patient_id": '
    for pid in sorted(findings):
        found = findings[pid]
        measured = found.measurements if extraction else ()
        measurements = encode_record([m._asdict() for m in measured]) if measured else "[]"
        label = merge_patient(found.statuses, mode)
        yield f'{head}{label}, "measurements": {measurements}{tail}{encode_basestring(pid)}}}\n'


def _cmd_detect(args) -> int:
    started = time.monotonic()
    if args.merged and args.no_preprocess:
        raise ValueError("--merged and --no-preprocess exclude each other: pass one of them")
    _check_dispatch(args)
    # The merged texts come from the preprocess artifact, and the raw notes of
    # --no-preprocess are streamed from the documents file: of the corpus,
    # only the patients are loaded.
    out_dir = _out_dir(args.out)
    patients = load_patients(_corpus_file(args.corpus, "patients.jsonl"))
    backend = _make_backend(args)
    modes = tuple(MODE_PATHS) if args.mode == "all" else (args.mode,)
    out_dir.mkdir(parents=True, exist_ok=True)

    profiles = _select_profiles(args)
    counts: Counter = Counter()
    settings = {"modes": list(modes), "chunk_budget": args.chunk_budget,
                "input": "no_preprocess" if args.no_preprocess else "merged",
                "generation": args.generation._asdict(), "profiles": _profile_hashes(profiles)}
    source = {} if args.no_preprocess else {"merged": str(args.merged)}  # observed: a path is not a setting

    def files():  # a generator, so one condition's findings are written before the next is taken
        # run_detect is the only holder of the texts, so they are freed once it has planned
        for condition, findings in run_detect(
            patients, list(zip(_detect_texts(args, patients, [profile.name for profile in profiles]), profiles)),
            backend, args.generation, modes=modes,
            chunk_budget=args.chunk_budget, parallelism=args.parallelism, counts=counts,
        ):
            for mode in modes:
                yield out_dir / f"detect_{mode}_{condition}.jsonl", _label_lines(condition, mode, findings)
        yield _manifest(out_dir, "detect", started, settings, **_backend_block(backend, counts), **source)

    _atomic_write(files())
    print(f"wrote {len(profiles) * len(modes)} label file(s) to {out_dir}")
    return EXIT_OK


def _predictions(path, condition: str | None = None, mode: str | None = None) -> tuple[str, dict[str, int]]:
    """The one condition of a detect label file and its `{patient_id: label}`.
    A record must hold a string `patient_id`, `condition` and `mode`, a
    `label` of 0 or 1, and name its patient once, or CorpusError names the
    file and line. A file of no condition, of several, or not of `condition`
    raises ValueError, and so does one of several modes or not of `mode`."""
    found: dict[str, dict[str, int]] = defaultdict(dict)
    modes: set[str] = set()
    for lineno, record, (pid, cond, record_mode) in _records(path, ("patient_id", "condition", "mode")):
        label = record.get("label")
        if label is None:
            complaint = "missing field 'label'"
        elif not _is_label(label):
            complaint = f"label must be 0 or 1, got {label!r}"
        elif pid in found[cond]:
            complaint = f"duplicate label for {pid!r}/{cond!r}"
        else:
            found[cond][pid] = label
            modes.add(record_mode)
            continue
        raise CorpusError(f"{Path(path).name} line {lineno}: {complaint}")
    for name, wanted, held in (("condition", condition, found), ("mode", mode, modes)):
        if len(held) != 1 or wanted not in (None, *held):
            expected = f"one {name}" if wanted is None else f"{name} {wanted!r}"
            raise ValueError(f"{path}: expected the prediction records of {expected}, "
                             f"found {', '.join(sorted(held)) or 'none'}")
    return next(iter(found.items()))


def _format_metric(est) -> tuple[str, str, str]:
    if est is None:
        return ("undefined", "", "")
    return (f"{est.point:.3f}", f"{est.low:.3f}", f"{est.high:.3f}")


def _cmd_evaluate(args) -> int:
    started = time.monotonic()
    if not 0.0 < args.ci_level < 1.0:  # before any file is read; `evaluation.metrics` checks it too
        raise ValueError(f"ci_level must be in (0, 1), got {args.ci_level} (--ci-level)")
    out = _out_file(args.out)
    patients = load_patients(_corpus_file(args.corpus, "patients.jsonl"))
    labels = load_labels(_corpus_file(args.corpus, "labels.jsonl"), patients)
    detect_dir = Path(args.detect_dir)
    header = (
        "method", "condition",
        "sensitivity", "sens_low", "sens_high",
        "specificity", "spec_low", "spec_high",
        "ppv", "ppv_low", "ppv_high",
        "npv", "npv_low", "npv_high",
    )
    rows = []
    for profile in _select_profiles(args):
        condition = profile.name
        reference = reference_map(labels, condition)
        has_icd = all(lab.icd_label is not None for lab in labels if lab.condition == condition)
        predictions: dict[str, dict[str, int]] = {}
        for mode in MODE_PATHS:
            path = detect_dir / f"detect_{mode}_{condition}.jsonl"
            if not path.exists():
                raise FileNotFoundError(
                    f"detect artifact not found: {path}; run detect --mode all first"
                )
            predictions[mode] = _predictions(path, condition, mode)[1]
            evaluation._require_same_patients(predictions[mode], reference, f"{path}: ")
            _check_listed(path, "detect")
        methods: list[tuple[str, dict[str, int]]] = []
        if has_icd:
            icd = reference_map(labels, condition, icd=True)
            methods.append(("icd10", icd))
        methods += list(predictions.items())
        if has_icd:
            methods.append(("pipeline_plus_icd", evaluation.combine_or(predictions["merged"], icd)))
        for method, pred in methods:
            cm = evaluation.confusion(pred, reference)
            ms = evaluation.metrics(cm, args.ci_level)
            rows.append(
                (method, condition)
                + _format_metric(ms.sensitivity)
                + _format_metric(ms.specificity)
                + _format_metric(ms.ppv)
                + _format_metric(ms.npv)
            )
    _atomic_write([_csv(out, header, rows), _manifest(out.parent, "evaluate", started, {"ci_level": args.ci_level})])
    # human-readable echo
    print(f"{'method':<18}{'condition':<14}{'sens':>8}{'spec':>8}{'ppv':>8}{'npv':>8}")
    for row in rows:
        print(f"{row[0]:<18}{row[1]:<14}{row[2]:>8}{row[5]:>8}{row[8]:>8}{row[11]:>8}")
    return EXIT_OK


def _trend_svg(points, condition: str) -> str:
    from xml.sax.saxutils import escape  # only the chart needs it

    width, height, pad = 640, 320, 48
    if not points:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    xs = list(range(len(points)))
    span = max(1, len(points) - 1)
    referenced = points[0].reference_pct is not None  # a corpus without labels has no reference line

    def x_px(i):
        return pad + (width - 2 * pad) * i / span

    def y_px(v):
        return height - pad - (height - 2 * pad) * v

    def polyline(values, color):
        pts = " ".join(f"{x_px(i):.1f},{y_px(v):.1f}" for i, v in zip(xs, values))
        return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'

    labels = "".join(
        f'<text x="{x_px(i):.1f}" y="{height - pad + 16}" font-size="9" text-anchor="middle">'
        f'{escape(p.month)}</text>'
        for i, p in enumerate(points)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">'
        f"monthly positive fraction: {escape(condition)}</text>"
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        f'fill="none" stroke="#ccc"/>'
        + (polyline([p.reference_pct for p in points], "#1f77b4") if referenced else "")
        + polyline([p.predicted_pct for p in points], "#d62728")
        + labels
        + f'<text x="{width - pad}" y="{pad - 8}" text-anchor="end" font-size="11">'
        + ('<tspan fill="#1f77b4">reference</tspan>  ' if referenced else "")
        + '<tspan fill="#d62728">predicted</tspan></text>'
        "</svg>"
    )


def _cmd_trend(args) -> int:
    out = _out_file(args.out)
    svg = _out_file(args.svg, "--svg") if args.svg else None
    patients = load_patients(_corpus_file(args.corpus, "patients.jsonl"))
    labels = _labels_if_any(args.corpus, patients)
    condition, predicted = _predictions(args.pred)
    reference = None if labels is None else reference_map(labels, condition)
    points = evaluation.monthly_trend(patients, predicted, reference)
    rows = [(p.month, p.n, "" if reference is None else f"{p.reference_pct:.4f}", f"{p.predicted_pct:.4f}")
            for p in points]
    files = [_csv(out, ("month", "n", "reference_pct", "predicted_pct"), rows)]
    if svg:
        files.append((svg, (_trend_svg(points, condition),)))
    _atomic_write(files)
    print(f"wrote {len(points)} monthly trend points for {condition}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.mock:  # it answers only the prompts of the built-in templates
        raise ValueError("the mock backend answers no benchmark question: pass --backend-url")
    out = _out_file(args.out)
    from . import bench  # only the bench command needs the question set

    result = bench.run_benchmark(_make_backend(args), params=args.generation)
    rows = [
        (r.question_id, int(r.correct), f"{r.latency_ms:.1f}") for r in result.results
    ]
    rows.append(("accuracy", f"{result.accuracy:.2f}", f"{result.elapsed_s:.2f}"))
    _atomic_write([_csv(out, ("question", "correct", "latency_ms"), rows)])
    print(
        f"benchmark accuracy {result.accuracy:.0%} in {result.elapsed_s:.1f}s "
        f"({result.backend_id})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> tuple[argparse.ArgumentParser, dict, dict[str, Callable]]:
    """The argument parser, its subcommand parsers by name, and the type of
    each flag that a config file may set, by its key in the file.

    A flag's default is its built-in value, or the environment variable its
    help names; `main` puts a config file's values over them."""
    settings: dict[str, Callable] = {}

    def setting(parser, flag, **kwargs) -> None:
        settings[parser.add_argument(flag, **kwargs).dest] = kwargs.get("type", str)

    # the flags shared by several subcommands, each declared once
    corpus, out, conditions, dispatch, backend = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    corpus.add_argument("--corpus", required=True, help="corpus directory")
    out.add_argument("--out", required=True)
    conditions.add_argument("--condition", help="run this condition only")
    setting(conditions, "--profiles", help="condition-profile YAML overriding the built-ins")
    setting(dispatch, "--chunk-budget", type=int, default=DEFAULT_CHUNK_BUDGET,
            help="characters of text per request (default %(default)s)")
    setting(dispatch, "--parallelism", type=int, default=DEFAULT_PARALLELISM,
            help="concurrent backend requests (default %(default)s)")
    backend.add_argument("--mock", action="store_true", help="use the deterministic mock backend")
    setting(backend, "--backend-url", default=os.environ.get("NOTEPHENO_BACKEND_URL"),
            help="base URL of the completion backend (default $NOTEPHENO_BACKEND_URL)")
    setting(backend, "--cache-dir", default=os.environ.get("NOTEPHENO_CACHE_DIR"),
            help="response cache directory (default $NOTEPHENO_CACHE_DIR)")
    backend.add_argument("--temperature", type=float, help="sampling temperature override")
    backend.add_argument("--model-id", help="backend model identifier override")
    backend.set_defaults(generation=GenerationParams())

    parser = argparse.ArgumentParser(
        prog="notepheno",
        description="Multi-condition phenotyping pipeline over clinical-note corpora.",
    )
    parser.add_argument("--config", help="YAML config file of flag defaults; flags override it")
    parser.add_argument(
        "--print-config", action="store_true",
        help="print the settings the command would run with, and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help, *parents) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("synth", _cmd_synth, "generate a deterministic synthetic cohort", out, conditions)
    p.add_argument("--n-patients", type=int, required=True)
    p.add_argument("--prevalence", action="append", metavar="NAME=FRAC")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--docs-min", type=int, default=2)
    p.add_argument("--docs-max", type=int, default=4)

    p = command("profile", _cmd_profile, "score document-type relevance via backend inference",
                corpus, out, conditions, dispatch, backend)
    setting(p, "--m", type=int, default=200, help="samples per document type (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)

    p = command("preprocess", _cmd_preprocess, "filter document types and consolidate keyword sentences",
                corpus, out, conditions)
    p.add_argument("--profile-csv", required=True, help="output of the profile stage")
    setting(p, "--percentile", default="q1", help="0, q1, q2, or a number in [0, 100] (default %(default)s)")

    p = command("detect", _cmd_detect, "run prompt paths over merged documents and label patients",
                corpus, out, conditions, dispatch, backend)
    p.add_argument("--merged", help="merged file or preprocess output directory")
    p.add_argument("--no-preprocess", action="store_true", help="run on raw concatenated notes")
    p.add_argument("--mode", choices=(*MODE_PATHS, "all"), default="merged")

    p = command("evaluate", _cmd_evaluate, "accuracy report against the reference labels",
                corpus, out, conditions)
    p.add_argument("--detect-dir", required=True)
    setting(p, "--ci-level", type=float, default=0.95, help="confidence level (default %(default)s)")

    p = command("trend", _cmd_trend, "monthly predicted vs reference positive fractions", corpus, out)
    p.add_argument("--pred", required=True, help="a detect output file")
    p.add_argument("--svg", help="also write a line chart")

    command("bench", _cmd_bench, "run the ten-question backend benchmark", out, backend)
    return parser, commands, settings


def main(argv=None) -> int:
    """Run one command. The cyclic garbage collector is off while it runs: a
    stage must build no reference cycles per record (tests check detect's), so
    collecting would only rescan its growing heap. The collector's earlier
    state is restored."""
    parser, commands, settings = _build_parser()
    args = parser.parse_args(argv)
    try:
        config, defaults = _load_config(args.config, args, settings)
        if defaults:  # the file's values, under the flags given
            commands[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        if hasattr(args, "generation"):  # a backend command: its flags over the file's block
            flags = {k: getattr(args, k) for k in ("temperature", "model_id") if getattr(args, k) is not None}
            args.generation = args.generation._replace(**flags)
        if args.print_config:
            resolved = {k: v for k, v in vars(args).items() if k not in ("func", "print_config")}
            if hasattr(args, "generation"):
                resolved["generation"] = args.generation._asdict()
            resolved["config_file_values"] = config
            print(json.dumps(resolved, indent=2, sort_keys=True, default=str))
            return EXIT_OK
        collecting = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        finally:
            if collecting:
                gc.enable()
    except (BackendError, TransportError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
