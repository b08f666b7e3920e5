"""Document-type relevance profiling, percentile filtering, and keyword consolidation."""
from __future__ import annotations

import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from typing import Collection, Iterable, Mapping, Sequence

from .adjudication import InferredStatus
from .corpus import ClinicalDocument, Cohort
from .prompting import ConditionProfile

__all__ = [
    "DocTypeProfile",
    "FilterPlan",
    "SentenceProvenance",
    "MergedDocument",
    "ConsolidatedCorpus",
    "ConsolidationStats",
    "sentence_spans",
    "keyword_regex",
    "sample_document_types",
    "compute_information_relevance",
    "filter_document_types",
    "consolidate",
    "consolidate_all",
    "positive_retention",
    "retention_report",
    "resolve_percentile",
]


@dataclass(frozen=True)
class DocTypeProfile:
    """Relevance profile of one document type for one condition."""

    doc_type: str
    sampled_count: int
    positive_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.positive_count <= self.sampled_count:
            raise ValueError("positive_count must lie in [0, sampled_count]")

    @property
    def ir(self) -> float:
        """Fraction of sampled records judged positive. Zero for empty samples."""
        if self.sampled_count == 0:
            return 0.0
        return self.positive_count / self.sampled_count


@dataclass(frozen=True)
class FilterPlan:
    condition: str
    percentile: float
    threshold_value: float
    kept_types: frozenset[str]


@dataclass(frozen=True)
class SentenceProvenance:
    doc_id: str
    start: int
    end: int


@dataclass(frozen=True)
class MergedDocument:
    patient_id: str
    condition: str
    text: str
    provenance: tuple[SentenceProvenance, ...]
    first_timestamp: datetime


@dataclass(frozen=True)
class ConsolidatedCorpus:
    """Per-patient merged keyword sentences plus the set of condition-free patients."""

    condition: str
    merged: Mapping[str, MergedDocument]
    condition_free: frozenset[str]


@dataclass(frozen=True)
class ConsolidationStats:
    words_fraction_remaining: float
    positive_retention: float | None
    kept_type_count: int


# Sentence boundaries: '.', '!' or '?' followed by whitespace or end of text,
# or any newline. No abbreviation handling; clinical notes are too irregular
# for it to pay off and the simple rule is auditable.
_BOUNDARY = re.compile(r"[.!?](?=\s|$)|\n")


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Split text into consecutive spans that concatenate back to the input.

    Trailing whitespace after a boundary is absorbed into the preceding span so
    the spans tile the text exactly.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        end = match.end()
        while end < len(text) and text[end].isspace():
            end += 1
        if end > start:
            spans.append((start, end))
        start = end
    if start < len(text):
        spans.append((start, len(text)))
    return spans


def keyword_regex(keywords: Iterable[str]) -> re.Pattern:
    """Case-insensitive matcher: word-bounded single tokens, contiguous phrases.

    Boundaries are non-word lookarounds so "mi" never fires inside "family",
    while hyphenated keywords like "glp-1" still match as written. Keywords are
    tried longest first (first-seen order among equal lengths), inside one
    pair of lookarounds: a keyword that fails the trailing check backtracks
    into the next one, so the matches are those of bounding every keyword on
    its own, at a fraction of the cost.
    """
    ordered = sorted(dict.fromkeys(keywords), key=len, reverse=True)
    if not ordered:
        raise ValueError("keywords must be non-empty")
    alternation = "|".join(re.escape(keyword).replace(r"\ ", r"\s+") for keyword in ordered)
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)", re.IGNORECASE)


def sample_document_types(
    cohort: Cohort, m: int, seed: int
) -> dict[str, list[ClinicalDocument]]:
    """Sample up to m documents per document type, uniformly without replacement."""
    if m < 1:
        raise ValueError("m must be >= 1")
    by_type: dict[str, list[ClinicalDocument]] = defaultdict(list)
    for doc in sorted(cohort.documents, key=lambda d: d.doc_id):
        by_type[doc.doc_type].append(doc)
    samples: dict[str, list[ClinicalDocument]] = {}
    for doc_type in sorted(by_type):
        docs = by_type[doc_type]
        rng = random.Random(f"{seed}:{doc_type}")
        picked = docs if len(docs) <= m else rng.sample(docs, m)
        samples[doc_type] = sorted(picked, key=lambda d: d.doc_id)
    return samples


def compute_information_relevance(
    samples: Mapping[str, list[ClinicalDocument]],
    verdicts: Mapping[str, InferredStatus],
) -> list[DocTypeProfile]:
    """Relevance per document type from per-document inference verdicts.

    The denominator is the actual sampled count, so short types are not
    penalized for having fewer than m records.
    """
    profiles = []
    for doc_type in sorted(samples):
        docs = samples[doc_type]
        positives = 0
        for doc in docs:
            if doc.doc_id not in verdicts:
                raise ValueError(f"missing verdict for sampled document {doc.doc_id!r}")
            if verdicts[doc.doc_id] is InferredStatus.YES:
                positives += 1
        profiles.append(DocTypeProfile(doc_type, len(docs), positives))
    return profiles


def resolve_percentile(label) -> float:
    """Map the CLI spelling of a threshold level ('0', 'q1', 'q2', or a number)."""
    if isinstance(label, (int, float)):
        value = float(label)
    else:
        text = str(label).strip().lower()
        if text == "q1":
            value = 25.0
        elif text == "q2":
            value = 50.0
        else:
            value = float(text)
    if not 0.0 <= value <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {label!r}")
    return value


def filter_document_types(
    profiles: list[DocTypeProfile], percentile, condition: str = ""
) -> FilterPlan:
    """Keep document types whose relevance strictly exceeds the percentile cut.

    The threshold is the nearest-rank percentile over all per-type relevance
    values, zeros included; percentile 0 degenerates to "keep anything above
    zero".
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    p = resolve_percentile(percentile)
    irs = sorted(profile.ir for profile in profiles)
    rank = math.ceil(p / 100.0 * len(irs))
    threshold = 0.0 if rank < 1 else irs[rank - 1]
    kept = frozenset(profile.doc_type for profile in profiles if profile.ir > threshold)
    return FilterPlan(
        condition=condition, percentile=p, threshold_value=threshold, kept_types=kept
    )


def consolidate(
    cohort: Cohort, plan: FilterPlan, profile: ConditionProfile
) -> tuple[ConsolidatedCorpus, ConsolidationStats]:
    """consolidate_all for a single condition."""
    return consolidate_all(cohort, [(plan, profile)])[0]


def consolidate_all(
    cohort: Cohort, selected: Sequence[tuple[FilterPlan, ConditionProfile]]
) -> list[tuple[ConsolidatedCorpus, ConsolidationStats]]:
    """Extract keyword sentences from kept-type documents into one merged
    document per patient and condition, ordered by source timestamp (ties by
    doc_id). Results follow the order of `selected`.

    One pass over the corpus serves every condition: a document kept by any
    condition is split into stripped sentences once, and each condition's
    keywords are tested only on documents of its own kept types.

    Patients with no kept-type documents at all are recorded as condition-free;
    they receive a negative label downstream without any inference.
    """
    patterns = [keyword_regex(profile.keywords) for _, profile in selected]
    # doc_type -> indices of the conditions that keep it
    keepers: dict[str, list[int]] = defaultdict(list)
    for index, (plan, _) in enumerate(selected):
        for doc_type in plan.kept_types:
            keepers[doc_type].append(index)
    hits: list[dict[str, list[tuple[datetime, str, int, str]]]] = [
        defaultdict(list) for _ in selected
    ]
    patients_with_kept_docs: list[set[str]] = [set() for _ in selected]

    for doc in cohort.documents:
        indices = keepers.get(doc.doc_type)
        if not indices:
            continue
        text = doc.text
        sentences = []
        for start, end in sentence_spans(text):
            fragment = text[start:end]
            core = fragment.strip()
            if core:
                sentences.append((start + len(fragment) - len(fragment.lstrip()), core))
        for index in indices:
            patients_with_kept_docs[index].add(doc.patient_id)
            search = patterns[index].search
            found = [
                (doc.timestamp, doc.doc_id, offset, core)
                for offset, core in sentences
                if search(core)
            ]
            if found:
                hits[index][doc.patient_id].extend(found)

    words_before = cohort.word_count
    results = []
    for (plan, profile), condition_hits, kept_patients in zip(
        selected, hits, patients_with_kept_docs
    ):
        merged: dict[str, MergedDocument] = {}
        words_after = 0
        for patient_id in sorted(condition_hits):
            entries = sorted(condition_hits[patient_id])
            text = " ".join(core for _, _, _, core in entries)
            provenance = tuple(
                SentenceProvenance(doc_id, offset, offset + len(core))
                for _, doc_id, offset, core in entries
            )
            merged[patient_id] = MergedDocument(
                patient_id=patient_id,
                condition=profile.name,
                text=text,
                provenance=provenance,
                first_timestamp=entries[0][0],
            )
            words_after += len(text.split())
        stats = ConsolidationStats(
            words_fraction_remaining=(words_after / words_before) if words_before else 1.0,
            positive_retention=None,
            kept_type_count=len(plan.kept_types),
        )
        corpus = ConsolidatedCorpus(
            condition=profile.name,
            merged=merged,
            condition_free=frozenset(cohort.patients) - kept_patients,
        )
        results.append((corpus, stats))
    return results


def positive_retention(
    positives: Collection[str], merged: Mapping[str, MergedDocument]
) -> float | None:
    """Fraction of positive patients still holding merged text; None without positives."""
    if not positives:
        return None
    return sum(1 for pid in positives if pid in merged) / len(positives)


def retention_report(
    before: Cohort,
    positives: Collection[str],
    after: ConsolidatedCorpus,
    kept_type_count: int,
) -> ConsolidationStats:
    """Words remaining plus the fraction of positive patients still holding text.

    With zero positives the retention is undefined and reported as None, never
    coerced to a number.
    """
    words_before = before.word_count
    words_after = sum(len(m.text.split()) for m in after.merged.values())
    return ConsolidationStats(
        words_fraction_remaining=(words_after / words_before) if words_before else 1.0,
        positive_retention=positive_retention(positives, after.merged),
        kept_type_count=kept_type_count,
    )
