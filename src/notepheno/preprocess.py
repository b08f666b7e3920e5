"""Document-type relevance profiling, percentile filtering, and keyword consolidation."""
from __future__ import annotations

import math
import random
import re
from collections import Counter, defaultdict
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .adjudication import InferredStatus
from .corpus import Checked, ClinicalDocument
from .prompting import ConditionProfile

__all__ = [
    "DocTypeProfile",
    "FilterPlan",
    "ConsolidationStats",
    "sentence_spans",
    "keyword_regex",
    "sample_document_types",
    "compute_information_relevance",
    "filter_document_types",
    "consolidate",
    "positive_retention",
    "retention_report",
    "resolve_percentile",
]


class _DocTypeProfileFields(NamedTuple):
    doc_type: str
    sampled_count: int
    positive_count: int


class DocTypeProfile(Checked, _DocTypeProfileFields):
    """Relevance profile of one document type for one condition."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0 <= self.positive_count <= self.sampled_count:
            raise ValueError("positive_count must lie in [0, sampled_count]")

    @property
    def ir(self) -> float:
        """Fraction of sampled records judged positive. Zero for empty samples."""
        if self.sampled_count == 0:
            return 0.0
        return self.positive_count / self.sampled_count


class FilterPlan(NamedTuple):
    threshold_value: float
    kept_types: frozenset[str]


class ConsolidationStats(NamedTuple):
    words_fraction_remaining: float
    positive_retention: float | None


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


def sample_document_types(documents: Iterable[ClinicalDocument], m: int, seed: int) -> dict[str, list[int]]:
    """Sample up to m documents per document type, uniformly without replacement.

    Returns per type the positions in `documents` (0 for the first) of its
    sampled documents, in doc_id order. A type's documents are sampled in
    doc_id order, so the pick depends on the ids and types alone. `documents`
    is read once, and only each one's id and position are kept, so it may be
    a stream of a corpus file.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    doc_ids: list[str] = []  # by position
    by_type: dict[str, list[int]] = defaultdict(list)
    for doc in documents:
        by_type[doc.doc_type].append(len(doc_ids))
        doc_ids.append(doc.doc_id)
    doc_id_of = doc_ids.__getitem__
    samples: dict[str, list[int]] = {}
    for doc_type in sorted(by_type):
        positions = by_type[doc_type]
        positions.sort(key=doc_id_of)
        rng = random.Random(f"{seed}:{doc_type}")
        picked = positions if len(positions) <= m else sorted(rng.sample(positions, m), key=doc_id_of)
        samples[doc_type] = picked
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
    text = str(label).strip().lower()
    named = {"q1": 25.0, "q2": 50.0}
    try:
        value = named[text] if text in named else float(text)
    except ValueError:  # not a number: refused below, as is one outside [0, 100]
        value = math.nan
    if not 0.0 <= value <= 100.0:
        raise ValueError(f"percentile must be 0, q1, q2, or a number in [0, 100], got {label!r}")
    return value


def filter_document_types(profiles: list[DocTypeProfile], percentile) -> FilterPlan:
    """Keep document types whose relevance strictly exceeds the percentile cut.

    The threshold is the nearest-rank percentile over all per-type relevance
    values, zeros included; percentile 0 degenerates to "keep anything above
    zero".
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    irs = sorted(profile.ir for profile in profiles)
    rank = math.ceil(resolve_percentile(percentile) / 100.0 * len(irs))
    threshold = 0.0 if rank < 1 else irs[rank - 1]
    kept = frozenset(profile.doc_type for profile in profiles if profile.ir > threshold)
    return FilterPlan(threshold_value=threshold, kept_types=kept)


def consolidate(
    documents: Iterable[ClinicalDocument],
    selected: Sequence[tuple[FilterPlan, ConditionProfile]],
    counts: Counter | None = None,
) -> list[dict[str, str]]:
    """Extract keyword sentences from kept-type documents into one merged
    text per patient and condition: stripped sentences joined by spaces, notes
    in source timestamp order (ties by doc_id). Results, one `{patient_id:
    text}` per condition, follow the order of `selected`.

    One pass over `documents`, which may be a stream read once, serves every
    condition: a document kept by any condition is split into stripped
    sentences once, each condition's keywords are tested only on documents of
    its own kept types, and only the keyword sentences are held. `counts`, if
    given, gets the whitespace-separated words of all documents under
    "words", counted in the same pass.

    Patients without keyword sentences in kept-type documents have no merged
    document; they receive a negative label downstream without any inference.
    """
    patterns = [keyword_regex(profile.keywords) for _, profile in selected]
    # doc_type -> indices of the conditions that keep it
    keepers: dict[str, list[int]] = defaultdict(list)
    for index, (plan, _) in enumerate(selected):
        for doc_type in plan.kept_types:
            keepers[doc_type].append(index)
    # per condition: patient_id -> [(timestamp, doc_id, joined keyword sentences)], one per note
    hits: list[dict[str, list]] = [defaultdict(list) for _ in selected]

    words = 0
    for doc in documents:
        text = doc.text
        if counts is not None:
            words += len(text.split())
        indices = keepers.get(doc.doc_type)
        if not indices:
            continue
        sentences = [core for start, end in sentence_spans(text) if (core := text[start:end].strip())]
        for index in indices:
            search = patterns[index].search
            found = [core for core in sentences if search(core)]
            if found:  # one joined string per note holds less than a list of sentences
                hits[index][doc.patient_id].append((doc.timestamp, doc.doc_id, " ".join(found)))
    if counts is not None:
        counts["words"] += words

    results = []
    for condition_hits in hits:
        merged: dict[str, str] = {}
        for patient_id in sorted(condition_hits):
            # doc ids are unique, so the sentences are never compared
            notes = sorted(condition_hits[patient_id])
            merged[patient_id] = " ".join(found for _, _, found in notes)
        results.append(merged)
    return results


def positive_retention(
    positives: Collection[str], merged: Mapping[str, str]
) -> float | None:
    """Fraction of positive patients still holding merged text; None without positives."""
    if not positives:
        return None
    return sum(1 for pid in positives if pid in merged) / len(positives)


def retention_report(
    words_before: int,
    positives: Collection[str],
    after: Mapping[str, str],
) -> ConsolidationStats:
    """Words remaining out of `words_before` (all the corpus's words), plus the
    fraction of positive patients still holding text.

    With zero positives the retention is undefined and reported as None, never
    coerced to a number.
    """
    words_after = sum(len(text.split()) for text in after.values())
    return ConsolidationStats(
        words_fraction_remaining=(words_after / words_before) if words_before else 1.0,
        positive_retention=positive_retention(positives, after),
    )
