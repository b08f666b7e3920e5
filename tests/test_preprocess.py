"""Sentence splitting, relevance profiling, percentile filtering, consolidation."""
import re

import pytest
from conftest import make_cohort
from hypothesis import given, settings
from hypothesis import strategies as st

from notepheno.adjudication import InferredStatus
from notepheno.corpus import Cohort, SynthSpec, generate_synthetic
from notepheno.preprocess import (
    DocTypeProfile,
    FilterPlan,
    compute_information_relevance,
    consolidate,
    consolidate_all,
    filter_document_types,
    keyword_regex,
    positive_retention,
    resolve_percentile,
    retention_report,
    sample_document_types,
    sentence_spans,
)


@given(st.text(max_size=400))
@settings(max_examples=200)
def test_sentence_spans_tile_the_text(text):
    spans = sentence_spans(text)
    assert "".join(text[a:b] for a, b in spans) == text
    assert all(a < b for a, b in spans)
    # spans are consecutive
    for (_, b1), (a2, _) in zip(spans, spans[1:]):
        assert b1 == a2


def test_sentence_spans_splits_on_punctuation_and_newline():
    text = "First one. Second!\nThird line\nLast"
    pieces = [text[a:b] for a, b in sentence_spans(text)]
    assert pieces == ["First one. ", "Second!\n", "Third line\n", "Last"]


def test_keyword_regex_word_boundaries():
    pattern = keyword_regex(["mi", "blood pressure", "glp-1"])
    assert pattern.search("post MI care")
    assert not pattern.search("family history")
    assert pattern.search("Blood  pressure stable")
    assert pattern.search("started GLP-1 agonist")
    assert not pattern.search("amity")


def test_sample_document_types_deterministic_and_bounded(small_cohort):
    a = sample_document_types(small_cohort, m=1, seed=9)
    b = sample_document_types(small_cohort, m=1, seed=9)
    assert {t: [d.doc_id for d in docs] for t, docs in a.items()} == {
        t: [d.doc_id for d in docs] for t, docs in b.items()
    }
    for docs in a.values():
        assert len(docs) == 1
    everything = sample_document_types(small_cohort, m=10, seed=9)
    assert sum(len(d) for d in everything.values()) == 4


def test_information_relevance_uses_actual_sample_size(small_cohort):
    samples = sample_document_types(small_cohort, m=10, seed=0)
    verdicts = {
        "d1": InferredStatus.YES,
        "d2": InferredStatus.NO,
        "d3": InferredStatus.YES,
        "d4": InferredStatus.NO_MENTION,
    }
    profiles = {p.doc_type: p for p in compute_information_relevance(samples, verdicts)}
    assert profiles["DischargeSummary"].sampled_count == 2
    assert profiles["DischargeSummary"].ir == 1.0
    assert profiles["SocialWork"].ir == 0.0
    assert profiles["BloodLog"].ir == 0.0


def test_information_relevance_missing_verdict(small_cohort):
    samples = sample_document_types(small_cohort, m=10, seed=0)
    with pytest.raises(ValueError, match="missing verdict"):
        compute_information_relevance(samples, {})


def test_resolve_percentile_spellings():
    assert resolve_percentile("q1") == 25.0
    assert resolve_percentile("Q2") == 50.0
    assert resolve_percentile("0") == 0.0
    assert resolve_percentile(37.5) == 37.5
    with pytest.raises(ValueError):
        resolve_percentile("110")


def test_filter_quartile_fixture():
    profiles = [
        DocTypeProfile("A", 10, 5),  # 0.5
        DocTypeProfile("B", 10, 2),  # 0.2
        DocTypeProfile("C", 10, 0),
        DocTypeProfile("D", 10, 0),
    ]
    plan = filter_document_types(profiles, "q1", condition="diabetes")
    assert plan.threshold_value == 0.0
    assert plan.kept_types == {"A", "B"}
    plan0 = filter_document_types(profiles, 0)
    assert plan0.kept_types == {"A", "B"}
    # nearest-rank Q2 of [0, 0, 0.2, 0.5] is the 2nd value, still 0.0
    plan50 = filter_document_types(profiles, "q2")
    assert plan50.threshold_value == 0.0
    plan75 = filter_document_types(profiles, 75)
    assert plan75.threshold_value == 0.2
    assert plan75.kept_types == {"A"}


@given(
    st.lists(
        st.tuples(st.integers(1, 50), st.integers(0, 50)).map(
            lambda t: (t[0] + t[1], t[1])
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200)
def test_filter_monotone_in_percentile(counts):
    profiles = [
        DocTypeProfile(f"T{i}", sampled, positives)
        for i, (sampled, positives) in enumerate(counts)
    ]
    kept_0 = filter_document_types(profiles, 0).kept_types
    kept_q1 = filter_document_types(profiles, "q1").kept_types
    kept_q2 = filter_document_types(profiles, "q2").kept_types
    assert kept_q2 <= kept_q1 <= kept_0


def test_consolidate_merges_keyword_sentences(diabetes_profile):
    cohort = make_cohort(
        [
            ("p1", "d1", "DischargeSummary", "Routine note. Known diabetes on insulin. All else fine."),
            ("p1", "d2", "DischargeSummary", "Glucose - mmol/l random : 13.0 mmol/l. Plan unchanged."),
            ("p2", "d3", "DischargeSummary", "No relevant findings whatsoever."),
            ("p3", "d4", "SocialWork", "diabetes mentioned but type not kept."),
        ]
    )
    plan = filter_document_types([DocTypeProfile("DischargeSummary", 5, 3), DocTypeProfile("SocialWork", 5, 0)], 0)
    corpus, stats = consolidate(cohort, plan, diabetes_profile)
    assert set(corpus.merged) == {"p1"}
    merged = corpus.merged["p1"]
    assert merged.text == "Known diabetes on insulin. Glucose - mmol/l random : 13.0 mmol/l."
    # provenance spans point at the exact source fragments
    texts = {"d1": cohort.documents[0].text, "d2": cohort.documents[1].text}
    for span in merged.provenance:
        fragment = texts[span.doc_id][span.start : span.end]
        assert fragment in merged.text
    # p3's only document is a dropped type: condition-free
    assert "p3" in corpus.condition_free
    assert "p2" not in corpus.condition_free
    assert 0.0 < stats.words_fraction_remaining < 1.0


def test_retention_report_undefined_without_positives(small_cohort, diabetes_profile):
    plan = filter_document_types([DocTypeProfile("DischargeSummary", 5, 1)], 0)
    corpus, _ = consolidate(small_cohort, plan, diabetes_profile)
    stats = retention_report(small_cohort, set(), corpus, 1)
    assert stats.positive_retention is None
    stats2 = retention_report(small_cohort, {"p1"}, corpus, 1)
    assert stats2.positive_retention == 1.0


def _lookarounds_per_keyword(keywords):
    """The matcher as first written, kept here as the reference: every keyword
    carries its own lookarounds. (It ordered equal-length keywords by set
    iteration; which positions match does not depend on that order.)"""
    parts = []
    for keyword in sorted(dict.fromkeys(keywords), key=len, reverse=True):
        escaped = re.escape(keyword).replace(r"\ ", r"\s+").replace(" ", r"\s+")
        parts.append(rf"(?<!\w){escaped}(?!\w)")
    return re.compile("|".join(parts), re.IGNORECASE)


# Short keywords over a small alphabet, so that keywords are often prefixes of
# each other and of the words around them; spaces make multi-word keywords.
_keywords = st.lists(st.text(alphabet="abAB-1 ", min_size=1, max_size=6), min_size=1, max_size=6)


@st.composite
def _keywords_and_text(draw):
    keywords = draw(_keywords)
    pieces = st.sampled_from(keywords + [" ", "  ", "-", "x", "ab", "_", "\n", ". ", "é", "1"])
    words = draw(st.lists(pieces, max_size=12))
    text = "".join(w.upper() if draw(st.booleans()) else w for w in words)
    return keywords, text


def _matches(pattern, text):
    return [(m.span(), m.group(0)) for m in pattern.finditer(text)]


@given(_keywords_and_text())
@settings(max_examples=400)
def test_keyword_regex_agrees_with_per_keyword_lookarounds(case):
    keywords, text = case
    assert _matches(keyword_regex(keywords), text) == _matches(
        _lookarounds_per_keyword(keywords), text
    )


def test_keyword_regex_rejects_empty_keyword_list():
    with pytest.raises(ValueError):
        keyword_regex([])


def _consolidate_reference(cohort, plan, profile):
    """The per-condition loop consolidation replaced by the single pass."""
    pattern = _lookarounds_per_keyword(profile.keywords)
    hits, kept_patients, words_before = {}, set(), 0
    for doc in cohort.documents:
        words_before += len(doc.text.split())
        if doc.doc_type not in plan.kept_types:
            continue
        kept_patients.add(doc.patient_id)
        for start, end in sentence_spans(doc.text):
            fragment = doc.text[start:end]
            core = fragment.strip()
            if core and pattern.search(core):
                lead = len(fragment) - len(fragment.lstrip())
                hits.setdefault(doc.patient_id, []).append(
                    (doc.timestamp, doc.doc_id, start + lead, core)
                )
    merged, words_after = {}, 0
    for pid, entries in hits.items():
        entries = sorted(entries)
        text = " ".join(core for *_, core in entries)
        provenance = tuple((doc_id, offset, offset + len(core)) for _, doc_id, offset, core in entries)
        merged[pid] = (text, provenance, entries[0][0])
        words_after += len(text.split())
    return merged, frozenset(cohort.patients) - kept_patients, words_after / words_before


def test_consolidate_all_matches_one_condition_calls_and_reference(profiles):
    spec = SynthSpec(
        n_patients=60, prevalence={"ami": 0.3, "diabetes": 0.3, "hypertension": 0.3}, seed=4
    )
    cohort, _ = generate_synthetic(spec, profiles)
    doc_types = sorted({d.doc_type for d in cohort.documents})
    # Overlapping, differing kept types, one of them empty.
    kept = {
        "ami": frozenset(doc_types[::2]),
        "diabetes": frozenset(doc_types[: len(doc_types) // 2 + 1]),
        "hypertension": frozenset(),
    }
    selected = [
        (FilterPlan(p.name, 0.0, 0.0, kept[p.name]), p) for p in profiles
    ]
    together = consolidate_all(cohort, selected)
    assert [corpus.condition for corpus, _ in together] == [p.name for p in profiles]
    for (plan, profile), (corpus, stats) in zip(selected, together):
        # a fresh cohort, so no word count is carried over from the pass above
        alone_cohort = Cohort(cohort.patients, cohort.documents, cohort.labels)
        alone, alone_stats = consolidate(alone_cohort, plan, profile)
        assert corpus.merged == alone.merged
        assert corpus.condition_free == alone.condition_free
        assert stats == alone_stats
        merged, condition_free, fraction = _consolidate_reference(cohort, plan, profile)
        assert {
            pid: (m.text, tuple((s.doc_id, s.start, s.end) for s in m.provenance), m.first_timestamp)
            for pid, m in corpus.merged.items()
        } == merged
        assert corpus.condition_free == condition_free
        assert stats.words_fraction_remaining == fraction
        assert stats.kept_type_count == len(plan.kept_types)
    assert together[0][0].merged and together[1][0].merged
    assert not together[2][0].merged
    assert together[2][0].condition_free == frozenset(cohort.patients)


def test_retention_report_reuses_consolidation_word_count(small_cohort, diabetes_profile):
    plan = filter_document_types([DocTypeProfile("DischargeSummary", 5, 1)], 0)
    corpus, stats = consolidate(small_cohort, plan, diabetes_profile)
    report = retention_report(small_cohort, {"p1", "p3"}, corpus, 1)
    assert report.words_fraction_remaining == stats.words_fraction_remaining
    assert report.positive_retention == positive_retention({"p1", "p3"}, corpus.merged) == 0.5
