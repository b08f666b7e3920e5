"""Multi-condition phenotyping over clinical-note corpora.

The pipeline moves a corpus through five stages: document-type relevance
profiling, percentile filtering with keyword-sentence consolidation, prompt
rendering, backend inference/extraction, and rule-based adjudication into
per-patient binary labels, evaluated against registry reference standards.
"""
from .adjudication import (
    MODE_PATHS,
    Findings,
    InferredStatus,
    LabMeasurement,
    apply_clinical_rule,
    merge_patient,
    parse_extraction_response,
    parse_inference_response,
)
from .corpus import Cohort, CorpusError, SynthSpec, generate_synthetic, iter_documents, load_cohort, write_cohort
from .evaluation import ConfusionMatrix, MetricSet, confusion, metrics, wilson_interval
from .inference import (
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
)
from .preprocess import (
    DocTypeProfile,
    FilterPlan,
    compute_information_relevance,
    consolidate,
    filter_document_types,
    sample_document_types,
)
from .prompting import ClinicalRule, ConditionProfile, builtin_profiles, render_prompt

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendError",
    "CachedBackend",
    "ClinicalRule",
    "Cohort",
    "CompletionRequest",
    "ConditionProfile",
    "ConfusionMatrix",
    "CorpusError",
    "DocTypeProfile",
    "FilterPlan",
    "Findings",
    "GenerationParams",
    "HttpBackend",
    "InferredStatus",
    "LabMeasurement",
    "MODE_PATHS",
    "MetricSet",
    "MockBackend",
    "ResponseCache",
    "SynthSpec",
    "TransportError",
    "apply_clinical_rule",
    "builtin_profiles",
    "chunk_text",
    "compute_information_relevance",
    "confusion",
    "consolidate",
    "filter_document_types",
    "generate_synthetic",
    "iter_documents",
    "load_cohort",
    "merge_patient",
    "metrics",
    "parse_extraction_response",
    "parse_inference_response",
    "render_prompt",
    "sample_document_types",
    "wilson_interval",
    "write_cohort",
    "__version__",
]
