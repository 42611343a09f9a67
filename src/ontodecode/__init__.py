"""Ontology-guided constrained decoding and domain-adapted summarization."""

from .annotator import Annotation, Lexicon, LexiconCollisionError, annotate, build_lexicon
from .decoder import (
    BeamState,
    DecodeConfig,
    DecodeResult,
    ScoreBreakdown,
    ScoringContext,
    decode,
    hierarchy_score,
    property_score,
    similarity_score,
    window_rescore,
)
from .lm import (
    LmContract,
    LmProtocolError,
    LmServer,
    LmStep,
    LmUnavailableError,
    NgramLm,
    RemoteLm,
    train_ngram,
)
from .metrics import (
    adjusted_hallucination_score,
    domain_score,
    evaluation_report,
    groundedness,
    hallucination_score,
    relevance,
    rouge1,
    rouge2,
    rouge_lsum,
)
from .ontology import (
    Ontology,
    OntologyClass,
    OntologyError,
    Restriction,
    UnknownClassError,
    load_ontology,
)
from .pipeline import (
    CSR,
    DCF,
    DomainSpec,
    Note,
    PartialCsrError,
    average_dcf,
    build_dcf,
    build_prompt,
    extract_csr,
    normalize_dcf,
    prune_csr,
    read_corpus,
    render_csr,
    verbalize,
)

__version__ = "0.1.0"
