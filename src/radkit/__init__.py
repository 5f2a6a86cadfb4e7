"""Retrieval-augmented distillation toolkit.

Pieces: BM25 corpus indexing and retrieval, teacher-rationale ingestion
with knowledge-augmented training-example emission, a KL-distilled
reranker, retrieval/answer evaluation, and a Monte-Carlo memorization
simulator. The ``radkit`` CLI chains the stages over JSONL files.
"""

__version__ = "0.1.0"

from .corpus import (
    Document,
    PostingsIndex,
    ScoredDoc,
    bm25_score,
    build_index,
    load_corpus_jsonl,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from .distill import (
    RationaleRecord,
    TrainingExample,
    TrainingTemplate,
    emit_training_example,
    filter_rationales,
    ingest_rationales,
    parse_training_example,
    retrieve_knowledge,
)
from .evaluation import (
    PredictionBundle,
    accuracy,
    build_silver,
    majority_vote,
)
from .answers import extract_answer
from .memsim import SimConfig, SimReport, compute_m, run_simulation, sample_task
from .reranker import (
    CandidateSet,
    RerankerModel,
    build_candidate_set,
    featurize,
    kl_loss,
    loss_gradient,
    rerank_batch,
    rerank_inference,
    softmax_normalize,
    train,
)

__all__ = [
    "__version__",
    "Document",
    "PostingsIndex",
    "ScoredDoc",
    "tokenize",
    "build_index",
    "bm25_score",
    "retrieve",
    "load_corpus_jsonl",
    "save_index",
    "load_index",
    "RationaleRecord",
    "TrainingExample",
    "TrainingTemplate",
    "ingest_rationales",
    "filter_rationales",
    "retrieve_knowledge",
    "emit_training_example",
    "parse_training_example",
    "extract_answer",
    "CandidateSet",
    "RerankerModel",
    "featurize",
    "softmax_normalize",
    "kl_loss",
    "loss_gradient",
    "train",
    "build_candidate_set",
    "rerank_batch",
    "rerank_inference",
    "PredictionBundle",
    "build_silver",
    "majority_vote",
    "accuracy",
    "SimConfig",
    "SimReport",
    "compute_m",
    "sample_task",
    "run_simulation",
]
