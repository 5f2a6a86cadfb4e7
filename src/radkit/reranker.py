"""Trainable reranker distilled from retriever scores.

A candidate set pairs a question with documents drawn from two retrieval
routes (rationale query and question query). The teacher distribution Q is
a softmax over retriever scores of the candidates against the rationale;
the student distribution P is a softmax over reranker scores against the
question. Training minimizes mean KL(Q || P) by plain gradient descent.

The scorer is a hashed bag-of-terms bilinear model: deterministic,
dependency-free, and swappable for an external neural scorer through a
score-file exchange at inference time. ``RerankerModel.scores`` scores one
query against many documents; training computes its logits the same way.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import PostingsIndex, ScoredDoc, bm25_score, retrieve, tokenize
from .distill import RationaleRecord
from .errors import (
    DegenerateCandidateSet,
    EmptyCandidates,
    MisalignedDistributions,
    NonPositiveTemperature,
)
from .records import arrays_bytes, atomic_write, field, jsonl_text, read_arrays, read_jsonl

MODEL_FORMAT_VERSION = 2

DEFAULT_EMBEDDING_DIM = 256
DEFAULT_TAU1 = 1.0
DEFAULT_TAU2 = 100.0
DEFAULT_KAPPA1 = 8
DEFAULT_KAPPA2 = 0
DEFAULT_KAPPA_STAR = 100

# A scorer maps (doc_id, doc_text, query_text) to a relevance score.
Scorer = Callable[[str, str, str], float]


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated candidate documents for one (question, rationale) pair.

    ``teacher_scores`` are retriever scores against the rationale, aligned
    with ``doc_ids``; documents reached only through the question query
    keep their directly computed rationale score, which may be 0.
    """

    example_id: str
    rationale_index: int
    question: str
    doc_ids: tuple[str, ...]
    teacher_scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.doc_ids) != len(self.teacher_scores):
            raise ValueError("doc_ids and teacher_scores must be aligned")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("candidate doc_ids must be unique")
        if not all(math.isfinite(s) for s in self.teacher_scores):
            raise ValueError("teacher scores must be finite")


@dataclass(frozen=True)
class Distribution:
    """Probabilities aligned with doc_ids; sums to 1 within 1e-9."""

    doc_ids: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.doc_ids) != len(self.probabilities):
            raise ValueError("doc_ids and probabilities must be aligned")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        if any(p < 0.0 or p > 1.0 for p in self.probabilities):
            raise ValueError("probabilities must lie in [0, 1]")


def _hash_pair(token: str, hash_seed: int) -> tuple[int, int]:
    digest = hashlib.blake2b(
        f"{hash_seed}:{token}".encode("utf-8"), digest_size=16
    ).digest()
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")


def featurize(text: str, embedding_dim: int, hash_seed: int) -> np.ndarray:
    """Hashed bag-of-terms vector, L2-normalized (all-zero stays zero).

    Each distinct term adds ln(1 + tf) with a hash-derived sign at a
    hash-derived position, so the embedding is independent of token order.
    """
    vec = np.zeros(embedding_dim, dtype=np.float64)
    for term, tf in Counter(tokenize(text)).items():
        position, sign_bits = _hash_pair(term, hash_seed)
        sign = 1.0 if sign_bits & 1 else -1.0
        vec[position % embedding_dim] += sign * math.log1p(tf)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class RerankerModel:
    """Bilinear scorer: dot(Wq f(query), Wd f(doc)) + bias."""

    def __init__(
        self,
        embedding_dim: int = DEFAULT_EMBEDDING_DIM,
        hash_seed: int = 0,
        query_projection: np.ndarray | None = None,
        doc_projection: np.ndarray | None = None,
        bias: float = 0.0,
        step: int = 0,
    ):
        if embedding_dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {embedding_dim}")
        self.embedding_dim = embedding_dim
        self.hash_seed = hash_seed
        eye = np.eye(embedding_dim, dtype=np.float64)
        self.query_projection = (
            eye.copy() if query_projection is None else np.asarray(query_projection, float)
        )
        self.doc_projection = (
            eye.copy() if doc_projection is None else np.asarray(doc_projection, float)
        )
        if self.query_projection.shape != eye.shape or self.doc_projection.shape != eye.shape:
            raise ValueError(f"projections must be {embedding_dim}x{embedding_dim}")
        self.bias = float(bias)
        self.step = int(step)

    @classmethod
    def identity(
        cls,
        embedding_dim: int = DEFAULT_EMBEDDING_DIM,
        hash_seed: int = 0,
        query_scale: float = 1.0,
        doc_scale: float = 1.0,
    ) -> "RerankerModel":
        """Scaled-identity initialization; scale 1 is plain hashed-lexical similarity."""
        eye = np.eye(embedding_dim, dtype=np.float64)
        return cls(
            embedding_dim,
            hash_seed,
            query_projection=eye * query_scale,
            doc_projection=eye * doc_scale,
        )

    def copy(self) -> "RerankerModel":
        return RerankerModel(
            self.embedding_dim,
            self.hash_seed,
            self.query_projection.copy(),
            self.doc_projection.copy(),
            self.bias,
            self.step,
        )

    def featurize(self, text: str) -> np.ndarray:
        return featurize(text, self.embedding_dim, self.hash_seed)

    def scores(self, query_text: str, doc_texts: Sequence[str]) -> np.ndarray:
        """Score of each document against the query; the query is featurized once."""
        return _project(self, *_features(self, query_text, doc_texts))[2]


def softmax_normalize(
    scores: Sequence[float], tau: float, doc_ids: Sequence[str] | None = None
) -> Distribution:
    """Temperature softmax with max-subtraction for stability."""
    if tau <= 0.0:
        raise NonPositiveTemperature(tau)
    if len(scores) == 0:
        raise ValueError("cannot normalize an empty score list")
    z = np.asarray(scores, dtype=np.float64) / tau
    z -= z.max()
    e = np.exp(z)
    probs = e / e.sum()
    if doc_ids is None:
        doc_ids = tuple(str(i) for i in range(len(scores)))
    return Distribution(tuple(doc_ids), tuple(float(p) for p in probs))


def kl_loss(q: Distribution, p: Distribution) -> float:
    """KL(Q || P) with 0 ln 0 taken as 0. Distributions must be aligned.

    Mass in Q where P has none diverges, giving inf.
    """
    if q.doc_ids != p.doc_ids:
        raise MisalignedDistributions()
    total = 0.0
    for qi, pi in zip(q.probabilities, p.probabilities):
        if qi > 0.0:
            if pi == 0.0:
                return math.inf
            total += qi * (math.log(qi) - math.log(pi))
    return total


@dataclass
class RerankerGradient:
    d_query_projection: np.ndarray
    d_doc_projection: np.ndarray
    d_bias: float


def _features(
    model: RerankerModel, query_text: str, doc_texts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The query's feature vector and the documents' feature rows."""
    return model.featurize(query_text), np.stack([model.featurize(t) for t in doc_texts])


def _project(
    model: RerankerModel, qv: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = Wq q, the rows of V = D Wd^T, and the logits V u + bias.

    Training and inference both score through here, so they compute the
    same numbers the same way.
    """
    u = model.query_projection @ qv
    v = dv @ model.doc_projection.T
    return u, v, v @ u + model.bias


def _set_loss_and_gradient(
    model: RerankerModel,
    cs: CandidateSet,
    tau1: float,
    tau2: float,
    qv: np.ndarray,
    dv: np.ndarray,
) -> tuple[float, RerankerGradient]:
    teacher = softmax_normalize(cs.teacher_scores, tau1, cs.doc_ids)
    u, v, logits = _project(model, qv, dv)
    student = softmax_normalize(tuple(logits), tau2, cs.doc_ids)
    loss = kl_loss(teacher, student)
    # dKL/dlogit_i = (P_i - Q_i) / tau2, pushed through the bilinear form.
    g = (np.asarray(student.probabilities) - np.asarray(teacher.probabilities)) / tau2
    d_query = np.outer(g @ v, qv)
    d_doc = np.outer(u, g @ dv)
    return loss, RerankerGradient(d_query, d_doc, float(g.sum()))


def _candidate_features(
    model: RerankerModel, cs: CandidateSet, doc_texts: Mapping[str, str]
) -> tuple[np.ndarray, np.ndarray]:
    return _features(model, cs.question, [doc_texts[doc_id] for doc_id in cs.doc_ids])


def loss_gradient(
    model: RerankerModel,
    candidate_set: CandidateSet,
    tau1: float,
    tau2: float,
    doc_texts: Mapping[str, str],
) -> tuple[float, RerankerGradient]:
    """Analytic KL loss and gradient for one candidate set."""
    qv, dv = _candidate_features(model, candidate_set, doc_texts)
    return _set_loss_and_gradient(model, candidate_set, tau1, tau2, qv, dv)


def mean_loss(
    model: RerankerModel,
    candidate_sets: Sequence[CandidateSet],
    tau1: float,
    tau2: float,
    doc_texts: Mapping[str, str],
) -> float:
    total = 0.0
    for cs in candidate_sets:
        total += loss_gradient(model, cs, tau1, tau2, doc_texts)[0]
    return total / len(candidate_sets)


def train(
    model: RerankerModel,
    candidate_sets: Sequence[CandidateSet],
    doc_texts: Mapping[str, str],
    epochs: int,
    lr: float,
    tau1: float = DEFAULT_TAU1,
    tau2: float = DEFAULT_TAU2,
) -> tuple[RerankerModel, list[float]]:
    """Full-batch gradient descent on mean KL(Q || P).

    Returns a trained copy of the model and the loss trace: entry 0 is the
    mean loss before training, entry e the mean loss after epoch e. Pass e
    takes entry e and the gradient at the same parameters, then applies
    update e + 1; the last pass updates nothing. Gradients accumulate in set
    order, so training is deterministic.
    """
    if not candidate_sets:
        raise ValueError("no candidate sets to train on")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    trained = model.copy()
    features = [_candidate_features(trained, cs, doc_texts) for cs in candidate_sets]
    scale = lr / len(candidate_sets)
    trace: list[float] = []
    for epoch in range(epochs + 1):
        total = 0.0
        acc_q = np.zeros_like(trained.query_projection)
        acc_d = np.zeros_like(trained.doc_projection)
        acc_b = 0.0
        for cs, (qv, dv) in zip(candidate_sets, features):
            loss, grad = _set_loss_and_gradient(trained, cs, tau1, tau2, qv, dv)
            total += loss
            acc_q += grad.d_query_projection
            acc_d += grad.d_doc_projection
            acc_b += grad.d_bias
        trace.append(total / len(candidate_sets))
        if epoch < epochs:
            trained.query_projection -= scale * acc_q
            trained.doc_projection -= scale * acc_d
            trained.bias -= scale * acc_b
            trained.step += 1
    return trained, trace


def build_candidate_set(
    index: PostingsIndex,
    record: RationaleRecord,
    j: int,
    kappa1: int = DEFAULT_KAPPA1,
    kappa2: int = DEFAULT_KAPPA2,
) -> CandidateSet:
    """Union of the rationale-query top-kappa1 and question-query top-kappa2.

    Every member is (re)scored against the rationale; ordering is by
    descending teacher score, then doc_id. Raises DegenerateCandidateSet
    when fewer than two distinct documents are found.
    """
    rationale = record.rationales[j]
    teacher: dict[str, float] = {}
    if kappa1 > 0:
        for sd in retrieve(index, rationale, kappa1):
            teacher[sd.doc_id] = sd.score
    if kappa2 > 0:
        rationale_terms = tokenize(rationale)
        for sd in retrieve(index, record.question, kappa2):
            if sd.doc_id not in teacher:
                teacher[sd.doc_id] = bm25_score(
                    index, rationale_terms, index.ordinal(sd.doc_id)
                )
    if len(teacher) < 2:
        raise DegenerateCandidateSet(record.example_id, j, len(teacher))
    ordered = sorted(teacher.items(), key=lambda item: (-item[1], item[0]))
    return CandidateSet(
        example_id=record.example_id,
        rationale_index=j,
        question=record.question,
        doc_ids=tuple(doc_id for doc_id, _ in ordered),
        teacher_scores=tuple(score for _, score in ordered),
    )


def rerank_inference(
    index: PostingsIndex,
    model: RerankerModel | Scorer,
    question: str,
    kappa_star: int = DEFAULT_KAPPA_STAR,
    k: int = 1,
) -> list[ScoredDoc]:
    """Two-stage retrieval: BM25 top-kappa_star, then rerank and keep top-k.

    ``model`` may be a RerankerModel, which scores all candidates in one
    ``RerankerModel.scores`` call, or any (doc_id, doc_text, query_text)
    -> score callable. Output is always a subset of the BM25 candidates;
    ties break by ascending doc_id.
    """
    if not 1 <= k <= kappa_star:
        raise ValueError(f"need kappa_star >= k >= 1, got kappa_star={kappa_star} k={k}")
    candidates = retrieve(index, question, kappa_star)
    if not candidates:
        raise EmptyCandidates(question)
    texts = [index.document(sd.doc_id).text for sd in candidates]
    if isinstance(model, RerankerModel):
        scores = model.scores(question, texts).tolist()
    else:
        scores = [model(sd.doc_id, text, question) for sd, text in zip(candidates, texts)]
    rescored = sorted((-score, sd.doc_id) for score, sd in zip(scores, candidates))
    return [
        ScoredDoc(doc_id=doc_id, score=-neg, rank=rank)
        for rank, (neg, doc_id) in enumerate(rescored[:k], start=1)
    ]


class FileScorer:
    """External-scorer plug-in: scores read from a JSONL exchange file.

    Lines are {"id": example id, "doc_id": ..., "score": ...}. Pairs not
    present in the file score 0.0.
    """

    def __init__(self, scores: dict[tuple[str, str], float]):
        self._scores = scores

    @classmethod
    def load(cls, path: str | Path) -> "FileScorer":
        rows = read_jsonl(
            path, lambda obj: ((str(obj["id"]), str(obj["doc_id"])), field(obj, "score", float))
        )
        return cls(dict(rows))

    def for_example(self, example_id: str) -> Scorer:
        def scorer(doc_id: str, doc_text: str, query_text: str) -> float:
            return self._scores.get((example_id, doc_id), 0.0)

        return scorer


def serialize_model(model: RerankerModel) -> bytes:
    """Checkpoint format 2: an array file of the float64 projections; the scalars go in ``meta``."""
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "E": model.embedding_dim,
        "hash_seed": model.hash_seed,
        "bias": model.bias,
        "step": model.step,
    }
    arrays = {"query_projection": model.query_projection, "doc_projection": model.doc_projection}
    return arrays_bytes(meta, arrays)


def _model(meta: dict, members) -> RerankerModel:
    dim, seed = int(meta["E"]), int(meta["hash_seed"])
    projections = members["query_projection"], members["doc_projection"]
    return RerankerModel(dim, seed, *projections, meta["bias"], meta["step"])


def save_model(model: RerankerModel, path: str | Path) -> None:
    atomic_write(path, serialize_model(model))


def load_model(path: str | Path) -> RerankerModel:
    """Read a checkpoint; any other file raises UnknownFormatVersion naming ``path``."""
    return read_arrays(Path(path).read_bytes(), MODEL_FORMAT_VERSION, _model, path)


def candidates_jsonl_text(sets: Sequence[CandidateSet]) -> str:
    return jsonl_text(
        {
            "example_id": cs.example_id,
            "j": cs.rationale_index,
            "question": cs.question,
            "doc_ids": list(cs.doc_ids),
            "teacher_scores": list(cs.teacher_scores),
        }
        for cs in sets
    )


def _candidate_set(obj: dict) -> CandidateSet:
    return CandidateSet(
        example_id=str(obj["example_id"]),
        rationale_index=field(obj, "j", int),
        question=obj["question"],
        doc_ids=field(obj, "doc_ids", many=True),
        teacher_scores=field(obj, "teacher_scores", float, many=True),
    )


def read_candidates_jsonl(path: str | Path) -> list[CandidateSet]:
    return read_jsonl(path, _candidate_set)
