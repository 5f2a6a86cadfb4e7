"""Trainable reranker distilled from retriever scores.

A candidate set pairs a question with documents drawn from two retrieval
routes (rationale query and question query). The teacher distribution Q is
a softmax over retriever scores of the candidates against the rationale;
the student distribution P is a softmax over reranker scores against the
question. Training minimizes mean KL(Q || P) by plain gradient descent.

The scorer is a hashed bag-of-terms bilinear model: deterministic,
dependency-free, and swappable for an external neural scorer through a
score-file exchange at inference time. Training and inference fold the query
side into one vector, so each document row costs one dot product.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PostingsIndex, ScoredDoc, bm25_scores, tokenize, top_ordinals
from .corpus import bm25_score, retrieve  # noqa: F401 (perfbench/spans.py wraps them here)
from .distill import RationaleRecord
from .errors import DegenerateCandidateSet, EmptyCandidates, NonPositiveTemperature, RadkitError
from .records import arrays_bytes, atomic_write, field, jsonl_text, read_arrays, read_jsonl

MODEL_FORMAT_VERSION = 2

DEFAULT_EMBEDDING_DIM = 256
DEFAULT_TAU1 = 1.0
DEFAULT_TAU2 = 100.0
DEFAULT_KAPPA1 = 8
DEFAULT_KAPPA2 = 0
DEFAULT_KAPPA_STAR = 100


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


def _slot_sign(terms: Sequence[str], embedding_dim: int, hash_seed: int):
    """Each term's slot (int64) and sign (+-1.0), from the 16-byte blake2b of ``f"{seed}:{term}"``.

    The slot is bytes 0-7 read little-endian, modulo E; the sign is +1 when byte 8 is odd.
    The seed prefix is hashed once and its state copied per term.
    """
    prefix, digests = hashlib.blake2b(f"{hash_seed}:".encode(), digest_size=16), []
    for term in terms:
        h = prefix.copy()
        h.update(term.encode())
        digests.append(h.digest())
    table = np.frombuffer(b"".join(digests), np.uint8).reshape(-1, 16)
    slots = table.view("<u8")[:, 0] % np.uint64(embedding_dim)
    return slots.astype(np.int64), np.where(table[:, 8] & 1, 1.0, -1.0)


def _unit_rows(rows, term_ids, tfs, terms, n_rows: int, dim: int, seed: int):
    """(n_rows, dim) feature rows of (row, term id, tf) triples, each row L2-normalized.

    ``terms[t]`` is the text of term id ``t``. Each distinct term is hashed once;
    each triple adds sign * ln(1 + tf) at its term's slot in its row, and each
    slot adds its weights in ascending order, whatever order the triples come in.
    """
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    distinct_terms, term_of = np.unique(term_ids, return_inverse=True)
    slots, signs = _slot_sign([terms[t] for t in distinct_terms.tolist()], dim, seed)
    log1p = np.array([math.log1p(tf) for tf in range(int(tfs.max(initial=0)) + 1)])
    slots, weights = slots[term_of], signs[term_of] * log1p[tfs]
    del term_ids, tfs, term_of
    order = np.argsort(weights, kind="stable")
    keys = rows[order] * dim
    keys += slots[order]
    vecs = np.bincount(keys, weights[order], minlength=n_rows * dim)  # int if empty
    del rows, slots, weights, order, keys  # the triples go before the dense rows are normalized
    vecs = vecs.astype(np.float64, copy=False).reshape(n_rows, dim)
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    return np.divide(vecs, norms, out=vecs, where=norms > 0.0)


def featurize(text: str, embedding_dim: int, hash_seed: int) -> np.ndarray:
    """Hashed bag-of-terms vector, L2-normalized (all-zero stays zero).

    Each distinct term adds ln(1 + tf) with a hash-derived sign at a hash-derived
    slot, each slot in ascending weight order, so the row is independent of token
    order and equals ``doc_rows`` of the same text bit for bit.
    """
    counts = Counter(tokenize(text))
    n, tfs = len(counts), np.fromiter(counts.values(), np.int64, len(counts))
    zeros, ids = np.zeros(n, np.int64), np.arange(n)
    return _unit_rows(zeros, ids, tfs, list(counts), 1, embedding_dim, hash_seed)[0]


def doc_rows(
    index: PostingsIndex, ordinals: Sequence[int], embedding_dim: int, hash_seed: int
) -> np.ndarray:
    """Feature rows (len(ordinals), E) of the index's documents at distinct ``ordinals``.

    Built from the postings, equal to ``featurize(doc.text)`` bit for bit. A
    repeated or negative ordinal raises ValueError.
    """
    if np.min(ordinals, initial=0) < 0:
        raise ValueError("ordinals must be >= 0")
    row_of = np.full(index.doc_count, -1, dtype=np.int64)
    row_of[ordinals] = np.arange(len(ordinals))
    if np.count_nonzero(row_of >= 0) != len(ordinals):
        raise ValueError("ordinals must be distinct")
    hit = np.flatnonzero((row_of >= 0)[index.ordinals])  # a bool per posting, not an int64
    return _unit_rows(
        row_of[index.ordinals[hit]], np.searchsorted(index.offsets, hit, side="right") - 1,
        index.tfs[hit], index.terms, len(ordinals), embedding_dim, hash_seed,
    )


class RerankerModel:
    """Bilinear scorer: dot(Wq f(query), Wd f(doc)) + bias, f as ``featurize`` and ``doc_rows``."""

    def __init__(
        self, embedding_dim: int, hash_seed: int, query_projection: np.ndarray,
        doc_projection: np.ndarray, bias: float = 0.0, step: int = 0,
    ):
        if embedding_dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {embedding_dim}")
        self.embedding_dim, self.hash_seed = embedding_dim, hash_seed
        self.query_projection = np.asarray(query_projection, float)
        self.doc_projection = np.asarray(doc_projection, float)
        shape = (embedding_dim, embedding_dim)
        if self.query_projection.shape != shape or self.doc_projection.shape != shape:
            raise ValueError(f"projections must be {embedding_dim}x{embedding_dim}")
        self.bias, self.step = float(bias), int(step)

    @classmethod
    def identity(
        cls, embedding_dim: int = DEFAULT_EMBEDDING_DIM, hash_seed: int = 0
    ) -> "RerankerModel":
        """The untrained model: identity projections score plain hashed-lexical similarity."""
        eye = np.eye(embedding_dim, dtype=np.float64)
        return cls(embedding_dim, hash_seed, eye, eye.copy())

    def copy(self) -> "RerankerModel":
        projections = self.query_projection.copy(), self.doc_projection.copy()
        return RerankerModel(self.embedding_dim, self.hash_seed, *projections, self.bias, self.step)


def softmax_normalize(scores, tau: float) -> np.ndarray:
    """Temperature softmax over the last axis, with max-subtraction for stability.

    A -inf score gets probability 0. A row whose highest score is -inf is empty.
    A row whose highest score is finite but overflows when divided by ``tau``
    takes the tau -> 0 limit: equal mass on its highest scores, 0 elsewhere.
    """
    if not 0.0 < tau < math.inf:
        raise NonPositiveTemperature(tau)
    scores = np.asarray(scores, dtype=np.float64)
    high = scores.max(axis=-1, keepdims=True, initial=-np.inf)
    if np.isneginf(high).any():
        raise ValueError("cannot normalize an empty score list")
    with np.errstate(over="ignore"):  # a gap past the float range is -inf, and exp(-inf) is 0
        top = high / tau  # the bits of max(scores / tau): dividing by tau > 0 keeps the order
        limit = np.isinf(top) & np.isfinite(high)
        if limit.any():
            scores = np.where(limit, np.where(scores == high, 0.0, -np.inf), scores)
            top = np.where(limit, 0.0, top)
        e = np.exp(scores / tau - top)
    return e / e.sum(axis=-1, keepdims=True)


def kl_loss(q, p) -> np.ndarray:
    """KL(Q || P) over the last axis, with 0 ln 0 taken as 0.

    Mass in Q where P has none diverges, giving inf.
    """
    q, p = np.asarray(q, dtype=np.float64), np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = q * (np.log(q) - np.log(p))
    return np.where(q > 0.0, terms, 0.0).sum(axis=-1)


def _fold(model: RerankerModel, qv: np.ndarray, dv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = Wq q, and the logits D w + bias, the query folded into w = Wd^T u.

    ``qv`` is one query row (E,) with ``dv`` (C, E), or a stack (S, E) with (S, C, E).
    Training and inference both score through here, one dot product per document row.
    """
    u = np.matmul(model.query_projection, qv[..., None])[..., 0]
    w = np.matmul(model.doc_projection.T, u[..., None])
    return u, np.matmul(dv, w)[..., 0] + model.bias


def _batch(
    model: RerankerModel,
    candidate_sets: Sequence[CandidateSet],
    index: PostingsIndex,
    tau1: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sets' question rows (S, E), candidate rows (S, C, E), mask and teacher Q (S, C).

    Each distinct question is featurized, and each distinct document's row
    built from the index, once. A set shorter than the longest is padded
    with a zero row and a -inf teacher score, which the mask marks False.
    """
    questions: dict[str, int] = {}
    docs: dict[str, int] = {}
    for cs in candidate_sets:
        questions.setdefault(cs.question, len(questions))
        for doc_id in cs.doc_ids:
            docs.setdefault(doc_id, len(docs))
    width = max(len(cs.doc_ids) for cs in candidate_sets)
    cols = np.full((len(candidate_sets), width), len(docs))
    teacher = np.full(cols.shape, -np.inf)
    for s, cs in enumerate(candidate_sets):
        cols[s, : len(cs.doc_ids)] = [docs[doc_id] for doc_id in cs.doc_ids]
        teacher[s, : len(cs.doc_ids)] = cs.teacher_scores
    dim, seed = model.embedding_dim, model.hash_seed
    q_rows = np.stack([featurize(q, dim, seed) for q in questions])
    d_rows = np.vstack([doc_rows(index, list(map(index.ordinal, docs)), dim, seed), np.zeros(dim)])
    qv = q_rows[[questions[cs.question] for cs in candidate_sets]]
    return qv, d_rows[cols], cols < len(docs), softmax_normalize(teacher, tau1)


def _batch_loss_gradient(model: RerankerModel, batch: tuple, tau2: float):
    """Each set's KL(Q || P), and their sum's gradient (d_query, d_doc, d_bias), in one pass."""
    qv, dv, mask, q = batch
    u, logits = _fold(model, qv, dv)
    p = softmax_normalize(np.where(mask, logits, -np.inf), tau2)
    # dKL/dlogit_i = (P_i - Q_i) / tau2, pushed through the bilinear form; pads have P = Q = 0.
    g = (p - q) / tau2
    gd = np.matmul(g[:, None, :], dv)[:, 0]  # (S, E): each set's g^T D
    d_query = (gd @ model.doc_projection.T).T @ qv
    return kl_loss(q, p), (d_query, u.T @ gd, float(g.sum()))


def loss_gradient(
    model: RerankerModel, candidate_set: CandidateSet, tau1: float, tau2: float, index: PostingsIndex
) -> tuple[float, tuple[np.ndarray, np.ndarray, float]]:
    """One candidate set's KL loss and its (d_query, d_doc, d_bias): training's pass with S = 1."""
    losses, grad = _batch_loss_gradient(model, _batch(model, [candidate_set], index, tau1), tau2)
    return float(losses[0]), grad


def train(
    model: RerankerModel,
    candidate_sets: Sequence[CandidateSet],
    index: PostingsIndex,
    epochs: int,
    lr: float,
    tau1: float = DEFAULT_TAU1,
    tau2: float = DEFAULT_TAU2,
) -> tuple[RerankerModel, list[float]]:
    """Full-batch gradient descent on mean KL(Q || P).

    Returns a trained copy of the model and the loss trace: entry 0 is the
    mean loss before training, entry e the mean loss after epoch e. Pass e
    takes entry e and the gradient at the same parameters, then applies
    update e + 1; the last pass updates nothing. Every pass scores all sets
    at once, in a fixed order, so training is deterministic. A run that
    diverges warns about no overflow: its trace holds inf or NaN instead.
    """
    if not candidate_sets:
        raise ValueError("no candidate sets to train on")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not math.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    trained = model.copy()
    batch = _batch(trained, candidate_sets, index, tau1)
    scale = lr / len(candidate_sets)
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence shows in the trace
        for epoch in range(epochs + 1):
            losses, (d_query, d_doc, d_bias) = _batch_loss_gradient(trained, batch, tau2)
            trace.append(float(losses.sum()) / len(candidate_sets))
            if epoch < epochs:
                trained.query_projection -= scale * d_query
                trained.doc_projection -= scale * d_doc
                trained.bias -= scale * d_bias
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

    Every member's teacher score is its entry in the rationale's BM25 score
    array; ordering is by descending teacher score, then doc_id. Raises
    ValueError for a negative kappa, and DegenerateCandidateSet when fewer than
    two distinct documents are found.
    """
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError(f"kappa1 and kappa2 must be >= 0, got {kappa1} and {kappa2}")
    teacher = bm25_scores(index, tokenize(record.rationales[j]))
    members = top_ordinals(index, teacher, kappa1) if kappa1 > 0 else np.empty(0, np.int64)
    if kappa2 > 0:
        question = bm25_scores(index, tokenize(record.question))
        members = np.union1d(members, top_ordinals(index, question, kappa2))
    if len(members) < 2:
        raise DegenerateCandidateSet(record.example_id, j, len(members))
    members = members[np.lexsort((index.doc_id_rank[members], -teacher[members]))].tolist()
    doc_ids, scores = tuple(index.doc_ids[o] for o in members), tuple(teacher[members].tolist())
    return CandidateSet(record.example_id, j, record.question, doc_ids, scores)


def rerank_batch(
    index: PostingsIndex,
    model: RerankerModel | Sequence[dict[str, float]],
    questions: Sequence[str],
    kappa_star: int = DEFAULT_KAPPA_STAR,
    k: int = 1,
) -> list[list[ScoredDoc]]:
    """Two-stage retrieval of each question: BM25 top-kappa_star, then rerank and keep top-k.

    Every question is retrieved first; the first with no candidate raises
    EmptyCandidates. A RerankerModel builds the rows of all candidates once,
    then folds each question with its own mat-vec, so a question's scores do
    not depend on the others. ``model`` may instead be one {doc_id: score}
    table per question, where a missing doc_id scores 0.0; another number of
    tables raises ValueError. Ties break by ascending doc_id.
    """
    if not 1 <= k <= kappa_star:
        raise ValueError(f"need kappa_star >= k >= 1, got kappa_star={kappa_star} k={k}")
    if not isinstance(model, RerankerModel) and len(model) != len(questions):
        raise ValueError(f"{len(model)} score tables for {len(questions)} questions")
    tops = [top_ordinals(index, bm25_scores(index, tokenize(q)), kappa_star) for q in questions]
    for question, top in zip(questions, tops):
        if not len(top):
            raise EmptyCandidates(question)
    if isinstance(model, RerankerModel):
        dim, seed = model.embedding_dim, model.hash_seed
        union = np.unique(np.concatenate([np.empty(0, np.int64), *tops]))
        rows = doc_rows(index, union, dim, seed)
        scores = [
            _fold(model, featurize(q, dim, seed), rows[np.searchsorted(union, top)])[1]
            for q, top in zip(questions, tops)
        ]
    else:
        scores = [
            np.array([table.get(index.doc_ids[o], 0.0) for o in top.tolist()], float)
            for table, top in zip(model, tops)
        ]
    ranked = []
    for row, top in zip(scores, tops):
        best = np.lexsort((index.doc_id_rank[top], -row))[:k]
        hits = zip(top[best].tolist(), row[best].tolist())
        ranked.append([ScoredDoc(index.doc_ids[o], s, r) for r, (o, s) in enumerate(hits, 1)])
    return ranked


def rerank_inference(
    index: PostingsIndex,
    model: RerankerModel | dict[str, float],
    question: str,
    kappa_star: int = DEFAULT_KAPPA_STAR,
    k: int = 1,
) -> list[ScoredDoc]:
    """``rerank_batch`` of one question, scored by a RerankerModel or one {doc_id: score} table."""
    tables = model if isinstance(model, RerankerModel) else [model]
    return rerank_batch(index, tables, [question], kappa_star, k)[0]


class FileScorer:
    """External scores read from a JSONL exchange file, one {doc_id: score} table per example.

    Lines are {"id": example id, "doc_id": ..., "score": ...}; a score must be
    finite, and a later line for the same pair wins. ``rerank_batch`` scores a
    pair the file lacks 0.0.
    """

    def __init__(self, tables: dict[str, dict[str, float]]):
        self._tables = tables

    @classmethod
    def load(cls, path: str | Path) -> "FileScorer":
        tables: dict[str, dict[str, float]] = {}
        rows = read_jsonl(
            path, lambda obj: (field(obj, "id"), field(obj, "doc_id"), field(obj, "score", float))
        )
        for example_id, doc_id, score in rows:
            tables.setdefault(example_id, {})[doc_id] = score
        return cls(tables)

    def for_example(self, example_id: str) -> dict[str, float]:
        """The example's {doc_id: score} table, or {} for an example the file lacks."""
        return self._tables.get(example_id, {})


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
    if not all(np.isfinite(w).all() for w in (*arrays.values(), model.bias)):
        raise ValueError("model weights must be finite")
    return arrays_bytes(meta, arrays)


def _model(meta: dict, members) -> RerankerModel:
    dim, seed, step = (field(meta, name, int) for name in ("E", "hash_seed", "step"))
    projections = members["query_projection"], members["doc_projection"]
    if any(w.dtype != np.float64 or w.ndim != 2 for w in projections):
        raise ValueError("projections must be 2-D float64 arrays")  # what serialize_model writes
    if not all(np.isfinite(w).all() for w in projections):
        raise RadkitError("checkpoint weights must be finite")
    return RerankerModel(dim, seed, *projections, field(meta, "bias", float), step)


def save_model(model: RerankerModel, path: str | Path) -> None:
    atomic_write({path: serialize_model(model)})


def load_model(path: str | Path) -> RerankerModel:
    """Read a checkpoint; any other file raises UnknownFormatVersion naming ``path``.

    A checkpoint with a NaN or infinite weight raises RadkitError naming ``path``.
    """
    return read_arrays(path, MODEL_FORMAT_VERSION, _model)


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


def _candidate_set(obj: dict, known: set[str]) -> CandidateSet:
    cs = CandidateSet(
        example_id=field(obj, "example_id"),
        rationale_index=field(obj, "j", int),
        question=field(obj, "question"),
        doc_ids=field(obj, "doc_ids", many=True),
        teacher_scores=field(obj, "teacher_scores", float, many=True),
    )
    for doc_id in cs.doc_ids:
        if doc_id not in known:
            raise ValueError(f"unknown doc id {json.dumps(doc_id, ensure_ascii=False)}")
    return cs


def read_candidates_jsonl(path: str | Path, index: PostingsIndex) -> list[CandidateSet]:
    """The candidate sets of a JSONL file; an id ``index`` lacks raises ParseError with its line."""
    known = set(index.doc_ids)
    return read_jsonl(path, lambda obj: _candidate_set(obj, known))
