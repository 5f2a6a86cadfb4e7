"""Shared test helpers: independent oracles and synthetic fixture builders.

The BM25 oracle here evaluates the scoring formula directly over raw
token lists with no inverted index, posting lists, or accumulators, so it
stays independent of the production retrieval path it checks. The
reranker reference trains one candidate set at a time, with a scalar KL
loop and outer-product gradients, where ``train`` scores all sets at once.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

from radkit.corpus import Document, tokenize
from radkit.reranker import CandidateSet, RerankerModel, featurize

DATA_DIR = Path(__file__).parent / "data"

# A format-1 (JSON) index of one document "alpha", byte for byte as format 1 wrote it.
FORMAT_1_INDEX = (
    b'{"build_params":{"b":0.4,"k1":0.9,"tokenizer_version":"lower-alnum-1"},'
    b'"doc_lengths":[1],"documents":[{"id":"a","text":"alpha","title":""}],'
    b'"format_version":1,"postings":[[[0,1]]],"terms":["alpha"]}'
)


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def with_meta(data: bytes, change, **replaced) -> bytes:
    """An array file (index or checkpoint) rewritten with ``change`` applied to its meta member.

    Members named in ``replaced`` are swapped for the given arrays.
    """
    with np.load(io.BytesIO(data)) as members:
        arrays = {name: members[name] for name in members.files}
    arrays.update(replaced)
    meta = json.loads(arrays["meta"].tobytes())
    change(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return npz_bytes(**arrays)


def bm25_oracle_score(
    doc_tokens: list[list[str]], query_terms: list[str], doc: int, k1: float, b: float
) -> float:
    """Direct evaluation of the scoring formula for one document."""
    n_docs = len(doc_tokens)
    avgdl = sum(len(toks) for toks in doc_tokens) / n_docs
    dl = len(doc_tokens[doc])
    total = 0.0
    for term in dict.fromkeys(query_terms):
        tf = doc_tokens[doc].count(term)
        if tf == 0:
            continue
        df = sum(term in toks for toks in doc_tokens)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return total


def bm25_oracle_ranked(
    docs: list[Document], query: str, k: int, k1: float, b: float
) -> list[tuple[str, float]]:
    """Exhaustively score every document, sort, drop zeros, take k (id, score) pairs."""
    doc_tokens = [tokenize(d.text) for d in docs]
    terms = tokenize(query)
    scored = []
    for i, d in enumerate(docs):
        s = bm25_oracle_score(doc_tokens, terms, i, k1, b)
        if s > 0.0:
            scored.append((-s, d.doc_id))
    scored.sort()
    return [(doc_id, -neg) for neg, doc_id in scored[:k]]


def bm25_oracle_topk(
    docs: list[Document], query: str, k: int, k1: float, b: float
) -> list[str]:
    """The ids of ``bm25_oracle_ranked``."""
    return [doc_id for doc_id, _ in bm25_oracle_ranked(docs, query, k, k1, b)]


def random_corpus(rng: np.random.Generator, n_docs: int, vocab_size: int = 40) -> list[Document]:
    """Small synthetic corpus with overlapping vocabulary."""
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(3, 12))
        words = rng.choice(vocab, size=length)
        docs.append(Document(doc_id=f"doc-{i:04d}", title="", text=" ".join(words)))
    return docs


def random_query(rng: np.random.Generator, vocab_size: int = 40, max_terms: int = 5) -> str:
    n = int(rng.integers(1, max_terms + 1))
    return " ".join(f"w{int(i):03d}" for i in rng.integers(0, vocab_size, size=n))


def convergence_fixture() -> tuple[RerankerModel, list[CandidateSet], dict[str, str]]:
    """Separable reranker-training fixture: 10 questions, 8 candidates each.

    Question and candidate texts share no vocabulary, so the initial
    student distribution is near-uniform, while one candidate per question
    gets the dominant teacher score. The starting model pre-scales the
    query projection so plain gradient descent can open logit gaps on the
    order of the student temperature within a short run.
    """
    n_queries, n_cands = 10, 8
    sets = []
    doc_texts: dict[str, str] = {}
    for i in range(n_queries):
        question = f"case q{i} presents symptom{i}a and symptom{i}b"
        doc_ids = []
        for j in range(n_cands):
            doc_id = f"syn-{i}-{j}"
            doc_texts[doc_id] = f"topic{i} item{j} body{i}x{j} tail{i}y{j}"
            doc_ids.append(doc_id)
        target = (3 * i + 2) % n_cands
        teacher = tuple(8.0 if j == target else 1.0 for j in range(n_cands))
        sets.append(
            CandidateSet(
                example_id=f"q{i}",
                rationale_index=0,
                question=question,
                doc_ids=tuple(doc_ids),
                teacher_scores=teacher,
            )
        )
    model = RerankerModel.identity(embedding_dim=512, hash_seed=7, query_scale=1000.0)
    return model, sets, doc_texts


def convergence_targets() -> list[int]:
    return [(3 * i + 2) % 8 for i in range(10)]


def random_reranker_fixture(
    rng: np.random.Generator, embedding_dim: int = 12
) -> tuple[RerankerModel, CandidateSet, dict[str, str]]:
    """Random small model and candidate set for gradient checks."""
    model = RerankerModel(
        embedding_dim=embedding_dim,
        hash_seed=int(rng.integers(0, 1000)),
        query_projection=rng.normal(0.0, 0.6, size=(embedding_dim, embedding_dim)),
        doc_projection=rng.normal(0.0, 0.6, size=(embedding_dim, embedding_dim)),
        bias=float(rng.normal()),
    )
    n_cands = int(rng.integers(3, 7))
    words = [f"t{i}" for i in range(30)]
    doc_texts = {}
    doc_ids = []
    for c in range(n_cands):
        doc_id = f"rnd-{c}"
        doc_ids.append(doc_id)
        doc_texts[doc_id] = " ".join(rng.choice(words, size=int(rng.integers(2, 7))))
    cs = CandidateSet(
        example_id="rnd",
        rationale_index=0,
        question=" ".join(rng.choice(words, size=4)),
        doc_ids=tuple(doc_ids),
        teacher_scores=tuple(float(s) for s in rng.normal(0.0, 2.0, size=n_cands)),
    )
    return model, cs, doc_texts


def padded_fixture() -> tuple[RerankerModel, list[CandidateSet], dict[str, str]]:
    """Reranker-training fixture whose candidate sets differ in size and share documents.

    Nine sets of 2 to 7 candidates draw on one pool of 12 documents, two
    sets share a question, and one set's teacher Q underflows to 0 on a
    real (not padded) candidate.
    """
    rng = np.random.default_rng(41)
    words = [f"v{i}" for i in range(25)]
    doc_texts = {
        f"pool-{i:02d}": " ".join(rng.choice(words, size=int(rng.integers(2, 8))))
        for i in range(12)
    }
    questions = [" ".join(rng.choice(words, size=4)) for _ in range(8)]
    sets = []
    for s, size in enumerate((2, 7, 3, 5, 7, 4, 2, 6, 3)):
        doc_ids = tuple(rng.choice(sorted(doc_texts), size=size, replace=False).tolist())
        teacher = tuple(float(x) for x in rng.normal(0.0, 3.0, size=size))
        if s == 2:
            teacher = (900.0,) + teacher[1:]
        sets.append(CandidateSet(f"p{s}", 0, questions[min(s, 7)], doc_ids, teacher))
    dim = 16
    model = RerankerModel(
        dim,
        hash_seed=5,
        query_projection=rng.normal(0.0, 3.0, size=(dim, dim)),
        doc_projection=rng.normal(0.0, 3.0, size=(dim, dim)),
        bias=0.25,
    )
    return model, sets, doc_texts


def _reference_softmax(scores, tau: float) -> np.ndarray:
    z = np.asarray(scores, dtype=np.float64) / tau
    e = np.exp(z - z.max())
    return e / e.sum()


def reference_loss_gradient(model, cs, tau1, tau2, qv, dv):
    """One set's KL(Q || P) as a scalar loop, and its gradient as outer products."""
    u = model.query_projection @ qv
    v = dv @ model.doc_projection.T
    q = _reference_softmax(cs.teacher_scores, tau1)
    p = _reference_softmax(v @ u + model.bias, tau2)
    loss = 0.0
    for qi, pi in zip(q.tolist(), p.tolist()):
        if qi > 0.0:
            loss += math.inf if pi == 0.0 else qi * (math.log(qi) - math.log(pi))
    g = (p - q) / tau2
    return loss, np.outer(g @ v, qv), np.outer(u, g @ dv), float(g.sum())


def reference_train(model, candidate_sets, doc_texts, epochs, lr, tau1, tau2):
    """Full-batch gradient descent as ``train`` does it, one set at a time in set order."""
    trained = model.copy()
    dim, seed = model.embedding_dim, model.hash_seed
    features = [
        (
            featurize(cs.question, dim, seed),
            np.stack([featurize(doc_texts[d], dim, seed) for d in cs.doc_ids]),
        )
        for cs in candidate_sets
    ]
    scale = lr / len(candidate_sets)
    trace = []
    for epoch in range(epochs + 1):
        total, acc_q, acc_d, acc_b = 0.0, 0.0, 0.0, 0.0
        for cs, (qv, dv) in zip(candidate_sets, features):
            loss, d_query, d_doc, d_bias = reference_loss_gradient(trained, cs, tau1, tau2, qv, dv)
            total += loss
            acc_q = acc_q + d_query
            acc_d = acc_d + d_doc
            acc_b += d_bias
        trace.append(total / len(candidate_sets))
        if epoch < epochs:
            trained.query_projection -= scale * acc_q
            trained.doc_projection -= scale * acc_d
            trained.bias -= scale * acc_b
            trained.step += 1
    return trained, trace
