"""Shared test helpers: independent oracles and synthetic fixture builders.

The BM25 oracle here evaluates the scoring formula directly over raw
token lists with no inverted index, posting lists, or accumulators, so it
stays independent of the production retrieval path it checks. The
reranker references featurize each document's text, where the model builds
document rows from the index's postings; ``reference_train`` also trains one
candidate set at a time, with a scalar KL loop and outer-product gradients,
where ``train`` scores all sets at once. ``reference_build_index`` counts
each document's terms with a Counter and orders the postings with a stable
argsort, where ``build_index`` reduces blocks of documents with ``np.unique``
and places each block's postings in their terms' rows. ``reference_tokenize``
is the tokenizer's regular expression alone, where ``tokenize`` folds and
splits ASCII text.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from radkit.corpus import (
    DEFAULT_B,
    DEFAULT_K1,
    Document,
    PostingsIndex,
    ScoredDoc,
    build_index,
    retrieve,
    tokenize,
)
from radkit.errors import DuplicateDocId, EmptyDocument
from radkit.records import arrays_bytes
from radkit.reranker import (
    CandidateSet,
    RerankerModel,
    _doc_runs,
    _fold,
    _unit_rows,
    featurize,
    serialize_model,
)

DATA_DIR = Path(__file__).parent / "data"

# A format-1 (JSON) index of one document "alpha", byte for byte as format 1 wrote it.
FORMAT_1_INDEX = (
    b'{"build_params":{"b":0.4,"k1":0.9,"tokenizer_version":"lower-alnum-1"},'
    b'"doc_lengths":[1],"documents":[{"id":"a","text":"alpha","title":""}],'
    b'"format_version":1,"postings":[[[0,1]]],"terms":["alpha"]}'
)


def reference_tokenize(text: str) -> list[str]:
    """The alphanumeric runs of the lowercased text: ``[^\\W_]`` is ``str.isalnum``."""
    return re.findall(r"[^\W_]+", text.lower())


def narrowest(a) -> np.ndarray:
    """The non-negative integers ``a`` at the narrowest unsigned dtype that holds the largest,
    as index format 4 stores each of its integer members."""
    a = np.asarray(a)
    return a.astype(np.min_scalar_type(int(a.max(initial=0))))


def decreasing(a: np.ndarray) -> np.ndarray:
    """``a`` with its second and third values swapped, at its own dtype: offsets that decrease."""
    return np.r_[a[:1], a[2], a[1], a[3:]].astype(a.dtype)


def format_2_index(data: bytes) -> bytes:
    """A format-4 index file rewritten as format 2 wrote it: int32 CSR arrays, every text in
    ``meta``."""
    with np.load(io.BytesIO(data)) as members:
        arrays = {
            name: members[name].astype(np.int32)
            for name in ("offsets", "ordinals", "tfs", "doc_lengths")
        }
        meta = json.loads(members["meta"].tobytes())
        joined, bounds = members["texts"].tobytes().decode(), members["text_offsets"].tolist()
    texts = [joined[i:j] for i, j in zip(bounds, bounds[1:])]
    meta = {
        "format_version": 2,
        "build_params": meta["build_params"],
        "terms": meta["terms"],
        "documents": [list(doc) for doc in zip(meta["doc_ids"], meta["titles"], texts)],
    }
    return arrays_bytes(meta, arrays)


def format_3_index(data: bytes) -> bytes:
    """A format-4 index file rewritten as format 3 wrote it: int32 CSR arrays and int64
    ``text_offsets``."""
    with np.load(io.BytesIO(data)) as members:
        arrays = {name: members[name] for name in members.files if name != "meta"}
        meta = json.loads(members["meta"].tobytes())
    for name in ("offsets", "ordinals", "tfs", "doc_lengths"):
        arrays[name] = arrays[name].astype(np.int32)
    arrays["text_offsets"] = arrays["text_offsets"].astype(np.int64)
    return arrays_bytes({**meta, "format_version": 3}, arrays)


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


def unchecked_checkpoint(model: RerankerModel) -> bytes:
    """``model``'s checkpoint, written past serialize_model's check that its weights are finite."""
    return with_meta(
        serialize_model(RerankerModel.identity(model.embedding_dim, model.hash_seed)),
        lambda meta: meta.update(bias=model.bias, step=model.step),
        query_projection=model.query_projection,
        doc_projection=model.doc_projection,
    )


def doc_rows(index: PostingsIndex, ordinals, embedding_dim: int, hash_seed: int) -> np.ndarray:
    """Rows (len(ordinals), E) of the index's documents at ``ordinals``, as training and
    ``rerank_batch`` build them: from the runs of ``_doc_runs``, picked by ordinal."""
    return _unit_rows(_doc_runs(index, ordinals, embedding_dim, hash_seed), ordinals, embedding_dim)


def model_scores(model: RerankerModel, query_text: str, index: PostingsIndex, ordinals):
    """``model``'s scores of the index's documents at ``ordinals`` against the query.

    The rows and the fold are the ones training and ``rerank_batch`` score through.
    """
    dim, seed = model.embedding_dim, model.hash_seed
    return _fold(model, featurize(query_text, dim, seed), doc_rows(index, ordinals, dim, seed))[1]


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


def reference_build_index(
    docs: list[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> PostingsIndex:
    """The index ``build_index`` must give, one document at a time.

    Each document's terms are counted and walked in alphabetical order; a
    term unseen so far takes the next id. A stable sort by term id then
    keeps each term's postings in ordinal order.
    """
    seen: set[str] = set()
    vocabulary: dict[str, int] = {}
    postings: list[int] = []  # flat (term_id, ordinal, tf) triples
    doc_lengths: list[int] = []
    for ordinal, doc in enumerate(docs):
        if doc.doc_id in seen:
            raise DuplicateDocId(doc.doc_id)
        seen.add(doc.doc_id)
        tokens = reference_tokenize(doc.text)
        if not tokens:
            raise EmptyDocument(doc.doc_id)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.extend((vocabulary.setdefault(term, len(vocabulary)), ordinal, tf))
    flat = np.array(postings, dtype=np.int64).reshape(-1, 3)
    term_ids, ordinals, tfs = flat[np.argsort(flat[:, 0], kind="stable")].T
    offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_ids, minlength=len(vocabulary)), out=offsets[1:])
    arrays = map(narrowest, (offsets, ordinals, tfs, doc_lengths))
    doc_ids, titles = [d.doc_id for d in docs], [d.title for d in docs]
    texts = [d.text for d in docs]
    terms = list(vocabulary)
    return PostingsIndex(doc_ids, titles, texts, terms, *arrays, k1, b)


def text_index(doc_texts: dict[str, str]) -> PostingsIndex:
    """An index of one document per (doc_id, text) pair, in the given order."""
    return build_index([Document(doc_id, "", text) for doc_id, text in doc_texts.items()])


def convergence_fixture() -> tuple[RerankerModel, list[CandidateSet], PostingsIndex]:
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
    model = RerankerModel(512, 7, np.eye(512) * 1000.0, np.eye(512))
    return model, sets, text_index(doc_texts)


def convergence_targets() -> list[int]:
    return [(3 * i + 2) % 8 for i in range(10)]


def random_reranker_fixture(
    rng: np.random.Generator, embedding_dim: int = 12
) -> tuple[RerankerModel, CandidateSet, PostingsIndex]:
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
    return model, cs, text_index(doc_texts)


def padded_fixture() -> tuple[RerankerModel, list[CandidateSet], PostingsIndex]:
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
    return model, sets, text_index(doc_texts)


def reference_slot_sign(term: str, dim: int, seed: int) -> tuple[int, float]:
    """One term's slot and sign from its own blake2b of ``f"{seed}:{term}"``, read as Python ints."""
    digest = hashlib.blake2b(f"{seed}:{term}".encode(), digest_size=16).digest()
    return int.from_bytes(digest[:8], "little") % dim, 1.0 if digest[8] & 1 else -1.0


def reference_featurize(text: str, dim: int, seed: int) -> np.ndarray:
    """``featurize`` as a loop: blake2b per term, then per slot the signed ln(1 + tf) ascending."""
    by_slot: dict[int, list[float]] = {}
    for term, tf in Counter(tokenize(text)).items():
        slot, sign = reference_slot_sign(term, dim, seed)
        by_slot.setdefault(slot, []).append(sign * math.log1p(tf))
    vec = np.zeros((1, dim))
    for slot, weights in by_slot.items():
        for w in sorted(weights):
            vec[0, slot] += w
    norm = np.linalg.norm(vec, axis=-1, keepdims=True)
    return (vec / norm if norm > 0.0 else vec)[0]


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


def reference_train(model, candidate_sets, index, epochs, lr, tau1, tau2):
    """Full-batch gradient descent as ``train`` does it, one set at a time in set order."""
    trained = model.copy()
    dim, seed = model.embedding_dim, model.hash_seed
    features = [
        (
            featurize(cs.question, dim, seed),
            np.stack([featurize(index.document(d).text, dim, seed) for d in cs.doc_ids]),
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


def reference_rerank_inference(index, model, question, kappa_star, k) -> list[ScoredDoc]:
    """``rerank_inference`` with a model, the candidates' rows from ``featurize(doc.text)``."""
    dim, seed = model.embedding_dim, model.hash_seed
    candidates = retrieve(index, question, kappa_star)
    docs = np.stack([featurize(index.document(sd.doc_id).text, dim, seed) for sd in candidates])
    u = model.query_projection @ featurize(question, dim, seed)
    logits = docs @ (model.doc_projection.T @ u) + model.bias  # the query side folded, as scored
    rescored = sorted((-score, sd.doc_id) for score, sd in zip(logits.tolist(), candidates))
    return [ScoredDoc(doc_id, -neg, rank) for rank, (neg, doc_id) in enumerate(rescored[:k], 1)]
