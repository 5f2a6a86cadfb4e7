"""Passage corpus ingestion and BM25 retrieval over an inverted index.

The index is immutable after build and safe for concurrent querying.
Scoring uses the Lucene-flavoured BM25 variant: the IDF has a +1 inside
the log so it is never negative, and the defaults are k1=0.9, b=0.4.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DuplicateDocId, EmptyDocument, InvalidOrdinal, UnknownFormatVersion
from .records import arrays_bytes, atomic_write, read_arrays, read_jsonl

INDEX_FORMAT_VERSION = 2
TOKENIZER_VERSION = "lower-alnum-1"

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

# Unicode alphanumeric runs; underscore is a separator like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    """One corpus passage. ``title`` is carried metadata; only ``text`` is indexed."""

    doc_id: str
    title: str
    text: str


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything that is not alphanumeric.

    No stemming, no stopword removal; duplicates are preserved in order.
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class _Rows:
    """``rows[t]`` is ``values[offsets[t]:offsets[t + 1]]``, row ``t`` of a CSR array (a view)."""

    def __init__(self, offsets: np.ndarray, values: np.ndarray):
        self.offsets, self.values = offsets, values

    def __getitem__(self, row: int) -> np.ndarray:
        return self.values[self.offsets[row] : self.offsets[row + 1]]


class PostingsIndex:
    """Immutable BM25 inverted index in CSR form.

    Term ``t``'s postings, ``postings[t]``, are ``ordinals[offsets[t]:offsets[t + 1]]``,
    strictly ascending; ordinals follow corpus input order. ``tfs`` and
    ``impacts`` run parallel to ``ordinals``: a posting's BM25 contribution
    is ``idf * tf * (k1 + 1) / (tf + norm)``, evaluated in that order. The
    source documents are embedded so downstream stages can resolve passage
    texts from the index file alone. Arrays that do not fit the documents
    and terms, k1 < 0, b outside [0, 1] or a non-finite k1 or b raise
    ValueError, whether the index is built or loaded.
    """

    def __init__(
        self,
        documents: list[Document],
        vocabulary: dict[str, int],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        k1: float,
        b: float,
    ):
        _check_fit(len(documents), len(vocabulary), offsets, ordinals, tfs, doc_lengths, k1, b)
        self.documents = documents
        self.vocabulary = vocabulary
        self.offsets = offsets
        self.ordinals = ordinals
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.doc_count = len(documents)
        self.avg_doc_length = int(doc_lengths.sum()) / self.doc_count
        self.doc_ids = [d.doc_id for d in documents]
        self._ordinal_by_id = {d.doc_id: i for i, d in enumerate(documents)}
        # Rank of each ordinal's doc_id in ascending string order, the tie-break.
        self.doc_id_rank = np.argsort(sorted(range(self.doc_count), key=self.doc_ids.__getitem__))
        self.postings = _Rows(offsets, ordinals)
        # idf by math.log, not np.log, once per distinct document frequency.
        n, df = self.doc_count, np.diff(offsets)
        distinct, of_term = np.unique(df, return_inverse=True)
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in distinct.tolist()])
        norm = k1 * (1.0 - b + b * doc_lengths / self.avg_doc_length)
        self.impacts = np.repeat(idf[of_term], df) * tfs * (k1 + 1.0) / (tfs + norm[ordinals])
        # term_id * doc_count + ordinal per posting: ascending, so one searchsorted finds pairs.
        self.posting_keys = np.repeat(np.arange(len(df), dtype=np.int64) * n, df) + ordinals

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal_by_id[doc_id]

    def document(self, doc_id: str) -> Document:
        return self.documents[self._ordinal_by_id[doc_id]]


def _check_fit(n_docs, n_terms, offsets, ordinals, tfs, doc_lengths, k1, b) -> None:
    """Raise ValueError unless the CSR arrays fit the documents and terms and k1, b are valid."""
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError(f"k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if n_docs == 0:
        raise ValueError("cannot index an empty corpus")
    if len(doc_lengths) != n_docs:
        raise ValueError(f"{len(doc_lengths)} document lengths for {n_docs} documents")
    if len(offsets) != n_terms + 1:
        raise ValueError(f"{len(offsets)} offsets for {n_terms} terms")
    if len(tfs) != len(ordinals) or offsets[0] != 0 or offsets[-1] != len(ordinals):
        raise ValueError("offsets must run from 0 to the number of postings")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    if len(ordinals) and not 0 <= ordinals.min() <= ordinals.max() < n_docs:
        raise ValueError(f"posting ordinals must lie in [0, {n_docs})")


def build_index(
    docs: list[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> PostingsIndex:
    """Build a BM25 index; deterministic for identical input.

    Raises DuplicateDocId / EmptyDocument on bad input. Term ids are
    assigned in first-appearance order so rebuilding from the same
    corpus serializes byte-identically.
    """
    seen: set[str] = set()
    vocabulary: dict[str, int] = {}
    postings: list[int] = []  # flat (term_id, ordinal, tf) triples
    doc_lengths: list[int] = []
    for ordinal, doc in enumerate(docs):
        if doc.doc_id in seen:
            raise DuplicateDocId(doc.doc_id)
        seen.add(doc.doc_id)
        tokens = tokenize(doc.text)
        if not tokens:
            raise EmptyDocument(doc.doc_id)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.extend((vocabulary.setdefault(term, len(vocabulary)), ordinal, tf))
    # A stable sort by term id keeps each term's postings in ordinal order.
    flat = np.array(postings, dtype=np.int32).reshape(-1, 3)
    term_ids, ordinals, tfs = flat[np.argsort(flat[:, 0], kind="stable")].T.copy()
    offsets = np.zeros(len(vocabulary) + 1, dtype=np.int32)
    np.cumsum(np.bincount(term_ids, minlength=len(vocabulary)), out=offsets[1:])
    lengths = np.array(doc_lengths, dtype=np.int32)
    return PostingsIndex(list(docs), vocabulary, offsets, ordinals, tfs, lengths, k1, b)


def bm25_score(index: PostingsIndex, query_terms: list[str], doc_ordinal: int) -> float:
    """BM25 score of one document against deduplicated query terms.

    Terms absent from the document or the vocabulary contribute 0.
    """
    if not 0 <= doc_ordinal < index.doc_count:
        raise InvalidOrdinal(doc_ordinal, index.doc_count)
    term_ids = [t for t in map(index.vocabulary.get, dict.fromkeys(query_terms)) if t is not None]
    wanted = np.array(term_ids, dtype=np.int64) * index.doc_count + doc_ordinal
    keys = index.posting_keys
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    score = 0.0
    for impact in index.impacts[pos[keys[pos] == wanted]].tolist():
        score += impact  # term by term, in query order, as retrieve's bincount adds
    return score


def retrieve(index: PostingsIndex, query: str, k: int) -> list[ScoredDoc]:
    """Top-k documents by BM25 for ``query``; zero-score documents are excluded.

    Ties are broken by ascending doc_id so results are reproducible.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = [t for t in map(index.vocabulary.get, dict.fromkeys(tokenize(query))) if t is not None]
    rows = [slice(index.offsets[t], index.offsets[t + 1]) for t in ids]
    if not rows:
        return []
    ordinals = np.concatenate([index.ordinals[r] for r in rows])
    impacts = np.concatenate([index.impacts[r] for r in rows])
    # bincount adds each document's impacts in query-term order, as a loop would.
    scores = np.bincount(ordinals, weights=impacts, minlength=index.doc_count)
    hits = np.flatnonzero(scores > 0.0)
    if len(hits) > k:  # keep every hit tied with the k-th best; the tie-break cuts
        hits = hits[scores[hits] >= np.partition(scores[hits], len(hits) - k)[len(hits) - k]]
    top = hits[np.lexsort((index.doc_id_rank[hits], -scores[hits]))[:k]]
    return [
        ScoredDoc(doc_id=index.doc_ids[o], score=float(scores[o]), rank=rank)
        for rank, o in enumerate(top.tolist(), start=1)
    ]


def _document(obj: dict) -> Document:
    return Document(
        doc_id=str(obj["id"]), title=str(obj.get("title", "")), text=str(obj["text"])
    )


def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Read a JSONL corpus of {"id", "title", "text"} objects ("title" optional)."""
    return read_jsonl(path, _document)


_ARRAYS = ("offsets", "ordinals", "tfs", "doc_lengths")


def serialize_index(index: PostingsIndex) -> bytes:
    """Index format 2: an array file of the int32 CSR arrays.

    Its ``meta`` holds the build parameters, the terms in id order and the
    documents as [id, title, text] triples. Impacts are recomputed at load.
    """
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "build_params": {"tokenizer_version": TOKENIZER_VERSION, "k1": index.k1, "b": index.b},
        "terms": sorted(index.vocabulary, key=index.vocabulary.get),
        "documents": [[d.doc_id, d.title, d.text] for d in index.documents],
    }
    return arrays_bytes(meta, {name: getattr(index, name) for name in _ARRAYS})


def _index(meta: dict, members) -> PostingsIndex:
    params = meta["build_params"]
    if params["tokenizer_version"] != TOKENIZER_VERSION:
        raise UnknownFormatVersion(params["tokenizer_version"], TOKENIZER_VERSION, "tokenizer")
    documents = [Document(*d) for d in meta["documents"]]
    vocabulary = {term: i for i, term in enumerate(meta["terms"])}
    arrays = (members[name] for name in _ARRAYS)
    return PostingsIndex(documents, vocabulary, *arrays, float(params["k1"]), float(params["b"]))


def deserialize_index(data: bytes) -> PostingsIndex:
    """Read format 2. Any other file, format 1's JSON included, raises UnknownFormatVersion."""
    return read_arrays(data, INDEX_FORMAT_VERSION, _index)


def save_index(index: PostingsIndex, path: str | Path) -> None:
    atomic_write(path, serialize_index(index))


def load_index(path: str | Path) -> PostingsIndex:
    return read_arrays(Path(path).read_bytes(), INDEX_FORMAT_VERSION, _index, path)
