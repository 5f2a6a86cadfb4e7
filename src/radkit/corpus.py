"""Passage corpus ingestion and BM25 retrieval over an inverted index.

The index is immutable after build and safe for concurrent querying.
Scoring uses the Lucene-flavoured BM25 variant: the IDF has a +1 inside
the log so it is never negative, and the defaults are k1=0.9, b=0.4.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import DuplicateDocId, EmptyDocument, InvalidOrdinal, UnknownFormatVersion
from .records import atomic_write, read_jsonl

INDEX_FORMAT_VERSION = 1
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


class PostingsIndex:
    """Immutable BM25 inverted index.

    Postings are per-term lists of (doc_ordinal, term_frequency) sorted
    strictly ascending by ordinal. Ordinals follow corpus input order.
    The source documents are embedded so downstream stages can resolve
    passage texts from the index file alone.
    """

    def __init__(
        self,
        documents: list[Document],
        vocabulary: dict[str, int],
        postings: list[list[tuple[int, int]]],
        doc_lengths: list[int],
        k1: float,
        b: float,
        tokenizer_version: str = TOKENIZER_VERSION,
    ):
        self.documents = documents
        self.vocabulary = vocabulary
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.tokenizer_version = tokenizer_version
        self.doc_count = len(documents)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count
        self.doc_ids = [d.doc_id for d in documents]
        self._ordinal_by_id = {d.doc_id: i for i, d in enumerate(documents)}

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal_by_id[doc_id]

    def document(self, doc_id: str) -> Document:
        return self.documents[self._ordinal_by_id[doc_id]]

    def term_frequency(self, term: str, doc_ordinal: int) -> int:
        """Frequency of ``term`` in the given document, 0 if absent."""
        term_id = self.vocabulary.get(term)
        if term_id is None:
            return 0
        plist = self.postings[term_id]
        pos = bisect_left(plist, (doc_ordinal,))
        if pos < len(plist) and plist[pos][0] == doc_ordinal:
            return plist[pos][1]
        return 0

    def idf(self, term: str) -> float:
        term_id = self.vocabulary.get(term)
        if term_id is None:
            return 0.0
        df = len(self.postings[term_id])
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


def build_index(
    docs: list[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> PostingsIndex:
    """Build a BM25 index; deterministic for identical input.

    Raises DuplicateDocId / EmptyDocument on bad input. Term ids are
    assigned in first-appearance order so rebuilding from the same
    corpus serializes byte-identically.
    """
    if not docs:
        raise ValueError("cannot index an empty corpus")
    seen: set[str] = set()
    vocabulary: dict[str, int] = {}
    postings: list[list[tuple[int, int]]] = []
    doc_lengths: list[int] = []
    for ordinal, doc in enumerate(docs):
        if doc.doc_id in seen:
            raise DuplicateDocId(doc.doc_id)
        seen.add(doc.doc_id)
        tokens = tokenize(doc.text)
        if not tokens:
            raise EmptyDocument(doc.doc_id)
        doc_lengths.append(len(tokens))
        counts = Counter(tokens)
        for term in sorted(counts):
            term_id = vocabulary.get(term)
            if term_id is None:
                term_id = len(vocabulary)
                vocabulary[term] = term_id
                postings.append([])
            postings[term_id].append((ordinal, counts[term]))
    return PostingsIndex(list(docs), vocabulary, postings, doc_lengths, k1, b)


def bm25_score(index: PostingsIndex, query_terms: list[str], doc_ordinal: int) -> float:
    """BM25 score of one document against deduplicated query terms.

    Terms absent from the document or the vocabulary contribute 0.
    """
    if not 0 <= doc_ordinal < index.doc_count:
        raise InvalidOrdinal(doc_ordinal, index.doc_count)
    dl = index.doc_lengths[doc_ordinal]
    norm = index.k1 * (1.0 - index.b + index.b * dl / index.avg_doc_length)
    score = 0.0
    for term in dict.fromkeys(query_terms):
        tf = index.term_frequency(term, doc_ordinal)
        if tf == 0:
            continue
        score += index.idf(term) * tf * (index.k1 + 1.0) / (tf + norm)
    return score


def retrieve(index: PostingsIndex, query: str, k: int) -> list[ScoredDoc]:
    """Top-k documents by BM25 for ``query``; zero-score documents are excluded.

    Ties are broken by ascending doc_id so results are reproducible.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = dict.fromkeys(tokenize(query))
    accum: dict[int, float] = {}
    for term in terms:
        term_id = index.vocabulary.get(term)
        if term_id is None:
            continue
        idf = index.idf(term)
        for ordinal, tf in index.postings[term_id]:
            dl = index.doc_lengths[ordinal]
            norm = index.k1 * (1.0 - index.b + index.b * dl / index.avg_doc_length)
            accum[ordinal] = accum.get(ordinal, 0.0) + idf * tf * (index.k1 + 1.0) / (tf + norm)
    ranked = sorted(
        ((score, index.doc_ids[ordinal]) for ordinal, score in accum.items() if score > 0.0),
        key=lambda item: (-item[0], item[1]),
    )
    return [
        ScoredDoc(doc_id=doc_id, score=score, rank=rank)
        for rank, (score, doc_id) in enumerate(ranked[:k], start=1)
    ]


def _document(obj: dict) -> Document:
    return Document(
        doc_id=str(obj["id"]), title=str(obj.get("title", "")), text=str(obj["text"])
    )


def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Read a JSONL corpus of {"id", "title", "text"} objects ("title" optional)."""
    return read_jsonl(path, _document)


def serialize_index(index: PostingsIndex) -> bytes:
    """Canonical JSON bytes; identical corpora serialize identically."""
    terms_by_id = sorted(index.vocabulary, key=index.vocabulary.get)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "build_params": {
            "tokenizer_version": index.tokenizer_version,
            "k1": index.k1,
            "b": index.b,
        },
        "documents": [
            {"id": d.doc_id, "title": d.title, "text": d.text} for d in index.documents
        ],
        "doc_lengths": index.doc_lengths,
        "terms": terms_by_id,
        "postings": [index.postings[index.vocabulary[t]] for t in terms_by_id],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def deserialize_index(data: bytes) -> PostingsIndex:
    payload = json.loads(data.decode("utf-8"))
    version = payload.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise UnknownFormatVersion(version, INDEX_FORMAT_VERSION)
    params = payload["build_params"]
    documents = [
        Document(doc_id=d["id"], title=d["title"], text=d["text"])
        for d in payload["documents"]
    ]
    vocabulary = {term: i for i, term in enumerate(payload["terms"])}
    postings = [[(int(o), int(tf)) for o, tf in plist] for plist in payload["postings"]]
    return PostingsIndex(
        documents,
        vocabulary,
        postings,
        [int(n) for n in payload["doc_lengths"]],
        float(params["k1"]),
        float(params["b"]),
        tokenizer_version=params["tokenizer_version"],
    )


def save_index(index: PostingsIndex, path: str | Path) -> None:
    atomic_write(path, serialize_index(index))


def load_index(path: str | Path) -> PostingsIndex:
    return deserialize_index(Path(path).read_bytes())
