"""Passage corpus ingestion and BM25 retrieval over an inverted index.

The index is immutable after build and safe for concurrent querying.
Scoring uses the Lucene-flavoured BM25 variant: the IDF has a +1 inside
the log so it is never negative, and the defaults are k1=0.9, b=0.4.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, pairwise
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateDocId,
    EmptyCorpus,
    EmptyDocument,
    InvalidOrdinal,
    UnencodableDocument,
    UnknownFormatVersion,
)
from .records import arrays_bytes, atomic_write, field, read_arrays, read_jsonl

INDEX_FORMAT_VERSION = 4
TOKENIZER_VERSION = "lower-alnum-2"

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

# The index file's CSR members, each at its ``_narrowest`` unsigned width.
_ARRAYS = ("offsets", "ordinals", "tfs", "doc_lengths")

# Postings per block where a load works through all of them (``_blocks``). A temporary as
# long as the postings, made and dropped by every stage that loads the index, decides
# whether glibc hands heap pages back between two stages run in one process and faults
# them in again in the next.
_BLOCK = 1 << 16

# Documents per block of a build (``build_index``). Each block's tokens are reduced to its
# postings at once, so no temporary of the build is as long as all the corpus's tokens.
_DOC_BLOCK = 1024

# Unicode alphanumeric runs; underscore is a separator like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# ASCII text's fold for ``tokenize``: A-Z lowercased, every other character that is not
# alphanumeric made a space.
_ASCII = "".join(map(chr, range(128)))
_ASCII_FOLD = str.maketrans(_ASCII, "".join(c.lower() if c.isalnum() else " " for c in _ASCII))


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
    """Alphanumeric runs of the lowercased text, repeats kept, in order; no stemming or stopwords.

    ASCII text is folded by ``_ASCII_FOLD`` and split at whitespace: the same runs, since
    ``_TOKEN_RE`` matches exactly what ``str.isalnum`` accepts and no alphanumeric is
    whitespace. So the tokens, and ``TOKENIZER_VERSION``, are the same on either path.
    """
    if text.isascii():
        return text.translate(_ASCII_FOLD).split()
    return _TOKEN_RE.findall(text.lower())


class _Rows:
    """``rows[t]`` is ``values[offsets[t]:offsets[t + 1]]``, row ``t`` of a CSR array (a view)."""

    def __init__(self, offsets: np.ndarray, values: np.ndarray):
        self.offsets, self.values = offsets, values

    def __getitem__(self, row: int) -> np.ndarray:
        return self.values[self.offsets[row] : self.offsets[row + 1]]


class PostingsIndex:
    """Immutable BM25 inverted index in CSR form.

    Term ``t`` is ``terms[t]``, and ``vocabulary`` maps each term back to its id.
    Its postings, ``postings[t]``, are ``ordinals[offsets[t]:offsets[t + 1]]``,
    strictly ascending; ordinals follow corpus input order. ``tfs`` and
    ``impacts`` run parallel to ``ordinals``: a posting's BM25 contribution
    is ``idf * tf * (k1 + 1) / (tf + norm)``, evaluated in that order. The
    source passages are embedded as three sequences indexed by ordinal,
    ``doc_ids``, ``titles`` and ``texts``, so downstream stages can resolve
    passage texts from the index file alone; ``document(doc_id)`` builds one
    ``Document`` from them. Arrays that are not 1-D at their ``_narrowest``
    unsigned dtype or do not fit the passages and terms, a repeated doc id or
    term, a tf or length below 1, a document whose tfs do not sum to its
    length or whose length exceeds its text's in code points, k1 < 0, b
    outside [0, 1] or a non-finite k1 or b raise ValueError, whether built or
    loaded.
    """

    def __init__(
        self,
        doc_ids: tuple[str, ...],
        titles: tuple[str, ...],
        texts: list[str],
        terms: tuple[str, ...],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        k1: float,
        b: float,
    ):
        _check_fit(
            len(doc_ids), len(titles), texts, len(terms), offsets, ordinals, tfs, doc_lengths, k1, b
        )
        self.vocabulary = dict(zip(terms, range(len(terms))))
        if len(self.vocabulary) != len(terms):
            raise ValueError("terms must be distinct")
        self._ordinal_by_id = dict(zip(doc_ids, range(len(doc_ids))))
        if len(self._ordinal_by_id) != len(doc_ids):
            raise ValueError("doc ids must be distinct")
        self.doc_ids = doc_ids
        self.titles = titles
        self.texts = texts
        self.terms = terms
        self.offsets = offsets
        self.ordinals = ordinals
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.doc_count = len(doc_ids)
        self.avg_doc_length = int(doc_lengths.sum()) / self.doc_count
        # Rank of each ordinal's doc_id in ascending string order, the tie-break.
        self.doc_id_rank = np.argsort(sorted(range(self.doc_count), key=doc_ids.__getitem__))
        self.postings = _Rows(offsets, ordinals)
        # idf by math.log, not np.log, once per distinct document frequency.
        n, df = self.doc_count, np.diff(offsets)
        idf_of_df = np.bincount(df).astype(np.float64)
        distinct = np.flatnonzero(idf_of_df)
        idf_of_df[distinct] = [math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in distinct.tolist()]
        norm = k1 * (1.0 - b + b * doc_lengths / self.avg_doc_length)
        # idf * tf * (k1 + 1) / (tf + norm), in place and the denominator block by block: the
        # same bits, and no temporary as long as the postings.
        impacts = np.repeat(idf_of_df[df], df)
        impacts *= tfs
        impacts *= k1 + 1.0
        for block in _blocks(len(ordinals), _BLOCK):
            denominator = norm[ordinals[block]]
            denominator += tfs[block]
            impacts[block] /= denominator
        self.impacts = impacts

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal_by_id[doc_id]

    def document(self, doc_id: str) -> Document:
        o = self._ordinal_by_id[doc_id]
        return Document(doc_id, self.titles[o], self.texts[o])


def _blocks(n: int, size: int) -> list[slice]:
    """``range(n)`` cut into slices ``size`` long, the last one shorter."""
    return [slice(i, i + size) for i in range(0, n, size)]


def _narrowest(a: np.ndarray) -> np.dtype:
    """The narrowest unsigned dtype that holds the largest value of ``a`` (uint8 if empty)."""
    return np.min_scalar_type(int(a.max(initial=0)))


def _narrow(a: np.ndarray) -> np.ndarray:
    """The non-negative integers ``a`` at their ``_narrowest`` unsigned dtype."""
    return a.astype(_narrowest(a))


def _check_narrowest(name: str, a: np.ndarray) -> None:
    """Raise ValueError unless ``a`` is 1-D, unsigned and at its ``_narrowest`` dtype."""
    if a.ndim != 1 or a.dtype.kind != "u" or a.dtype != _narrowest(a):
        want = _narrowest(a) if a.dtype.kind == "u" else "unsigned"
        raise ValueError(f"{name} must be a 1-D {want} array, got {a.ndim}-D {a.dtype}")


def _check_fit(n_docs, n_titles, texts, n_terms, offsets, ordinals, tfs, doc_lengths, k1, b):
    """Raise ValueError unless the CSR arrays pass ``_check_narrowest`` and fit the passages
    and terms, the passages have one title and one text each, and k1, b are valid. A document's
    tfs sum to its length, at most its text's code points: each token holds one, as only ``İ``
    lowercases to two (``i`` and a mark). So no tf outgrows the file, nor featurize's table."""
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError(f"k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if n_docs == 0:
        raise ValueError("cannot index an empty corpus")
    if not n_titles == len(texts) == n_docs:
        raise ValueError(f"{n_titles} titles and {len(texts)} texts for {n_docs} documents")
    for name, a in zip(_ARRAYS, (offsets, ordinals, tfs, doc_lengths)):
        _check_narrowest(name, a)
    if len(doc_lengths) != n_docs:
        raise ValueError(f"{len(doc_lengths)} document lengths for {n_docs} documents")
    if len(offsets) != n_terms + 1:
        raise ValueError(f"{len(offsets)} offsets for {n_terms} terms")
    if len(tfs) != len(ordinals) or offsets[0] != 0 or offsets[-1] != len(ordinals):
        raise ValueError("offsets must run from 0 to the number of postings")
    if np.any(offsets[1:] < offsets[:-1]):  # np.diff of unsigned offsets wraps around
        raise ValueError("offsets must be non-decreasing")
    if len(ordinals) and ordinals.max() >= n_docs:
        raise ValueError(f"posting ordinals must lie in [0, {n_docs})")
    if len(tfs) and tfs.min() < 1 or doc_lengths.min() < 1:
        raise ValueError("term frequencies and document lengths must be >= 1")
    lengths = np.zeros(n_docs)  # each block's bincount is n_docs long, so no block is shorter
    for block in _blocks(len(ordinals), max(_BLOCK, n_docs)):
        lengths += np.bincount(ordinals[block], tfs[block], minlength=n_docs)
    if np.any(lengths != doc_lengths):
        raise ValueError("each document's term frequencies must sum to its length")
    if np.any(doc_lengths > np.fromiter(map(len, texts), np.int64, n_docs)):
        raise ValueError("a document length must not exceed its text's length in code points")


def _checked(doc: Document, seen: set[str]) -> Document:
    """``doc``, its id added to ``seen``; an id already there or a text with no token raises.

    ``_TOKEN_RE.search(doc.text) is None`` exactly when ``tokenize(doc.text) == []``, with no
    lowercased copy: no code point's lowercase differs from it in holding an alphanumeric,
    and the one context rule of lowercasing turns ``Σ`` into ``σ`` or ``ς``, both alphanumeric.
    """
    if doc.doc_id in seen:
        raise DuplicateDocId(doc.doc_id)
    seen.add(doc.doc_id)
    if _TOKEN_RE.search(doc.text) is None:
        raise EmptyDocument(doc.doc_id)
    return doc


def _check_utf8(doc_ids, titles, texts) -> None:
    """Raise UnencodableDocument for the first document whose id, title or text UTF-8 cannot
    encode (a lone surrogate). Only a string that is not ASCII can hold a surrogate, and
    ``str.isascii`` reads a flag, so an ASCII corpus costs one call per string."""
    if all(map(str.isascii, chain(doc_ids, titles, texts))):
        return
    for fields in zip(doc_ids, titles, texts):
        for name, value in zip(("id", "title", "text"), fields):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise UnencodableDocument(fields[0], name, exc) from None


def build_index(
    docs: list[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> PostingsIndex:
    """Build a BM25 index; deterministic for identical input.

    Raises UnencodableDocument for an id, title or text that UTF-8 cannot
    encode, which no index file holds, and DuplicateDocId / EmptyDocument on
    other bad input, for the first bad document in input order. Term ids follow
    the first document a term appears in, then alphabetical order within that
    document, so rebuilding from the same corpus serializes byte-identically.
    The build works through ``_DOC_BLOCK`` documents at a time: beyond the
    index, its memory grows with the postings and one block's tokens.
    """
    doc_ids, titles = tuple(d.doc_id for d in docs), tuple(d.title for d in docs)
    texts = [d.text for d in docs]
    _check_utf8(doc_ids, titles, texts)
    if not docs:
        raise ValueError("cannot index an empty corpus")
    seen: set[str] = set()
    first_seen = defaultdict(count().__next__)  # each term's id in order of first sight
    new_terms_end, lengths = array("i"), array("i")  # vocabulary size, tokens: per document
    ordinal_type = np.min_scalar_type(len(docs) - 1)
    blocks = []  # each block's postings, as ``_block_postings`` gives them
    for start in range(0, len(docs), _DOC_BLOCK):
        term_ids = array("i")  # one first-sight id per token of the block
        for doc in docs[start : start + _DOC_BLOCK]:
            tokens = tokenize(_checked(doc, seen).text)
            term_ids.extend(map(first_seen.__getitem__, tokens))
            lengths.append(len(tokens))
            new_terms_end.append(len(first_seen))
        blocks.append(_block_postings(term_ids, lengths[start:], start, ordinal_type))
    # A term's final id: by the document it first appears in, then alphabetical there.
    terms = list(first_seen)
    by_final_id = [
        i
        for lo, hi in pairwise(chain((0,), new_terms_end))
        for i in sorted(range(lo, hi), key=terms.__getitem__)
    ]
    order = np.array(by_final_id, dtype=np.int64)  # the first-sight id of each final id
    df = np.zeros(len(terms), dtype=np.int64)  # by first-sight id, as ``free``
    for block_terms, runs, _, _ in blocks:
        df[block_terms] += runs
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(df[order], out=offsets[1:])
    # Each block's run of a term's postings takes the next free slots of the term's row, so
    # its ordinals stay ascending. The rows are written at their narrowest widths.
    free = np.empty(len(terms), dtype=np.int64)
    free[order] = offsets[:-1]
    ordinals = np.empty(offsets[-1], dtype=ordinal_type)
    tf_type = np.min_scalar_type(max(int(block[3].max()) for block in blocks))
    tfs = np.empty(offsets[-1], dtype=tf_type)
    for block_terms, runs, block_ordinals, block_tfs in blocks:
        # The i-th posting of a run that starts at s in the block goes to free + i - s.
        at = np.repeat(free[block_terms] - (np.cumsum(runs) - runs), runs)
        at += np.arange(len(at))
        ordinals[at], tfs[at] = block_ordinals, block_tfs
        free[block_terms] += runs
    del blocks
    doc_lengths = _narrow(np.array(lengths, dtype=np.int32))
    return PostingsIndex(
        doc_ids, titles, texts, tuple(map(terms.__getitem__, by_final_id)),
        _narrow(offsets), ordinals, tfs, doc_lengths, k1, b,
    )


def _block_postings(
    term_ids: array, lengths: array, start: int, ordinal_type: np.dtype
) -> tuple[np.ndarray, ...]:
    """The postings of the documents from ordinal ``start`` on, ``lengths`` tokens each, whose
    tokens' term ids are ``term_ids``: the distinct term ids, ascending, and the number of
    postings of each; then the postings' ordinals and tfs, by term id, then ordinal. One key
    ``term_id * n + ordinal`` per token: np.unique's keys are the postings, its counts the tfs.
    """
    n = len(lengths)
    keys = np.array(term_ids, dtype=np.int64)
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int32), np.array(lengths, dtype=np.int32))
    keys, tfs = np.unique(keys, return_counts=True)
    block_terms, runs = np.unique(keys // n, return_counts=True)
    return block_terms, runs, (keys % n + start).astype(ordinal_type), _narrow(tfs)


def bm25_scores(index: PostingsIndex, query_terms: list[str]) -> np.ndarray:
    """(doc_count,) BM25 scores of every document against the deduplicated query terms.

    Terms absent from the vocabulary contribute 0, so an empty query scores all zeros.
    This is the only BM25 scorer: ``retrieve`` and ``bm25_score`` read its array.
    """
    ids = [t for t in map(index.vocabulary.get, dict.fromkeys(query_terms)) if t is not None]
    rows = [slice(index.offsets[t], index.offsets[t + 1]) for t in ids]
    if not rows:
        return np.zeros(index.doc_count)
    ordinals = np.concatenate([index.ordinals[r] for r in rows])
    impacts = np.concatenate([index.impacts[r] for r in rows])
    # bincount adds each document's impacts in query-term order, as a loop would.
    return np.bincount(ordinals, weights=impacts, minlength=index.doc_count)


def top_ordinals(index: PostingsIndex, scores: np.ndarray, k: int) -> np.ndarray:
    """Ordinals of the top-k positive ``scores``, best first, ties by ascending doc_id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = np.flatnonzero(scores > 0.0)
    if len(hits) > k:  # keep every hit tied with the k-th best; the tie-break cuts
        hits = hits[scores[hits] >= np.partition(scores[hits], len(hits) - k)[len(hits) - k]]
    return hits[np.lexsort((index.doc_id_rank[hits], -scores[hits]))[:k]]


def bm25_score(index: PostingsIndex, query_terms: list[str], doc_ordinal: int) -> float:
    """BM25 score of one document against the query terms: its entry of ``bm25_scores``."""
    if not 0 <= doc_ordinal < index.doc_count:
        raise InvalidOrdinal(doc_ordinal, index.doc_count)
    return float(bm25_scores(index, query_terms)[doc_ordinal])


def retrieve(index: PostingsIndex, query: str, k: int) -> list[ScoredDoc]:
    """Top-k documents by BM25 for ``query``; zero-score documents are excluded.

    Ties are broken by ascending doc_id so results are reproducible.
    """
    scores = bm25_scores(index, tokenize(query))
    return [
        ScoredDoc(doc_id=index.doc_ids[o], score=float(scores[o]), rank=rank)
        for rank, o in enumerate(top_ordinals(index, scores, k).tolist(), start=1)
    ]


def _document(obj: dict) -> Document:
    obj.setdefault("title", "")
    return Document(*(field(obj, name) for name in ("id", "title", "text")))


def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Read a JSONL corpus of {"id", "title", "text"} objects ("title" optional).

    A repeated id or a text with no token raises build_index's DuplicateDocId or
    EmptyDocument, naming the file and the line; a file with no document raises
    EmptyCorpus, naming the file.
    """
    seen: set[str] = set()
    docs = read_jsonl(path, lambda obj: _checked(_document(obj), seen))
    if not docs:
        raise EmptyCorpus(path)
    return docs


def serialize_index(index: PostingsIndex) -> bytes:
    """Index format 4: an array file of the CSR arrays and the passage texts.

    The texts are one UTF-8 ``uint8`` member ``texts``, cut by the code-point
    offsets ``text_offsets``. Every other member is stored at its ``_narrowest``
    unsigned dtype, as ``build_index`` holds it. Its ``meta`` holds the build
    parameters, the terms in id order, and the passage ids and titles.
    Impacts are recomputed at load.
    """
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "build_params": {"tokenizer_version": TOKENIZER_VERSION, "k1": index.k1, "b": index.b},
        "terms": index.terms,
        "doc_ids": index.doc_ids,
        "titles": index.titles,
    }
    text_offsets = np.zeros(index.doc_count + 1, dtype=np.int64)
    np.cumsum([len(text) for text in index.texts], out=text_offsets[1:])
    texts = np.frombuffer("".join(index.texts).encode("utf-8"), dtype=np.uint8)
    arrays = {name: getattr(index, name) for name in _ARRAYS}
    return arrays_bytes(meta, {**arrays, "texts": texts, "text_offsets": _narrow(text_offsets)})


def _texts(blob: np.ndarray, offsets: np.ndarray, n_docs: int) -> list[str]:
    """The passage texts: ``blob`` decoded once, cut at the code-point ``offsets``.

    Raises ValueError unless ``blob`` is 1-D uint8 UTF-8 and ``offsets`` pass
    ``_check_narrowest``, ``n_docs + 1`` of them, running from 0 up to the
    decoded length.
    """
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise ValueError(f"texts must be a 1-D uint8 array, got {blob.ndim}-D {blob.dtype}")
    _check_narrowest("text_offsets", offsets)
    if len(offsets) != n_docs + 1:
        raise ValueError(f"{len(offsets)} text_offsets for {n_docs} documents")
    joined = str(blob.data, "utf-8")
    if offsets[0] != 0 or offsets[-1] != len(joined) or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError("text_offsets must run non-decreasing from 0 to the text length")
    bounds = offsets.tolist()
    return [joined[i:j] for i, j in zip(bounds, bounds[1:])]


def _index(meta: dict, members) -> PostingsIndex:
    params = meta["build_params"]
    if params["tokenizer_version"] != TOKENIZER_VERSION:
        raise UnknownFormatVersion(params["tokenizer_version"], TOKENIZER_VERSION, "tokenizer")
    doc_ids, titles, terms = (field(meta, key, many=True) for key in ("doc_ids", "titles", "terms"))
    texts = _texts(members["texts"], members["text_offsets"], len(doc_ids))
    arrays = (members[name] for name in _ARRAYS)
    k1, b = (field(params, name, float) for name in ("k1", "b"))
    return PostingsIndex(doc_ids, titles, texts, terms, *arrays, k1, b)


def save_index(index: PostingsIndex, path: str | Path) -> None:
    atomic_write({path: serialize_index(index)})


def load_index(path: str | Path) -> PostingsIndex:
    return read_arrays(path, INDEX_FORMAT_VERSION, _index)
