"""Exhaustive BM25 scorer over the generator's token matrix.

It scores every passage for every query, with no inverted index and no
accumulator, from token ranks the generator drew rather than from the
index file. Per passage it adds the distinct query terms' contributions in
query order, as the BM25 definition in the README does, so its float scores
must equal the program's bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gen import Shape, Truth, doc_id, write_inputs

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_TERM_RE = re.compile(r"t(0|[1-9][0-9]*)")


class ExhaustiveBM25:
    def __init__(self, doc_tokens: np.ndarray, k1: float = 0.9, b: float = 0.4):
        n_docs, doc_len = doc_tokens.shape
        self.n_docs = n_docs
        self.vocab = int(doc_tokens.max()) + 1
        # Term-major (term, doc) pairs with their counts.
        keys, counts = np.unique(
            doc_tokens.astype(np.int64) * n_docs + np.arange(n_docs)[:, None], return_counts=True
        )
        self._terms = keys // n_docs
        self._docs = keys % n_docs
        self._tf = counts.astype(np.float64)
        self._start = np.searchsorted(self._terms, np.arange(self.vocab + 1))
        self.k1, self.b = k1, b
        dl = np.full(n_docs, float(doc_len))  # every generated passage has doc_len tokens
        avgdl = dl.sum() / n_docs
        self._norm = k1 * (1.0 - b + b * dl / avgdl)
        self.ids = np.array([doc_id(i) for i in range(n_docs)])

    def df(self, term: int) -> int:
        if term >= self.vocab:
            return 0
        return int(self._start[term + 1] - self._start[term])

    def query_terms(self, text: str) -> list[int]:
        """Distinct in-vocabulary term ranks in first-appearance order."""
        out = []
        for token in dict.fromkeys(t.lower() for t in _TOKEN_RE.findall(text)):
            m = _TERM_RE.fullmatch(token)
            if m and self.df(int(m.group(1))):
                out.append(int(m.group(1)))
        return out

    def scores(self, text: str) -> np.ndarray:
        total = np.zeros(self.n_docs)
        for term in self.query_terms(text):
            df = self.df(term)
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            lo, hi = self._start[term], self._start[term + 1]
            tf = np.zeros(self.n_docs)
            tf[self._docs[lo:hi]] = self._tf[lo:hi]
            total = total + idf * tf * (self.k1 + 1.0) / (tf + self._norm)
        return total

    def top(self, text: str, k: int) -> list[tuple[str, float]]:
        """Top-k (doc id, score) with zero scores excluded, ties by doc id."""
        s = self.scores(text)
        hit = np.flatnonzero(s > 0.0)
        order = hit[np.lexsort((self.ids[hit], -s[hit]))][:k]
        return [(str(self.ids[i]), float(s[i])) for i in order]


@dataclass(frozen=True)
class Planted:
    """The generator's truth plus the exhaustive scorer's answers the gate needs."""

    truth: Truth
    exact: list[tuple[str, list[tuple[str, float]]]]  # (query, top-k (doc id, score))
    top_ids: dict[str, frozenset[str]]  # question id -> doc ids of its top-k

    def to_json(self) -> str:
        return json.dumps({
            "truth": asdict(self.truth),
            "exact": self.exact,
            "top_ids": {qid: sorted(ids) for qid, ids in self.top_ids.items()},
        })

    @classmethod
    def from_json(cls, text: str) -> "Planted":
        """Inverse of ``to_json`` (JSON keeps every float's exact value)."""
        obj = json.loads(text)
        truth = obj["truth"]
        truth["loop_questions"] = [tuple(pair) for pair in truth["loop_questions"]]
        return cls(
            truth=Truth(**truth),
            exact=[(query, [tuple(hit) for hit in hits]) for query, hits in obj["exact"]],
            top_ids={qid: frozenset(ids) for qid, ids in obj["top_ids"].items()},
        )


def plant(out: Path, shape: Shape, seed: int, k: int) -> Planted:
    """Write the inputs and answer the gate's queries with the exhaustive scorer.

    The benchmark runs this in a child process (see ``main``), so that the
    token matrix and the scorer's arrays never count toward its own peak RSS.
    """
    truth, tokens = write_inputs(out, shape, seed)
    oracle = ExhaustiveBM25(tokens)
    with open(out / "rationales.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    # A sample of rationale, record-question and loop-question queries is
    # compared with retrieve() score for score.
    sample = [r["rationales"][0] for r in records[:3]] + [r["question"] for r in records[:3]]
    sample += [q for _, q in truth.loop_questions[:3]]
    questions = [(r["id"], r["question"]) for r in records] + truth.loop_questions
    return Planted(
        truth=truth,
        exact=[(query, oracle.top(query, k)) for query in sample],
        top_ids={qid: frozenset(d for d, _ in oracle.top(q, k)) for qid, q in questions},
    )


def main(argv: list[str]) -> None:
    """``oracle.py OUT SEED K SHAPE_JSON``: plant, then print the result as JSON."""
    out, seed, k, shape = argv
    print(plant(Path(out), Shape(**json.loads(shape)), int(seed), int(k)).to_json())


if __name__ == "__main__":
    main(sys.argv[1:])
