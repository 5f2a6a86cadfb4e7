"""Seeded synthetic inputs with planted relevance.

The corpus is ``docs`` passages of ``doc_len`` tokens drawn from a Zipf
distribution over a ``vocab``-term vocabulary (term ``t<r>`` has rank r).
Every record picks one gold passage and draws its question and rationale
terms from that passage's tokens, so BM25 finds the gold passage and
Hits@k is non-zero. A known set of rationales declares a wrong answer, so
the answer-match filter drops a known count. Prediction bundles carry
split votes with a known majority, so accuracy lies strictly between 0
and 1. The score file gives every question's gold passage the highest
external score.

Everything here is a pure function of the arguments; the program under
test only ever sees the files written by :func:`write_inputs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LETTERS = "ABCD"
OPTIONS = " (A) alpha (B) beta (C) gamma (D) delta"


@dataclass(frozen=True)
class Shape:
    docs: int
    records: int
    loop_questions: int
    predictions: int
    # The first this many loop questions also go to the rerank-infer stage
    # (``infer_questions.jsonl``), so that it runs tens of queries a pass.
    infer_questions: int = 0
    rationales_per_record: int = 3
    wrong_rationales: int = 1  # per record: known filter drops
    doc_len: int = 80
    vocab: int = 30000
    zipf_s: float = 1.2
    question_terms: int = 15
    rationale_terms: int = 40


@dataclass(frozen=True)
class Truth:
    """What the generator planted, for the correctness gate."""

    record_ids: list[str]
    kept_rationales: int
    dropped_rationales: int
    correct_bundles: int
    predictions: int
    loop_questions: list[tuple[str, str]]  # (id, question) for the query loop


def doc_id(i: int) -> str:
    return f"d{i:06d}"


def _words(ranks: np.ndarray) -> str:
    return " ".join(f"t{r}" for r in ranks.tolist())


def write_inputs(out: Path, shape: Shape, seed: int) -> tuple[Truth, np.ndarray]:
    """Write corpus, rationales, loop-question, predictions and score files.

    Returns what was planted and the (docs, doc_len) matrix of term ranks
    the corpus was drawn from. The query loop's questions are also returned
    in ``Truth``: the benchmark passes them to ``radkit.rerank_inference``
    directly, and ``infer_questions.jsonl`` gives the first
    ``shape.infer_questions`` of them to the ``rerank-infer`` stage.
    """
    rng = np.random.default_rng([seed, shape.docs])
    ranks = np.arange(1, shape.vocab + 1, dtype=np.float64)
    probs = ranks ** -shape.zipf_s
    probs /= probs.sum()
    tokens = rng.choice(shape.vocab, size=(shape.docs, shape.doc_len), p=probs)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(shape.docs):
            fh.write(
                json.dumps({"id": doc_id(i), "title": f"passage {i}", "text": _words(tokens[i])})
                + "\n"
            )

    def question_about(gold: int) -> str:
        terms = rng.choice(tokens[gold], size=shape.question_terms)
        return _words(terms) + OPTIONS

    n_q = shape.records + shape.loop_questions
    golds = rng.choice(shape.docs, size=n_q, replace=False)
    record_ids = [f"r{i:05d}" for i in range(shape.records)]
    kept = dropped = 0
    with open(out / "rationales.jsonl", "w", encoding="utf-8") as fh:
        for i, rid in enumerate(record_ids):
            gold = int(golds[i])
            answer = LETTERS[int(rng.integers(len(LETTERS)))]
            wrong = set(
                rng.choice(shape.rationales_per_record, size=shape.wrong_rationales, replace=False)
                .tolist()
            )
            rationales = []
            for j in range(shape.rationales_per_record):
                declared = answer
                if j in wrong:
                    declared = LETTERS[(LETTERS.index(answer) + 1 + int(rng.integers(3))) % 4]
                    dropped += 1
                else:
                    kept += 1
                body = _words(rng.choice(tokens[gold], size=shape.rationale_terms))
                rationales.append(f"{body} Answer: {declared}")
            record = {
                "id": rid,
                "question": question_about(gold),
                "answer": answer,
                "rationales": rationales,
            }
            fh.write(json.dumps(record) + "\n")

    loop_questions = [
        (f"q{i:05d}", question_about(int(golds[shape.records + i])))
        for i in range(shape.loop_questions)
    ]
    with open(out / "infer_questions.jsonl", "w", encoding="utf-8") as fh:
        for qid, question in loop_questions[: shape.infer_questions]:
            fh.write(json.dumps({"id": qid, "question": question}) + "\n")
    # External scores: the gold passage outranks three decoys per question.
    with open(out / "scores.jsonl", "w", encoding="utf-8") as fh:
        ids = record_ids + [qid for qid, _ in loop_questions]
        for qid, gold in zip(ids, golds.tolist()):
            fh.write(json.dumps({"id": qid, "doc_id": doc_id(gold), "score": 5.0}) + "\n")
            for decoy in rng.choice(shape.docs, size=3).tolist():
                if decoy != gold:
                    score = round(float(rng.uniform(0.0, 4.0)), 6)
                    fh.write(json.dumps({"id": qid, "doc_id": doc_id(decoy), "score": score}) + "\n")

    # Split votes: 3 of 5 for the winner, 2 for the runner-up, so no ties.
    correct = 0
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for p in range(shape.predictions):
            gold, other = rng.choice(len(LETTERS), size=2, replace=False).tolist()
            wins = p % 5 < 3
            correct += wins
            winner, loser = (gold, other) if wins else (other, gold)
            votes = [winner] * 3 + [loser] * 2
            texts = [
                f"{_words(rng.choice(shape.vocab, size=8, p=probs))} Answer: {LETTERS[v]}"
                for v in rng.permutation(votes).tolist()
            ]
            fh.write(json.dumps({"id": f"p{p:05d}", "texts": texts, "gold": LETTERS[gold]}) + "\n")

    truth = Truth(
        record_ids=record_ids,
        kept_rationales=kept,
        dropped_rationales=dropped,
        correct_bundles=correct,
        predictions=shape.predictions,
        loop_questions=loop_questions,
    )
    return truth, tokens
