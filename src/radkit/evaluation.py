"""Retrieval and answer evaluation.

Hits@k is measured against silver sets: the top-3 passages retrieved with
the gold rationale as the query stand in for ground-truth relevance.
Answer accuracy uses self-consistency majority voting over several
generated texts per example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .answers import extract_answer
from .corpus import PostingsIndex, retrieve
from .distill import RationaleRecord
from .errors import EmptyEvaluation, MissingSilver
from .records import read_jsonl

SILVER_K = 3


@dataclass(frozen=True)
class SilverSet:
    example_id: str
    silver_doc_ids: tuple[str, ...]


@dataclass(frozen=True)
class PredictionBundle:
    example_id: str
    generated_texts: tuple[str, ...]
    gold_answer: str


def build_silver(index: PostingsIndex, record: RationaleRecord, j_gold: int) -> SilverSet:
    """Top-3 retrieval with the designated gold rationale as the query.

    A rationale with no corpus overlap yields an empty silver set; such
    examples are excluded from Hits@k denominators and reported.
    """
    hits = retrieve(index, record.rationales[j_gold], SILVER_K)
    return SilverSet(record.example_id, tuple(sd.doc_id for sd in hits))


def hits_at_k(
    retrieved_lists: Mapping[str, Sequence[str]],
    silver_sets: Mapping[str, SilverSet],
    k: int,
    mode: str = "any",
) -> float:
    """Fraction of examples whose top-k retrieval intersects the silver set.

    mode="any" counts one overlapping document as a hit; mode="all"
    requires all silver documents in the top-k. Empty-silver examples are
    excluded from the denominator.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in ("any", "all"):
        raise ValueError(f"mode must be 'any' or 'all', got {mode!r}")
    hits = 0
    evaluated = 0
    for example_id in sorted(retrieved_lists):
        if example_id not in silver_sets:
            raise MissingSilver(example_id)
        silver = set(silver_sets[example_id].silver_doc_ids)
        if not silver:
            continue
        evaluated += 1
        top = set(list(retrieved_lists[example_id])[:k])
        if mode == "any":
            hits += bool(top & silver)
        else:
            hits += silver <= top
    if evaluated == 0:
        raise EmptyEvaluation("all silver sets are empty")
    return hits / evaluated


def hits_report(
    retrieved_lists: Mapping[str, Sequence[str]],
    silver_sets: Mapping[str, SilverSet],
    ks: Sequence[int],
    mode: str = "any",
) -> dict:
    """Hits@k for several cutoffs plus evaluated / excluded counts."""
    excluded = sorted(
        ex
        for ex in retrieved_lists
        if ex in silver_sets and not silver_sets[ex].silver_doc_ids
    )
    report = {
        "hits": {str(k): hits_at_k(retrieved_lists, silver_sets, k, mode) for k in ks},
        "mode": mode,
        "counts": {
            "examples": len(retrieved_lists),
            "evaluated": len(retrieved_lists) - len(excluded),
            "excluded_empty_silver": len(excluded),
        },
        "excluded": excluded,
    }
    return report


def majority_vote(bundle: PredictionBundle) -> str | None:
    """Most frequent extracted answer; ties break to the smallest letter.

    Texts without an extractable answer are ignored; if none has one,
    returns None (scored as incorrect downstream).
    """
    if not bundle.generated_texts:
        raise ValueError("prediction bundle has no generated texts")
    votes = Counter(
        letter
        for letter in (extract_answer(t) for t in bundle.generated_texts)
        if letter is not None
    )
    if not votes:
        return None
    best = max(votes.values())
    return min(letter for letter, n in votes.items() if n == best)


def accuracy(bundles: Sequence[PredictionBundle]) -> float:
    if not bundles:
        raise EmptyEvaluation("no prediction bundles")
    correct = sum(majority_vote(b) == b.gold_answer for b in bundles)
    return correct / len(bundles)


def _prediction_bundle(obj: dict) -> PredictionBundle:
    texts = obj["texts"]
    if not isinstance(texts, list) or not texts:
        raise ValueError('"texts" must be a non-empty list')
    return PredictionBundle(
        example_id=str(obj["id"]),
        generated_texts=tuple(str(t) for t in texts),
        gold_answer=str(obj["gold"]).strip().upper(),
    )


def load_predictions_jsonl(path: str | Path) -> list[PredictionBundle]:
    """Read {"id", "texts", "gold"} prediction bundles."""
    return read_jsonl(path, _prediction_bundle)
