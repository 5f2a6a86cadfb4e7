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

from .corpus import PostingsIndex, retrieve
from .distill import RationaleRecord, extract_answer
from .errors import EmptyEvaluation, MissingSilver
from .records import read_jsonl

SILVER_K = 3


@dataclass(frozen=True)
class PredictionBundle:
    example_id: str
    generated_texts: tuple[str, ...]
    gold_answer: str


def build_silver(index: PostingsIndex, record: RationaleRecord, j_gold: int) -> tuple[str, ...]:
    """The doc ids of the top-3 retrieval with the designated gold rationale as the query.

    A rationale with no corpus overlap yields an empty silver set; such
    examples are excluded from Hits@k denominators and reported.
    """
    return tuple(sd.doc_id for sd in retrieve(index, record.rationales[j_gold], SILVER_K))


def hits_report(
    retrieved_lists: Mapping[str, Sequence[str]],
    silver_sets: Mapping[str, Sequence[str]],
    ks: Sequence[int],
    mode: str = "any",
) -> dict:
    """Hits@k at every cutoff in ``ks``, counted in one pass, plus evaluated / excluded counts.

    An example is a hit at k when its top k holds one silver document (mode="any") or
    all of them (mode="all"); one with an empty silver set is excluded and listed.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if mode not in ("any", "all"):
        raise ValueError(f"mode must be 'any' or 'all', got {mode!r}")
    hits = dict.fromkeys(ks, 0)
    excluded = []
    for example_id in sorted(retrieved_lists):
        if example_id not in silver_sets:
            raise MissingSilver(example_id)
        silver = set(silver_sets[example_id])
        if not silver:
            excluded.append(example_id)
            continue
        # A hit at every k from the rank of its first ("any") or last ("all") silver id.
        for rank, doc_id in enumerate(retrieved_lists[example_id], 1):
            if doc_id in silver:
                silver.remove(doc_id)
                if mode == "any" or not silver:
                    for k in hits:
                        hits[k] += rank <= k
                    break
    evaluated = len(retrieved_lists) - len(excluded)
    if evaluated == 0:
        raise EmptyEvaluation("all silver sets are empty")
    return {
        "hits": {str(k): n / evaluated for k, n in hits.items()},
        "mode": mode,
        "counts": {
            "examples": len(retrieved_lists),
            "evaluated": evaluated,
            "excluded_empty_silver": len(excluded),
        },
        "excluded": excluded,
    }


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
