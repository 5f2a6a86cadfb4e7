"""Silver-set construction, Hits@k, majority voting, accuracy."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radkit.distill import extract_answer
from radkit.corpus import build_index, load_corpus_jsonl, retrieve
from radkit.distill import RationaleRecord, ingest_rationales
from radkit.errors import EmptyEvaluation, MissingSilver
from radkit.evaluation import (
    PredictionBundle,
    accuracy,
    build_silver,
    hits_report,
    load_predictions_jsonl,
    majority_vote,
)

from helpers import DATA_DIR, bm25_oracle_topk


@pytest.fixture(scope="module")
def med_docs():
    return load_corpus_jsonl(DATA_DIR / "corpus.jsonl")


@pytest.fixture(scope="module")
def med_index(med_docs):
    return build_index(med_docs)


class TestBuildSilver:
    def test_self_retrieval_ranks_first(self, med_docs):
        index = build_index(med_docs)
        target = med_docs[3]
        record = RationaleRecord("e", "q (A) x (B) y", "A", (target.text,))
        silver = build_silver(index, record, 0)
        assert silver[0] == target.doc_id

    def test_no_overlap_gives_empty_silver(self, med_index):
        record = RationaleRecord("e", "q (A) x (B) y", "A", ("zzzz qqqq plugh",))
        assert build_silver(med_index, record, 0) == ()

    def test_matches_exhaustive_scoring(self, med_index, med_docs):
        records = ingest_rationales(DATA_DIR / "rationales.jsonl")
        for record in records:
            silver = build_silver(med_index, record, 0)
            want = bm25_oracle_topk(
                med_docs, record.rationales[0], 3, med_index.k1, med_index.b
            )
            assert list(silver) == want


class TestHitsAtK:
    def test_full_overlap_is_one(self):
        retrieved = {"a": ["d1", "d2", "d3"], "b": ["d9", "d8"]}
        silver = {
            "a": ("d2",),
            "b": ("d8", "d9"),
        }
        assert hits_report(retrieved, silver, [3])["hits"]["3"] == 1.0

    def test_disjoint_is_zero(self):
        retrieved = {"a": ["d1"], "b": ["d2"]}
        silver = {"a": ("x",), "b": ("y",)}
        assert hits_report(retrieved, silver, [5])["hits"]["5"] == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            retrieved = {}
            silver = {}
            for e in range(int(rng.integers(2, 12))):
                ex = f"e{e}"
                pool = [f"d{i}" for i in range(20)]
                retrieved[ex] = list(rng.permutation(pool)[:10])
                silver[ex] = tuple(rng.choice(pool, size=3, replace=False))
            hits = hits_report(retrieved, silver, [1, 3, 10])["hits"]
            assert hits["1"] <= hits["3"] <= hits["10"]

    def test_missing_silver_raises(self):
        with pytest.raises(MissingSilver):
            hits_report({"a": ["d1"]}, {}, [1])

    def test_empty_silver_excluded_from_denominator(self):
        retrieved = {"a": ["d1"], "b": ["d9"]}
        silver = {"a": ("d1",), "b": ()}
        report = hits_report(retrieved, silver, [1])
        assert report["hits"]["1"] == 1.0
        assert report["counts"]["evaluated"] == 1
        assert report["counts"]["excluded_empty_silver"] == 1
        assert report["excluded"] == ["b"]

    def test_all_silver_mode_is_stricter(self):
        retrieved = {"a": ["d1", "d2"]}
        silver = {"a": ("d1", "d3")}
        assert hits_report(retrieved, silver, [2], mode="any")["hits"]["2"] == 1.0
        assert hits_report(retrieved, silver, [2], mode="all")["hits"]["2"] == 0.0

    def test_all_empty_silver_raises(self):
        with pytest.raises(EmptyEvaluation):
            hits_report({"a": ["d1"]}, {"a": ()}, [1])

    def test_identity_reranker_reproduces_bm25_hits(self, med_index):
        """A reranker echoing BM25 scores leaves Hits@k unchanged."""
        records = ingest_rationales(DATA_DIR / "rationales.jsonl")
        silver = {r.example_id: build_silver(med_index, r, 0) for r in records}
        bm25_lists = {
            r.example_id: [sd.doc_id for sd in retrieve(med_index, r.question, 10)]
            for r in records
        }
        # Rescoring by the BM25 score itself, then re-sorting with the same
        # tie-break, is the identity on the retrieved list.
        relisted = {
            ex: [
                doc_id
                for doc_id in sorted(
                    ids,
                    key=lambda d: (-retrieve_score(med_index, ids, d), d),
                )
            ]
            for ex, ids in bm25_lists.items()
        }
        ks = (1, 3, 10)
        want = hits_report(bm25_lists, silver, ks)["hits"]
        assert hits_report(relisted, silver, ks)["hits"] == want


RETRIEVED = {
    "a": ["d1", "d2", "d3"],
    "b": ["d4", "d5", "d6"],
    "c": ["d7", "d8", "d9"],
    "e": ["d1", "d1", "d2"],
}
PARTIAL = {"a": ("d1", "d3"), "b": ("d5", "x"), "c": ("d8", "d9", "d7"), "e": ("d1", "d2")}


def counts(examples, evaluated):
    return {
        "examples": examples,
        "evaluated": evaluated,
        "excluded_empty_silver": examples - evaluated,
    }


def per_cutoff_hits(retrieved, silver, k, mode):
    """Hits@k by its definition: one set test per evaluated example at one cutoff."""
    evaluated = [ex for ex in retrieved if silver[ex]]
    if mode == "any":
        hits = sum(bool(set(retrieved[ex][:k]) & set(silver[ex])) for ex in evaluated)
    else:
        hits = sum(set(silver[ex]) <= set(retrieved[ex][:k]) for ex in evaluated)
    return hits / len(evaluated)


class TestHitsReport:
    """Reports and errors of ``hits_report``; the expected values were recorded from
    the per-cutoff counter it replaces."""

    @pytest.mark.parametrize(
        "retrieved, silver, ks, mode, hits, want_counts, excluded",
        [
            pytest.param(
                RETRIEVED, {"a": ("d3",), "b": ("d9",), "c": ("d8", "d7"), "e": ("d2",)},
                [3, 1, 3, 2], "any", {"3": 0.75, "1": 0.25, "2": 0.25}, counts(4, 4), [],
                id="repeated-unsorted-cutoffs",
            ),
            pytest.param(
                RETRIEVED, {"a": ("d3",), "b": ("d9",), "c": ("d8",), "e": ("d2",)},
                [1, 10], "any", {"1": 0.0, "10": 0.75}, counts(4, 4), [],
                id="cutoff-past-the-list",
            ),
            pytest.param(
                RETRIEVED, PARTIAL, [1, 2, 3, 5], "all",
                {"1": 0.0, "2": 0.0, "3": 0.75, "5": 0.75}, counts(4, 4), [],
                id="all-partial-overlap",
            ),
            pytest.param(
                RETRIEVED, PARTIAL, [1, 2, 3, 5], "any",
                {"1": 0.75, "2": 1.0, "3": 1.0, "5": 1.0}, counts(4, 4), [],
                id="any-partial-overlap",
            ),
            pytest.param(
                RETRIEVED, {"a": ("d2",), "b": (), "c": ("d9",), "e": ()},
                [1, 2, 3], "any", {"1": 0.0, "2": 0.5, "3": 1.0}, counts(4, 2), ["b", "e"],
                id="empty-silver-among-full",
            ),
            pytest.param(
                {"a": RETRIEVED["a"], "c": RETRIEVED["c"]},
                {"a": ("d1",), "b": ("d4",), "c": ("x",), "z": ()},
                [1, 3], "any", {"1": 0.5, "3": 0.5}, counts(2, 2), [],
                id="silver-for-unretrieved-id",
            ),
        ],
    )
    def test_report(self, retrieved, silver, ks, mode, hits, want_counts, excluded):
        report = hits_report(retrieved, silver, ks, mode)
        assert report == {"hits": hits, "mode": mode, "counts": want_counts, "excluded": excluded}
        assert list(report["hits"]) == list(hits)

    @pytest.mark.parametrize(
        "retrieved, silver, ks, mode, error, message",
        [
            pytest.param(
                {"c": ["d1"], "a": ["d1"], "b": ["d1"]}, {"b": ("d1",)}, [1], "any",
                MissingSilver, "no silver set for example 'a'", id="first-missing-in-sorted-order",
            ),
            pytest.param(
                {"a": ["d1"], "b": ["d2"]}, {"a": (), "b": ()}, [1], "any",
                EmptyEvaluation, "all silver sets are empty", id="all-silver-empty",
            ),
            pytest.param(
                {}, {}, [1], "any", EmptyEvaluation, "all silver sets are empty", id="no-examples"
            ),
            pytest.param(
                {"a": ["d1"]}, {"a": ("d1",)}, [1, 0], "any",
                ValueError, "k must be >= 1, got 0", id="cutoff-zero",
            ),
            pytest.param(
                {"a": ["d1"]}, {"a": ("d1",)}, [-2], "any",
                ValueError, "k must be >= 1, got -2", id="cutoff-negative",
            ),
            pytest.param(
                {"a": ["d1"]}, {"a": ("d1",)}, [1], "some",
                ValueError, "mode must be 'any' or 'all', got 'some'", id="unknown-mode",
            ),
        ],
    )
    def test_single_fault_raises(self, retrieved, silver, ks, mode, error, message):
        with pytest.raises(error) as info:
            hits_report(retrieved, silver, ks, mode)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "silver, mode", [({}, "any"), ({"a": ()}, "any"), ({"a": ("d1",)}, "some")]
    )
    def test_cutoff_below_one_is_reported_first(self, silver, mode):
        """Every cutoff is checked before the mode and the examples."""
        with pytest.raises(ValueError) as info:
            hits_report({"a": ["d1"]}, silver, [2, 0], mode)
        assert str(info.value) == "k must be >= 1, got 0"

    @pytest.mark.parametrize(
        "silver, mode, error",
        [
            ({"a": ("d1",)}, "some", ValueError),
            ({}, "any", MissingSilver),
            ({"a": ()}, "any", EmptyEvaluation),
        ],
    )
    def test_no_cutoffs_gets_the_same_checks(self, silver, mode, error):
        with pytest.raises(error):
            hits_report({"a": ["d1"]}, silver, [], mode)

    def test_no_cutoffs_reports_the_counts(self):
        report = hits_report({"a": ["d1"], "b": ["d2"]}, {"a": ("d1",), "b": ()}, [])
        assert report == {"hits": {}, "mode": "any", "counts": counts(2, 1), "excluded": ["b"]}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_cutoff_definition(self, data):
        ids = st.sampled_from(["d0", "d1", "d2", "d3", "d4", "d5"])
        examples = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1, unique=True))
        retrieved = {ex: data.draw(st.lists(ids, max_size=6)) for ex in examples}
        silver = {ex: tuple(data.draw(st.lists(ids, max_size=3, unique=True))) for ex in examples}
        ks = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
        mode = data.draw(st.sampled_from(["any", "all"]))
        if not any(silver.values()):
            with pytest.raises(EmptyEvaluation):
                hits_report(retrieved, silver, ks, mode)
            return
        report = hits_report(retrieved, silver, ks, mode)
        assert report["hits"] == {str(k): per_cutoff_hits(retrieved, silver, k, mode) for k in ks}


def retrieve_score(index, ids, doc_id):
    # Helper for the identity-reranker check: rank position encodes score order.
    return -ids.index(doc_id)


class TestVoting:
    def test_majority_wins(self):
        bundle = PredictionBundle("e", ("x Answer: B", "y Answer: B", "z Answer: A"), "B")
        assert majority_vote(bundle) == "B"

    def test_tie_breaks_to_smallest_letter(self):
        bundle = PredictionBundle("e", ("x Answer: A", "y Answer: B"), "A")
        assert majority_vote(bundle) == "A"

    def test_all_unextractable_returns_none(self):
        bundle = PredictionBundle("e", ("nothing", "still nothing"), "A")
        assert majority_vote(bundle) is None

    def test_unextractable_votes_ignored(self):
        bundle = PredictionBundle("e", ("no marker", "ok Answer: C"), "C")
        assert majority_vote(bundle) == "C"

    def test_order_invariant_up_to_tiebreak(self):
        texts = ("p Answer: B", "q Answer: A", "r Answer: B")
        a = majority_vote(PredictionBundle("e", texts, "B"))
        b = majority_vote(PredictionBundle("e", texts[::-1], "B"))
        assert a == b == "B"

    def test_shared_extractor(self):
        assert extract_answer("conclusion. Answer: D") == "D"


class TestAccuracy:
    def test_all_correct(self):
        bundles = [PredictionBundle(f"e{i}", (f"t Answer: A",), "A") for i in range(3)]
        assert accuracy(bundles) == 1.0

    def test_three_of_four(self):
        bundles = [
            PredictionBundle("e1", ("Answer: A",), "A"),
            PredictionBundle("e2", ("Answer: B",), "B"),
            PredictionBundle("e3", ("Answer: C",), "C"),
            PredictionBundle("e4", ("Answer: A",), "D"),
        ]
        assert accuracy(bundles) == 0.75

    def test_none_counts_as_incorrect(self):
        bundles = [PredictionBundle("e1", ("no marker",), "A")]
        assert accuracy(bundles) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluation):
            accuracy([])

    def test_load_predictions(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"id": "e1", "texts": ["because ... Answer: B"], "gold": "b"},
            {"id": "e2", "texts": ["Answer: A", "Answer: C"], "gold": "A"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        bundles = load_predictions_jsonl(path)
        assert bundles[0].gold_answer == "B"
        assert accuracy(bundles) == 1.0
