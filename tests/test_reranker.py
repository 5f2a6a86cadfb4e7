"""Reranker scoring, distillation objective, gradients, and inference."""

import gc
import json
import math
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radkit import reranker
from radkit.corpus import (
    Document,
    bm25_score,
    bm25_scores,
    build_index,
    load_corpus_jsonl,
    retrieve,
    tokenize,
    top_ordinals,
)
from radkit.distill import RationaleRecord, ingest_rationales, retrieve_knowledge
from radkit.errors import (
    DegenerateCandidateSet,
    EmptyCandidates,
    NonPositiveTemperature,
)
from radkit.reranker import (
    CandidateSet,
    FileScorer,
    RerankerModel,
    _slot_sign,
    build_candidate_set,
    candidates_jsonl_text,
    doc_rows,
    featurize,
    kl_loss,
    load_model,
    loss_gradient,
    read_candidates_jsonl,
    rerank_batch,
    rerank_inference,
    save_model,
    serialize_model,
    softmax_normalize,
    train,
)

from helpers import (
    DATA_DIR,
    convergence_fixture,
    convergence_targets,
    model_scores,
    padded_fixture,
    random_reranker_fixture,
    reference_featurize,
    reference_rerank_inference,
    reference_slot_sign,
    reference_train,
    text_index,
    unchecked_checkpoint,
    with_meta,
)


def finite_difference_gradient(model, cs, tau1, tau2, index, h=1e-5):
    """Central differences over every model parameter."""

    def loss_with(query_projection, doc_projection, bias):
        probe = RerankerModel(
            model.embedding_dim, model.hash_seed, query_projection, doc_projection, bias
        )
        return loss_gradient(probe, cs, tau1, tau2, index)[0]

    d_query = np.zeros_like(model.query_projection)
    d_doc = np.zeros_like(model.doc_projection)
    for grad, base in ((d_query, model.query_projection), (d_doc, model.doc_projection)):
        for idx in np.ndindex(base.shape):
            bumped = base.copy()
            bumped[idx] = base[idx] + h
            if base is model.query_projection:
                hi = loss_with(bumped, model.doc_projection, model.bias)
            else:
                hi = loss_with(model.query_projection, bumped, model.bias)
            bumped[idx] = base[idx] - h
            if base is model.query_projection:
                lo = loss_with(bumped, model.doc_projection, model.bias)
            else:
                lo = loss_with(model.query_projection, bumped, model.bias)
            grad[idx] = (hi - lo) / (2 * h)
    hi = loss_with(model.query_projection, model.doc_projection, model.bias + h)
    lo = loss_with(model.query_projection, model.doc_projection, model.bias - h)
    return d_query, d_doc, (hi - lo) / (2 * h)


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    a = np.asarray(analytic, dtype=float).ravel()
    b = np.asarray(numeric, dtype=float).ravel()
    scale = np.maximum(np.abs(a), np.abs(b))
    assert np.all(np.abs(a - b) <= atol + rtol * scale), (
        f"max deviation {np.max(np.abs(a - b) - rtol * scale)}"
    )


# Single-token words with non-ASCII letters and digits, drawn from a few so that terms repeat.
WORDS = st.sampled_from(
    ["a", "B", "ab", "é", "Straße", "ΩMEGA", "жук", "中文", "x٣", "a1", "zz", "q"]
)


class TestFeaturize:
    def test_empty_text_is_zero_vector(self):
        assert not featurize("", 64, 0).any()

    def test_deterministic(self):
        a = featurize("graves disease methimazole", 64, 3)
        b = featurize("graves disease methimazole", 64, 3)
        assert np.array_equal(a, b)

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(50)]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=int(rng.integers(0, 12))))
            norm = np.linalg.norm(featurize(text, 32, 1))
            assert norm == pytest.approx(0.0, abs=1e-9) or norm == pytest.approx(1.0, abs=1e-9)

    def test_token_order_irrelevant(self):
        assert np.array_equal(featurize("a b c", 32, 0), featurize("c a b", 32, 0))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        texts=st.lists(st.lists(WORDS, min_size=1, max_size=12), min_size=1, max_size=8),
        dim=st.sampled_from([1, 2, 8, 256]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_index_rows_equal_featurize_bit_for_bit(self, data, texts, dim, seed):
        """Rows of any distinct ordinals, in any order, from one index called twice."""
        docs = [Document(f"d{i}", "", " ".join(words)) for i, words in enumerate(texts)]
        index = build_index(docs)
        for _ in range(2):
            order = data.draw(st.permutations(range(len(docs))))
            ordinals = order[: data.draw(st.integers(1, len(docs)))]
            want = [reference_featurize(docs[o].text, dim, seed) for o in ordinals]
            assert np.array_equal(want, [featurize(docs[o].text, dim, seed) for o in ordinals])
            assert doc_rows(index, ordinals, dim, seed).tobytes() == np.stack(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        terms=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
            max_size=20,
        ),
        dim=st.sampled_from([1, 3, 256, 257, 1000]),
        seed=st.integers(-(2**63), -1) | st.integers(2**63, 2**80) | st.integers(0, 9),
    )
    def test_slot_sign_table_equals_the_per_term_hash(self, terms, dim, seed):
        """Slots read little-endian from bytes 0-7, signs from byte 8, for any text and seed."""
        terms += ["é", "Straße", "жук", "中文"]
        slots, signs = _slot_sign(terms, dim, seed)
        assert slots.dtype == np.int64 and signs.dtype == np.float64
        want = [reference_slot_sign(term, dim, seed) for term in terms]
        assert list(zip(slots.tolist(), signs.tolist())) == want

    @pytest.mark.parametrize(
        "text", ["fever " * 1200 + "chills", "fever " * 5000 + "chills " * 1000, "-- ,.; !?", ""]
    )
    def test_large_term_frequency_and_no_terms_equal_the_reference(self, text):
        """ln(1 + tf) comes from a table over 0..max tf; a text with no terms is all zero."""
        want = reference_featurize(text, 64, 3).tobytes()
        assert featurize(text, 64, 3).tobytes() == want
        if tokenize(text):
            index = build_index([Document("d", "", text), Document("e", "", "rest")])
            assert doc_rows(index, [0], 64, 3).tobytes() == want

    @pytest.mark.parametrize(
        "ordinals", [[0, 0, 1], [1, 0, 1], [-1], [0, -1]], ids=["0-0-1", "1-0-1", "-1", "0--1"]
    )
    def test_repeated_or_negative_ordinals_rejected(self, med_index, ordinals):
        """Rows are assigned by ordinal, so a repeat would leave a zero row and -1 would wrap."""
        with pytest.raises(ValueError, match="ordinals must be"):
            doc_rows(med_index, ordinals, 64, 0)
        with pytest.raises(ValueError, match="ordinals must be"):
            model_scores(RerankerModel.identity(64, 0), "thyroid hormone", med_index, ordinals)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_embedding_dim_below_one_rejected(self, med_index, dim):
        """The same message as RerankerModel's, not a division by zero or an overflow."""
        for text in ("a b", "a", ""):
            with pytest.raises(ValueError, match=f"embedding dim must be >= 1, got {dim}"):
                featurize(text, dim, 0)
        with pytest.raises(ValueError, match=f"embedding dim must be >= 1, got {dim}"):
            doc_rows(med_index, [0, 1], dim, 0)

    def test_scored_index_is_not_kept_alive(self):
        """A model holds only its parameters, so it keeps no index it has scored alive."""
        model = RerankerModel.identity(8, 1)
        index = text_index({"a": "fever chills", "b": "rest fever"})
        model_scores(model, "fever", index, [0, 1])
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        words=st.lists(WORDS, max_size=30),
        dim=st.sampled_from([1, 2, 8, 256]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_shuffled_tokens_featurize_bit_for_bit_alike(self, data, words, dim, seed):
        shuffled = data.draw(st.permutations(words))
        want = reference_featurize(" ".join(words), dim, seed).tobytes()
        assert featurize(" ".join(words), dim, seed).tobytes() == want
        assert featurize(" ".join(shuffled), dim, seed).tobytes() == want


class TestScore:
    def test_empty_query_scores_bias(self):
        model = RerankerModel(16, 0, np.eye(16), np.eye(16), bias=2.5)
        assert model_scores(model, "", text_index({"d": "some document text"}), [0])[0] == 2.5

    def test_identity_self_similarity_is_one(self):
        model = RerankerModel.identity(embedding_dim=32)
        text = "fever chills malaria"
        assert model_scores(model, text, text_index({"d": text}), [0])[0] == pytest.approx(1.0)

    def test_bag_of_terms_order_invariance(self):
        model = RerankerModel.identity(embedding_dim=32)
        q = "does fever respond to rest"
        ab, ba = model_scores(model, q, text_index({"ab": "a b", "ba": "b a"}), [0, 1])
        assert ab == ba

    def test_batch_matches_one_document_at_a_time(self):
        rng = np.random.default_rng(21)
        model = RerankerModel(
            embedding_dim=16,
            hash_seed=3,
            query_projection=rng.normal(0, 1, (16, 16)),
            doc_projection=rng.normal(0, 1, (16, 16)),
            bias=0.7,
        )
        words = ["fever", "rest", "thyroid", "iodine", "malaria", "chills", "dose"]
        docs = [" ".join(rng.choice(words, size=int(rng.integers(0, 9)))) for _ in range(25)]
        index = text_index({f"d{i}": d for i, d in enumerate(docs) if d})  # an empty text has no row
        q = "fever dose for malaria"
        batch = model_scores(model, q, index, range(index.doc_count))
        single = np.array([model_scores(model, q, index, [o])[0] for o in range(index.doc_count)])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12)


class TestSoftmax:
    def test_equal_scores_give_uniform(self):
        assert softmax_normalize([3.7, 3.7], tau=0.3) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_pinned_quarter_three_quarters(self):
        probs = softmax_normalize([0.0, math.log(3)], tau=1.0)
        assert probs[0] == pytest.approx(0.25, abs=1e-12)
        assert probs[1] == pytest.approx(0.75, abs=1e-12)

    def test_huge_temperature_approaches_uniform(self):
        for p in softmax_normalize([5.0, -3.0, 0.7, 2.2], tau=1e6):
            assert abs(p - 0.25) <= 1e-3

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            scores = rng.normal(0, 3, size=int(rng.integers(2, 9)))
            tau = float(rng.uniform(0.1, 50))
            shifted = softmax_normalize(list(scores + 17.3), tau)
            plain = softmax_normalize(list(scores), tau)
            assert np.allclose(plain, shifted, atol=1e-9)

    def test_positive_scaling_preserves_argmax(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            scores = rng.normal(0, 2, size=6)
            c = float(rng.uniform(0.01, 100))
            a = softmax_normalize(list(scores), 2.0)
            b = softmax_normalize(list(scores * c), 2.0)
            assert int(np.argmax(a)) == int(np.argmax(b))

    def test_rows_normalize_separately_and_neg_inf_gets_zero(self):
        probs = softmax_normalize([[0.0, math.log(3), -math.inf], [2.0, 2.0, 2.0]], tau=1.0)
        np.testing.assert_allclose(probs, [[0.25, 0.75, 0.0], [1 / 3] * 3], rtol=0, atol=1e-12)
        assert probs[0, 2] == 0.0

    def test_row_without_finite_score_rejected(self):
        with pytest.raises(ValueError):
            softmax_normalize([[1.0, 2.0], [-math.inf, -math.inf]], tau=1.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            softmax_normalize([1.0, 2.0], tau=0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, tau):
        with pytest.raises(NonPositiveTemperature, match="must be finite and > 0"):
            softmax_normalize([1.0, 2.0], tau=tau)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            softmax_normalize([], tau=1.0)

    def test_gap_past_the_float_range_gets_zero_without_a_warning(self):
        """The suite turns RuntimeWarning into an error, so an overflow warning fails here."""
        probs = softmax_normalize([[1e308, -1e308], [-1e308, 0.0]], tau=1.0)
        assert probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_quotient_past_the_float_range_takes_the_zero_temperature_limit(self):
        """Rows whose highest score / tau overflows split the mass over their highest scores.

        The other rows keep the bits of the plain max-subtracted softmax.
        """
        tau = 1e-307
        scores = [
            [30.0, 2.0, 30.0, -math.inf],
            [-1e308, -1.5e308, -1e308, -1e308],
            [1e-307, 0.0, -1e-307, 5e-308],
            [-1.0, -3.0, -math.inf, -1.0],
        ]
        probs = softmax_normalize(scores, tau)
        assert probs[:2].tolist() == [[0.5, 0.0, 0.5, 0.0], [1 / 3, 0.0, 1 / 3, 1 / 3]]
        for row, got in zip(scores[2:], probs[2:]):
            z = np.array(row) / tau
            e = np.exp(z - z.max())
            assert got.tobytes() == (e / e.sum()).tobytes()

    def test_row_holding_an_infinite_score_stays_nan(self):
        """Training's divergence check reads the NaN."""
        with np.errstate(invalid="ignore"):
            probs = softmax_normalize([[math.inf, 1.0], [1e308, 1.0]], tau=1e-10)
        assert np.isnan(probs[0]).all() and probs[1].tolist() == [1.0, 0.0]


class TestKlLoss:
    def test_identical_distributions_zero(self):
        q = softmax_normalize([1.0, 2.0, 3.0], 1.0)
        assert kl_loss(q, q) == 0.0

    def test_point_mass_versus_uniform_is_ln2(self):
        assert kl_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            q = softmax_normalize(list(rng.normal(0, 3, n)), float(rng.uniform(0.2, 5)))
            p = softmax_normalize(list(rng.normal(0, 3, n)), float(rng.uniform(0.2, 5)))
            assert kl_loss(q, p) >= 0.0

    def test_zero_iff_equal(self):
        q = softmax_normalize([0.0, 1.0, 2.0], 1.0)
        p = softmax_normalize([0.0, 1.0, 2.0 + 1e-4], 1.0)
        assert kl_loss(q, p) > 0.0
        assert max(abs(a - b) for a, b in zip(q, q)) < 1e-9

    def test_rows_take_zero_log_zero_as_zero(self):
        losses = kl_loss([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        assert losses[0] == pytest.approx(math.log(2), abs=1e-12)
        assert losses[1] == math.inf and losses[2] == 0.0

    def test_missing_student_mass_diverges(self):
        assert kl_loss([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestLossGradient:
    def test_stationary_at_matching_distributions(self):
        """Teacher scores equal to the student logits at equal temperatures."""
        model = RerankerModel.identity(embedding_dim=16)
        question = "which treatment helps"
        index = text_index({"a": "one passage", "b": "another text here", "c": "third entry"})
        logits = [model_scores(model, question, index, [o])[0] for o in range(3)]
        cs = CandidateSet("e", 0, question, ("a", "b", "c"), tuple(logits))
        loss, (d_query, d_doc, d_bias) = loss_gradient(model, cs, tau1=2.0, tau2=2.0, index=index)
        assert loss == 0.0
        assert not d_query.any()
        assert not d_doc.any()
        assert d_bias == 0.0

    def test_three_candidate_fixture_matches_central_differences(self):
        rng = np.random.default_rng(33)
        model = RerankerModel(
            embedding_dim=10,
            hash_seed=4,
            query_projection=rng.normal(0, 0.7, (10, 10)),
            doc_projection=rng.normal(0, 0.7, (10, 10)),
            bias=0.3,
        )
        index = text_index({"a": "alpha beta", "b": "gamma delta beta", "c": "epsilon zeta"})
        cs = CandidateSet("e", 0, "beta zeta query", ("a", "b", "c"), (2.0, 0.5, -1.0))
        tau1, tau2 = 1.0, 100.0
        _, (d_query, d_doc, d_bias) = loss_gradient(model, cs, tau1, tau2, index)
        fd_q, fd_d, fd_b = finite_difference_gradient(model, cs, tau1, tau2, index)
        assert_gradients_close(d_query, fd_q)
        assert_gradients_close(d_doc, fd_d)
        assert abs(d_bias - fd_b) <= 1e-9

    def test_bias_gradient_vanishes(self):
        """Both distributions sum to one, so the bias partial cancels."""
        rng = np.random.default_rng(77)
        for _ in range(10):
            model, cs, index = random_reranker_fixture(rng, embedding_dim=8)
            _, (_, _, d_bias) = loss_gradient(model, cs, 1.0, 100.0, index)
            assert abs(d_bias) <= 1e-12

    def test_random_fixtures_match_central_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            model, cs, index = random_reranker_fixture(rng, embedding_dim=8)
            tau1 = float(rng.uniform(0.5, 3))
            tau2 = float(rng.uniform(0.5, 120))
            _, (d_query, d_doc, d_bias) = loss_gradient(model, cs, tau1, tau2, index)
            fd_q, fd_d, fd_b = finite_difference_gradient(model, cs, tau1, tau2, index)
            assert_gradients_close(d_query, fd_q)
            assert_gradients_close(d_doc, fd_d)
            assert abs(d_bias - fd_b) <= 1e-9


class TestTrain:
    def test_zero_learning_rate_changes_nothing(self):
        model, sets, index = convergence_fixture()
        trained, trace = train(model, sets, index, epochs=3, lr=0.0)
        assert np.array_equal(trained.query_projection, model.query_projection)
        assert np.array_equal(trained.doc_projection, model.doc_projection)
        assert trained.bias == model.bias
        assert len(set(trace)) == 1

    def test_separable_fixture_converges(self):
        model, sets, index = convergence_fixture()
        trained, trace = train(model, sets, index, epochs=50, lr=1e-2, tau1=1.0, tau2=100.0)
        assert trace[-1] < trace[0]
        assert trace[-1] <= 0.5 * trace[0]
        targets = convergence_targets()
        aligned = 0
        for cs, target in zip(sets, targets):
            ordinals = [index.ordinal(d) for d in cs.doc_ids]
            logits = model_scores(trained, cs.question, index, ordinals)
            aligned += int(np.argmax(logits)) == target
        assert aligned >= 9

    def test_same_seed_bit_identical(self):
        model, sets, index = convergence_fixture()
        a, _ = train(model, sets, index, epochs=5, lr=1e-2)
        b, _ = train(model, sets, index, epochs=5, lr=1e-2)
        assert a.query_projection.tobytes() == b.query_projection.tobytes()
        assert a.doc_projection.tobytes() == b.doc_projection.tobytes()
        assert a.bias == b.bias

    def test_trace_entry_is_loss_after_that_many_epochs(self):
        model, sets, index = convergence_fixture()
        _, trace = train(model, sets, index, epochs=6, lr=1e-2)
        assert len(trace) == 7
        for e in range(7):
            _, shorter = train(model, sets, index, epochs=e, lr=1e-2)
            assert trace[e] == shorter[-1]

    @pytest.mark.parametrize(
        "fixture, epochs, lr, tau2",
        [(convergence_fixture, 50, 1e-2, 100.0), (padded_fixture, 20, 1e-1, 5.0)],
        ids=["convergence", "padded"],
    )
    def test_matches_per_set_reference(self, fixture, epochs, lr, tau2):
        """The batched pass sums in another order, so agreement is to 1e-12 relative."""
        model, sets, index = fixture()
        got, got_trace = train(model, sets, index, epochs, lr, tau1=1.0, tau2=tau2)
        want, want_trace = reference_train(model, sets, index, epochs, lr, 1.0, tau2)
        for name in ("query_projection", "doc_projection"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name
        # The bias gradient cancels to rounding noise, so the bias is compared on the logit scale.
        assert abs(got.bias - want.bias) <= 1e-12 * max(abs(want.bias), 1.0)
        np.testing.assert_allclose(got_trace, want_trace, rtol=1e-12, atol=0.0)
        assert got.step == want.step == epochs

    @pytest.mark.parametrize("lr, tau2", [(1e-2, 1e-300), (1e300, 100.0)], ids=["tau2", "lr"])
    def test_divergence_shows_in_the_trace_not_as_a_warning(self, lr, tau2):
        model, sets, index = convergence_fixture()
        trained, trace = train(model, sets, index, epochs=3, lr=lr, tau2=tau2)
        assert not all(map(math.isfinite, trace))
        with pytest.raises(ValueError, match="model weights must be finite"):
            serialize_model(trained)

    def test_small_step_does_not_increase_single_set_loss(self):
        rng = np.random.default_rng(13)
        model, cs, index = random_reranker_fixture(rng, embedding_dim=8)
        before = loss_gradient(model, cs, 1.0, 10.0, index)[0]
        trained, _ = train(model, [cs], index, epochs=1, lr=1e-4, tau1=1.0, tau2=10.0)
        after = loss_gradient(trained, cs, 1.0, 10.0, index)[0]
        assert after <= before + 1e-15


@pytest.fixture(scope="module")
def med_index():
    return build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl"))


@pytest.fixture(scope="module")
def med_record():
    return RationaleRecord(
        "ex-01",
        "A patient with weight loss, tachycardia, and goiter. "
        "Best drug?\n\nA. Levothyroxine B. Methimazole C. Prednisone D. Amoxicillin",
        "B",
        (
            "Hyperthyroidism from Graves disease is treated with methimazole, "
            "which blocks thyroid peroxidase and lowers hormone synthesis. Answer: B",
        ),
    )


class TestBuildCandidateSet:
    def test_rationale_only_equals_knowledge_retrieval(self, med_index, med_record):
        cs = build_candidate_set(med_index, med_record, 0, kappa1=8, kappa2=0)
        want = [sd.doc_id for sd in retrieve_knowledge(med_index, med_record, 0, 8)]
        assert sorted(cs.doc_ids) == sorted(want)

    def test_union_cardinality_with_overlap(self, med_index, med_record):
        only_rationale = build_candidate_set(med_index, med_record, 0, 4, 0)
        only_question = build_candidate_set(med_index, med_record, 0, 0, 4)
        union = build_candidate_set(med_index, med_record, 0, 4, 4)
        overlap = set(only_rationale.doc_ids) & set(only_question.doc_ids)
        assert len(union.doc_ids) == 8 - len(overlap)
        assert len(set(union.doc_ids)) == len(union.doc_ids)

    def test_question_only_docs_scored_against_rationale(self, med_index, med_record):
        union = build_candidate_set(med_index, med_record, 0, 2, 6)
        rationale_terms = tokenize(med_record.rationales[0])
        for doc_id, teacher in zip(union.doc_ids, union.teacher_scores):
            want = bm25_score(med_index, rationale_terms, med_index.ordinal(doc_id))
            assert teacher == want

    @pytest.mark.parametrize("kappa1, kappa2", [(2, 0), (3, 5), (8, 2), (12, 12)])
    def test_rationale_route_scores_are_retrieve_scores(self, med_index, kappa1, kappa2):
        """Each top-kappa1 member's teacher score is its retrieve score, bit for bit."""
        for record in ingest_rationales(DATA_DIR / "rationales.jsonl"):
            for j, rationale in enumerate(record.rationales):
                cs = build_candidate_set(med_index, record, j, kappa1, kappa2)
                teacher = dict(zip(cs.doc_ids, cs.teacher_scores))
                for sd in retrieve(med_index, rationale, kappa1):
                    assert teacher[sd.doc_id] == sd.score

    def test_ordered_by_descending_teacher_score(self, med_index, med_record):
        cs = build_candidate_set(med_index, med_record, 0, 6, 2)
        assert list(cs.teacher_scores) == sorted(cs.teacher_scores, reverse=True)

    @pytest.mark.parametrize("kappa1, kappa2", [(-3, 4), (4, -1)])
    def test_negative_kappa_rejected(self, med_index, med_record, kappa1, kappa2):
        with pytest.raises(ValueError, match=f"got {kappa1} and {kappa2}"):
            build_candidate_set(med_index, med_record, 0, kappa1, kappa2)

    def test_degenerate_candidate_set_rejected(self, med_index):
        record = RationaleRecord(
            "deg", "unmatchable? (A) x (B) y", "A", ("methimazole",)
        )
        with pytest.raises(DegenerateCandidateSet):
            build_candidate_set(med_index, record, 0, 8, 0)


class TestRerankInference:
    def test_subset_of_bm25_candidates(self, med_index):
        question = "best treatment for graves disease with goiter"
        model = RerankerModel.identity(embedding_dim=64)
        top = rerank_inference(med_index, model, question, kappa_star=100, k=3)
        bm25_ids = {sd.doc_id for sd in retrieve(med_index, question, 100)}
        assert {sd.doc_id for sd in top} <= bm25_ids

    def test_untrained_model_yields_monotone_scores(self, med_index):
        question = "thyroid hormone excess therapy"
        model = RerankerModel.identity(embedding_dim=64)
        for k in (1, 2, 3):
            out = rerank_inference(med_index, model, question, kappa_star=10, k=k)
            assert len(out) == min(k, len(out))
            scores = [sd.score for sd in out]
            assert scores == sorted(scores, reverse=True)
            assert [sd.rank for sd in out] == list(range(1, len(out) + 1))

    @pytest.mark.parametrize("table", [{}, "flat"])
    def test_constant_table_breaks_ties_by_doc_id(self, med_index, table):
        """An empty table scores every candidate 0.0, a flat one 1.0."""
        table = dict.fromkeys(med_index.doc_ids, 1.0) if table == "flat" else table
        out = rerank_inference(med_index, table, "fever pregnancy thyroid", 100, 3)
        ids = [sd.doc_id for sd in out]
        assert ids == sorted(ids)
        assert {sd.score for sd in out} == {1.0 if table else 0.0}

    def test_table_scores_each_candidate_by_its_own_id(self):
        """Ordinals map back to the right doc id when corpus order is not id order."""
        names = ["delta", "alpha", "echo", "charlie", "bravo"]
        docs = [
            Document(name, "", f"fever {name} " + "cough " * i) for i, name in enumerate(names)
        ]
        index = build_index(docs)
        table = {name: float(i) for i, name in enumerate(names)}
        got = rerank_inference(index, table, "fever cough", 4, 4)
        bm25 = sorted(retrieve(index, "fever cough", 4), key=lambda sd: -table[sd.doc_id])
        want = [(sd.doc_id, table[sd.doc_id]) for sd in bm25]
        assert [(sd.doc_id, sd.score) for sd in got] == want
        assert "delta" not in {sd.doc_id for sd in got}  # BM25 ranks it fifth: not a candidate

    def test_no_candidates_raises(self, med_index):
        model = RerankerModel.identity()
        with pytest.raises(EmptyCandidates):
            rerank_inference(med_index, model, "zzzz qqqq", 100, 1)

    @pytest.mark.parametrize("fixture", ["corpus", "padded"])
    def test_model_path_equals_text_reference(self, med_index, fixture):
        """Rows from the index score exactly as rows featurized from each candidate's text."""
        if fixture == "corpus":
            rng = np.random.default_rng(8)
            model = RerankerModel(
                24, 6, rng.normal(0, 1, (24, 24)), rng.normal(0, 1, (24, 24)), bias=-0.5
            )
            index, questions = med_index, med_index.texts
        else:
            model, sets, index = padded_fixture()
            questions = [cs.question for cs in sets]
        for question in questions:
            for kappa_star, k in [(100, 100), (5, 3)]:
                got = rerank_inference(index, model, question, kappa_star, k)
                assert got == reference_rerank_inference(index, model, question, kappa_star, k)

    def test_k_must_not_exceed_kappa_star(self, med_index):
        model = RerankerModel.identity()
        with pytest.raises(ValueError):
            rerank_inference(med_index, model, "fever", kappa_star=2, k=3)


FIXTURE_QUESTIONS = [r.question for r in ingest_rationales(DATA_DIR / "rationales.jsonl")] + [
    d.text for d in load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
]
NO_HIT_QUESTIONS = ["zzzz qqqq", "xylophone quokka"]


def _bits(ranked):
    return [(sd.doc_id, sd.score.hex(), sd.rank) for sd in ranked]


def _length_table(index, question):
    texts = zip(index.doc_ids, index.texts)
    return {doc_id: float((len(text) * len(question)) % 7) for doc_id, text in texts}


class TestRerankBatch:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_entry_equals_the_question_asked_alone(self, med_index, data):
        """Shuffled fixture questions, repeats allowed: each entry is its one-question call."""
        questions = data.draw(st.lists(st.sampled_from(FIXTURE_QUESTIONS), min_size=1, max_size=10))
        kappa_star = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, kappa_star))
        kind = data.draw(st.sampled_from(["random", "identity", "table"]))
        if kind == "random":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            model = RerankerModel(24, 6, rng.normal(0, 1, (24, 24)), rng.normal(0, 1, (24, 24)), 0.3)
        elif kind == "identity":
            model = RerankerModel.identity(embedding_dim=32)
        else:
            model = None
        scorers = [model or _length_table(med_index, q) for q in questions]
        batch_model = model or scorers
        batch = rerank_batch(med_index, batch_model, questions, kappa_star, k)
        assert len(batch) == len(questions)
        for question, scorer, ranked in zip(questions, scorers, batch):
            alone = rerank_inference(med_index, scorer, question, kappa_star, k)
            assert _bits(ranked) == _bits(alone)

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_first_question_without_hits_raises(self, med_index, data):
        questions = data.draw(st.lists(st.sampled_from(FIXTURE_QUESTIONS), max_size=6))
        for miss in NO_HIT_QUESTIONS:
            questions.insert(data.draw(st.integers(0, len(questions))), miss)
        first = next(q for q in questions if q in NO_HIT_QUESTIONS)
        with pytest.raises(EmptyCandidates) as err:
            rerank_batch(med_index, RerankerModel.identity(), questions, 10, 3)
        assert str(err.value) == str(EmptyCandidates(first))

    def test_no_questions_give_no_rows(self, med_index):
        assert rerank_batch(med_index, RerankerModel.identity(), [], 10, 3) == []
        assert rerank_batch(med_index, [], [], 10, 3) == []

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        texts=st.lists(st.lists(WORDS, min_size=1, max_size=12), min_size=1, max_size=12),
        dim=st.sampled_from([1, 2, 8, 256]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_each_question_is_scored_on_the_doc_rows_of_its_top(self, data, texts, dim, seed):
        """The rows a question folds with, built per question, are ``doc_rows`` of its BM25 top."""
        docs = [Document(f"d{i}", "", " ".join(words)) for i, words in enumerate(texts)]
        index = build_index(docs)
        vocabulary = sorted({word for words in texts for word in words})
        question = st.lists(st.sampled_from(vocabulary), min_size=1, max_size=4).map(" ".join)
        questions = data.draw(st.lists(question, min_size=1, max_size=8))
        kappa_star = data.draw(st.integers(1, len(texts)))
        folded, fold = [], reranker._fold

        def recording(model, qv, dv):
            folded.append(dv)
            return fold(model, qv, dv)

        with mock.patch.object(reranker, "_fold", recording):
            rerank_batch(index, RerankerModel.identity(dim, seed), questions, kappa_star, 1)
        assert len(folded) == len(questions)
        for question, rows in zip(questions, folded):
            top = top_ordinals(index, bm25_scores(index, tokenize(question)), kappa_star)
            assert rows.flags.c_contiguous and rows.shape == (len(top), dim)
            assert rows.tobytes() == doc_rows(index, top, dim, seed).tobytes()

    def test_peak_memory_does_not_hold_rows_of_every_question(self):
        """Going from N to 4N questions with disjoint candidates adds less than their rows.

        Rows built for the union of all candidates at once would add 3N x kappa* x E float64.
        """
        n, kappa_star, dim = 6, 10, 256
        index = build_index([
            Document(f"q{q}-{i}", "", f"q{q} only{q}x{i}")
            for q in range(4 * n) for i in range(kappa_star)
        ])
        model = RerankerModel.identity(dim, 0)

        def peak(questions):
            ranked = rerank_batch(index, model, questions, kappa_star, kappa_star)  # caches warm
            assert [{sd.doc_id.split("-")[0] for sd in r} for r in ranked] == [{q} for q in questions]
            tracemalloc.start()
            try:
                rerank_batch(index, model, questions, kappa_star, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak([f"q{q}" for q in range(n)]), peak([f"q{q}" for q in range(4 * n)])
        assert many - few < 3 * n * kappa_star * dim * 8

    @pytest.mark.parametrize("tables", [0, 1, 4])
    def test_one_table_per_question(self, med_index, tables):
        """Another number of tables than questions is refused, not cut to the shorter."""
        with pytest.raises(ValueError, match=f"^{tables} score tables for 3 questions$"):
            rerank_batch(med_index, [{}] * tables, FIXTURE_QUESTIONS[:3], 10, 3)


class TestFileScorer:
    def test_one_table_per_example(self, tmp_path):
        """A later line for the same pair wins; an example the file lacks has an empty table."""
        lines = [
            {"id": "q1", "doc_id": "a", "score": 1.5},
            {"id": "q2", "doc_id": "a", "score": -1},
            {"id": "q1", "doc_id": "b", "score": 2.0},
            {"id": "q1", "doc_id": "a", "score": 3.0},
        ]
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        scorer = FileScorer.load(path)
        assert scorer.for_example("q1") == {"a": 3.0, "b": 2.0}
        assert scorer.for_example("q2") == {"a": -1.0}
        assert scorer.for_example("q3") == {}

    def test_table_ranks_as_the_file_says(self, med_index, tmp_path):
        """A candidate the table lacks scores 0.0, below a positive score and above a negative."""
        question = "fever pregnancy thyroid"
        first, second, third = (sd.doc_id for sd in retrieve(med_index, question, 3))
        lines = [
            {"id": "q", "doc_id": third, "score": 2.0},
            {"id": "q", "doc_id": first, "score": -1.0},
        ]
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        ranked = rerank_inference(med_index, FileScorer.load(path).for_example("q"), question, 3, 3)
        want = [(third, 2.0), (second, 0.0), (first, -1.0)]
        assert [(sd.doc_id, sd.score) for sd in ranked] == want


class TestModelSerialization:
    def test_round_trip_bit_exact_scores(self, tmp_path):
        rng = np.random.default_rng(55)
        model = RerankerModel(
            embedding_dim=12,
            hash_seed=9,
            query_projection=rng.normal(0, 1, (12, 12)),
            doc_projection=rng.normal(0, 1, (12, 12)),
            bias=float(rng.normal()),
            step=17,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.step == 17
        index = text_index({"fc": "fever chills", "abc": "a b c"})
        for ordinal, query in [(0, "malaria"), (1, "c d")]:
            want = model_scores(model, query, index, [ordinal])[0]
            assert model_scores(clone, query, index, [ordinal])[0] == want

    def test_candidates_jsonl_round_trip(self, tmp_path):
        sets = [
            CandidateSet("e1", 0, "question one", ("a", "b"), (1.5, 0.25)),
            CandidateSet("e2", 1, "question two", ("c", "b"), (0.0, -1.0)),
        ]
        path = tmp_path / "cands.jsonl"
        path.write_text(candidates_jsonl_text(sets), encoding="utf-8")
        index = text_index({"a": "alpha", "b": "beta", "c": "gamma"})
        assert read_candidates_jsonl(path, index) == sets

    def test_unknown_checkpoint_version_rejected(self, tmp_path):
        from radkit.errors import UnknownFormatVersion

        path = tmp_path / "model.json"
        save_model(RerankerModel.identity(embedding_dim=4), path)
        data = path.read_bytes()
        path.write_bytes(with_meta(data, lambda meta: None))
        assert load_model(path).embedding_dim == 4
        path.write_bytes(with_meta(data, lambda meta: meta.update(format_version=99)))
        with pytest.raises(UnknownFormatVersion) as err:
            load_model(path)
        assert str(err.value) == f"{path}: unknown file format version 99 (expected 2)"

    @pytest.mark.parametrize(
        "change",
        [lambda meta: meta.update(E=3), lambda meta: meta.update(E=0), lambda meta: meta.pop("bias")],
        ids=["wrong-E", "zero-E", "no-bias"],
    )
    def test_checkpoint_that_does_not_fit_is_rejected(self, tmp_path, change):
        from radkit.errors import UnknownFormatVersion

        path = tmp_path / "model.npz"
        path.write_bytes(with_meta(serialize_model(RerankerModel.identity(embedding_dim=4)), change))
        with pytest.raises(UnknownFormatVersion, match="version None"):
            load_model(path)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_save_load_is_bit_exact(self, tmp_path, data, dim):
        """Every finite model round-trips; non-finite ones are rejected below."""
        special = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308])
        finite = st.floats(width=64, allow_nan=False, allow_infinity=False)
        values = st.one_of(special, finite)
        matrix = hnp.arrays(np.float64, (dim, dim), elements=values)
        model = RerankerModel(
            dim,
            hash_seed=data.draw(st.integers(0, 2**63 - 1)),
            query_projection=data.draw(matrix),
            doc_projection=data.draw(matrix),
            bias=data.draw(values.filter(lambda x: x != 0)),
            step=data.draw(st.integers(1, 2**63 - 1)),
        )
        path = tmp_path / "model.npz"
        save_model(model, path)
        clone = load_model(path)
        for name in ("query_projection", "doc_projection"):
            got, want = getattr(clone, name), getattr(model, name)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
        assert struct.pack("<d", clone.bias) == struct.pack("<d", model.bias)
        assert (clone.embedding_dim, clone.hash_seed, clone.step) == (
            dim, model.hash_seed, model.step
        )
        assert serialize_model(clone) == path.read_bytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weight", ["query_projection", "doc_projection", "bias"])
    def test_non_finite_weights_are_rejected(self, tmp_path, weight, value):
        from radkit.errors import RadkitError

        model = RerankerModel.identity(embedding_dim=3)
        if weight == "bias":
            model.bias = value
        else:
            getattr(model, weight)[1, 2] = value
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError, match="model weights must be finite"):
            save_model(model, path)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(unchecked_checkpoint(model))  # as another tool might write it
        with pytest.raises(RadkitError) as err:
            load_model(path)
        expected = "checkpoint weights must be finite"
        if weight == "bias":
            expected = f'field "bias": expected a finite number, got {json.dumps(value)}'
        assert str(err.value) == f"{path}: {expected}"
