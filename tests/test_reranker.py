"""Reranker scoring, distillation objective, gradients, and inference."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radkit.corpus import build_index, load_corpus_jsonl, retrieve, tokenize, bm25_score
from radkit.distill import RationaleRecord, retrieve_knowledge
from radkit.errors import (
    DegenerateCandidateSet,
    EmptyCandidates,
    NonPositiveTemperature,
)
from radkit.reranker import (
    CandidateSet,
    RerankerModel,
    build_candidate_set,
    candidates_jsonl_text,
    featurize,
    kl_loss,
    load_model,
    loss_gradient,
    read_candidates_jsonl,
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
    padded_fixture,
    random_reranker_fixture,
    reference_train,
    with_meta,
)


def finite_difference_gradient(model, cs, tau1, tau2, doc_texts, h=1e-5):
    """Central differences over every model parameter."""

    def loss_with(query_projection, doc_projection, bias):
        probe = RerankerModel(
            model.embedding_dim, model.hash_seed, query_projection, doc_projection, bias
        )
        return loss_gradient(probe, cs, tau1, tau2, doc_texts)[0]

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


class TestScore:
    def test_empty_query_scores_bias(self):
        model = RerankerModel(embedding_dim=16, bias=2.5)
        assert model.scores("", ["some document text"])[0] == 2.5

    def test_identity_self_similarity_is_one(self):
        model = RerankerModel.identity(embedding_dim=32)
        text = "fever chills malaria"
        assert model.scores(text, [text])[0] == pytest.approx(1.0)

    def test_bag_of_terms_order_invariance(self):
        model = RerankerModel.identity(embedding_dim=32)
        q = "does fever respond to rest"
        assert model.scores(q, ["a b"])[0] == model.scores(q, ["b a"])[0]

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
        q = "fever dose for malaria"
        batch = model.scores(q, docs)
        single = np.array([model.scores(q, [d])[0] for d in docs])
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

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            softmax_normalize([], tau=1.0)


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
        doc_texts = {"a": "one passage", "b": "another text here", "c": "third entry"}
        logits = [model.scores(question, [doc_texts[d]])[0] for d in ("a", "b", "c")]
        cs = CandidateSet("e", 0, question, ("a", "b", "c"), tuple(logits))
        loss, grad = loss_gradient(model, cs, tau1=2.0, tau2=2.0, doc_texts=doc_texts)
        assert loss == 0.0
        assert not grad.d_query_projection.any()
        assert not grad.d_doc_projection.any()
        assert grad.d_bias == 0.0

    def test_three_candidate_fixture_matches_central_differences(self):
        rng = np.random.default_rng(33)
        model = RerankerModel(
            embedding_dim=10,
            hash_seed=4,
            query_projection=rng.normal(0, 0.7, (10, 10)),
            doc_projection=rng.normal(0, 0.7, (10, 10)),
            bias=0.3,
        )
        doc_texts = {"a": "alpha beta", "b": "gamma delta beta", "c": "epsilon zeta"}
        cs = CandidateSet("e", 0, "beta zeta query", ("a", "b", "c"), (2.0, 0.5, -1.0))
        tau1, tau2 = 1.0, 100.0
        _, grad = loss_gradient(model, cs, tau1, tau2, doc_texts)
        fd_q, fd_d, fd_b = finite_difference_gradient(model, cs, tau1, tau2, doc_texts)
        assert_gradients_close(grad.d_query_projection, fd_q)
        assert_gradients_close(grad.d_doc_projection, fd_d)
        assert abs(grad.d_bias - fd_b) <= 1e-9

    def test_bias_gradient_vanishes(self):
        """Both distributions sum to one, so the bias partial cancels."""
        rng = np.random.default_rng(77)
        for _ in range(10):
            model, cs, doc_texts = random_reranker_fixture(rng, embedding_dim=8)
            _, grad = loss_gradient(model, cs, 1.0, 100.0, doc_texts)
            assert abs(grad.d_bias) <= 1e-12

    def test_random_fixtures_match_central_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            model, cs, doc_texts = random_reranker_fixture(rng, embedding_dim=8)
            tau1 = float(rng.uniform(0.5, 3))
            tau2 = float(rng.uniform(0.5, 120))
            _, grad = loss_gradient(model, cs, tau1, tau2, doc_texts)
            fd_q, fd_d, fd_b = finite_difference_gradient(model, cs, tau1, tau2, doc_texts)
            assert_gradients_close(grad.d_query_projection, fd_q)
            assert_gradients_close(grad.d_doc_projection, fd_d)
            assert abs(grad.d_bias - fd_b) <= 1e-9


class TestTrain:
    def test_zero_learning_rate_changes_nothing(self):
        model, sets, doc_texts = convergence_fixture()
        trained, trace = train(model, sets, doc_texts, epochs=3, lr=0.0)
        assert np.array_equal(trained.query_projection, model.query_projection)
        assert np.array_equal(trained.doc_projection, model.doc_projection)
        assert trained.bias == model.bias
        assert len(set(trace)) == 1

    def test_separable_fixture_converges(self):
        model, sets, doc_texts = convergence_fixture()
        trained, trace = train(model, sets, doc_texts, epochs=50, lr=1e-2, tau1=1.0, tau2=100.0)
        assert trace[-1] < trace[0]
        assert trace[-1] <= 0.5 * trace[0]
        targets = convergence_targets()
        aligned = 0
        for cs, target in zip(sets, targets):
            logits = [trained.scores(cs.question, [doc_texts[d]])[0] for d in cs.doc_ids]
            aligned += int(np.argmax(logits)) == target
        assert aligned >= 9

    def test_same_seed_bit_identical(self):
        model, sets, doc_texts = convergence_fixture()
        a, _ = train(model, sets, doc_texts, epochs=5, lr=1e-2)
        b, _ = train(model, sets, doc_texts, epochs=5, lr=1e-2)
        assert a.query_projection.tobytes() == b.query_projection.tobytes()
        assert a.doc_projection.tobytes() == b.doc_projection.tobytes()
        assert a.bias == b.bias

    def test_trace_entry_is_loss_after_that_many_epochs(self):
        model, sets, doc_texts = convergence_fixture()
        _, trace = train(model, sets, doc_texts, epochs=6, lr=1e-2)
        assert len(trace) == 7
        for e in range(7):
            _, shorter = train(model, sets, doc_texts, epochs=e, lr=1e-2)
            assert trace[e] == shorter[-1]

    @pytest.mark.parametrize(
        "fixture, epochs, lr, tau2",
        [(convergence_fixture, 50, 1e-2, 100.0), (padded_fixture, 20, 1e-1, 5.0)],
        ids=["convergence", "padded"],
    )
    def test_matches_per_set_reference(self, fixture, epochs, lr, tau2):
        """The batched pass sums in another order, so agreement is to 1e-12 relative."""
        model, sets, doc_texts = fixture()
        got, got_trace = train(model, sets, doc_texts, epochs, lr, tau1=1.0, tau2=tau2)
        want, want_trace = reference_train(model, sets, doc_texts, epochs, lr, 1.0, tau2)
        for name in ("query_projection", "doc_projection"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name
        # The bias gradient cancels to rounding noise, so the bias is compared on the logit scale.
        assert abs(got.bias - want.bias) <= 1e-12 * max(abs(want.bias), 1.0)
        np.testing.assert_allclose(got_trace, want_trace, rtol=1e-12, atol=0.0)
        assert got.step == want.step == epochs

    def test_small_step_does_not_increase_single_set_loss(self):
        rng = np.random.default_rng(13)
        model, cs, doc_texts = random_reranker_fixture(rng, embedding_dim=8)
        before = loss_gradient(model, cs, 1.0, 10.0, doc_texts)[0]
        trained, _ = train(model, [cs], doc_texts, epochs=1, lr=1e-4, tau1=1.0, tau2=10.0)
        after = loss_gradient(trained, cs, 1.0, 10.0, doc_texts)[0]
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
            assert teacher == pytest.approx(want, abs=1e-12)

    def test_ordered_by_descending_teacher_score(self, med_index, med_record):
        cs = build_candidate_set(med_index, med_record, 0, 6, 2)
        assert list(cs.teacher_scores) == sorted(cs.teacher_scores, reverse=True)

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

    def test_constant_scorer_breaks_ties_by_doc_id(self, med_index):
        def flat(doc_id, doc_text, query):
            return 1.0

        out = rerank_inference(med_index, flat, "fever pregnancy thyroid", 100, 3)
        ids = [sd.doc_id for sd in out]
        assert ids == sorted(ids)

    def test_no_candidates_raises(self, med_index):
        model = RerankerModel.identity()
        with pytest.raises(EmptyCandidates):
            rerank_inference(med_index, model, "zzzz qqqq", 100, 1)

    def test_k_must_not_exceed_kappa_star(self, med_index):
        model = RerankerModel.identity()
        with pytest.raises(ValueError):
            rerank_inference(med_index, model, "fever", kappa_star=2, k=3)


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
        for doc, query in [("fever chills", "malaria"), ("a b c", "c d")]:
            assert clone.scores(query, [doc])[0] == model.scores(query, [doc])[0]

    def test_candidates_jsonl_round_trip(self, tmp_path):
        sets = [
            CandidateSet("e1", 0, "question one", ("a", "b"), (1.5, 0.25)),
            CandidateSet("e2", 1, "question two", ("c", "b"), (0.0, -1.0)),
        ]
        path = tmp_path / "cands.jsonl"
        path.write_text(candidates_jsonl_text(sets), encoding="utf-8")
        assert read_candidates_jsonl(path) == sets

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
        special = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan])
        values = st.one_of(special, st.floats(width=64))
        matrix = hnp.arrays(np.float64, (dim, dim), elements=values)
        model = RerankerModel(
            dim,
            hash_seed=data.draw(st.integers(0, 2**63 - 1)),
            query_projection=data.draw(matrix),
            doc_projection=data.draw(matrix),
            bias=data.draw(st.one_of(special, st.floats()).filter(lambda x: x == x and x != 0)),
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
