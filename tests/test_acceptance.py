"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from radkit.corpus import Document, build_index, bm25_score, load_corpus_jsonl, retrieve, tokenize
from radkit.distill import (
    HEADERS,
    emit_training_example,
    ingest_rationales,
    parse_training_example,
    retrieve_knowledge,
    TrainingTemplate,
)
from radkit.evaluation import hits_report
from radkit.memsim import (
    CASE_KB_LOOKUP,
    MemorizedState,
    SimConfig,
    TaskInstance,
    compute_m,
    infer_budgeted_traced,
    learn_budgeted,
    run_simulation,
)
from radkit.reranker import (
    RerankerModel,
    loss_gradient,
    rerank_inference,
    train,
)

from helpers import (
    DATA_DIR,
    bm25_oracle_score,
    convergence_fixture,
    convergence_targets,
    model_scores,
    random_reranker_fixture,
)
from test_memsim import err_opt_enumerated
from test_reranker import assert_gradients_close, finite_difference_gradient


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_memorization_bound():
    """Budgeted-learner gap, per-trial bit cap, and naive bit ratio at desk scale."""
    config = SimConfig(
        N=100, n=100, d=128, R=100, eps=0.1, trials=200, tests_per_trial=500, seed=20250810
    )
    m = compute_m(config.N, config.n, config.R, config.eps)
    start = time.time()
    rep = run_simulation(config)
    elapsed = time.time() - start
    gap_bound = config.eps + 3 * (rep.se_phi + rep.se_opt)
    bit_cap = min(config.N, config.n) * (m + 7)
    ratio = rep.bits_naive / rep.mean_bits_phi
    enum_want = err_opt_enumerated(3, 4, 4)
    tiny = run_simulation(
        SimConfig(N=3, n=4, d=4, R=0, eps=0.2, trials=400, tests_per_trial=150, seed=6)
    )
    enum_tol = 4 * math.sqrt(enum_want * (1 - enum_want) / tiny.test_count)
    ok = (
        rep.m == m == 17
        and rep.gap <= gap_bound
        and rep.max_bits_phi <= bit_cap
        and ratio >= 5.0
        and elapsed < 120.0
        and abs(tiny.err_opt - enum_want) <= enum_tol
    )
    report(
        "memorization bound at N=n=100, d=128, R=100, eps=0.1",
        ok,
        f"gap={rep.gap:.4f}<={gap_bound:.4f}, bits {rep.max_bits_phi}<={bit_cap}, "
        f"naive/budgeted={ratio:.2f}>=5, {elapsed:.1f}s, enum |d|={abs(tiny.err_opt - enum_want):.4f}",
    )


def test_criterion_2_forced_prefix_collision():
    """Two KB rows sharing the stored prefix halve the lookup accuracy."""
    m = 6
    prefix = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    ref = np.concatenate([prefix, [0]]).astype(np.uint8)
    decoy = np.concatenate([prefix, [1]]).astype(np.uint8)
    task = TaskInstance(ref[None, :], np.stack([decoy, ref]), np.array([0]), np.array([m]))
    state = learn_budgeted(task, m)
    rng = np.random.default_rng(2024)
    draws = 20000
    correct = 0
    for _ in range(draws):
        bit, case, matches = infer_budgeted_traced(state, task, (0, ref[:m]), rng)
        assert case == CASE_KB_LOOKUP and matches == 2
        correct += bit == int(ref[m])
    rate = correct / draws
    report(
        "forced m-bit collision resolves at chance",
        abs(rate - 0.5) <= 0.05,
        f"accuracy={rate:.4f} over {draws} draws",
    )


def test_criterion_3_gradient_matches_finite_differences():
    """Analytic KL gradient against central differences on 20 random fixtures."""
    rng = np.random.default_rng(314)
    worst_bias = 0.0
    for _ in range(20):
        model, cs, index = random_reranker_fixture(rng, embedding_dim=8)
        tau1 = float(rng.uniform(0.5, 3))
        tau2 = float(rng.uniform(0.5, 120))
        _, (d_query, d_doc, d_bias) = loss_gradient(model, cs, tau1, tau2, index)
        fd_q, fd_d, fd_b = finite_difference_gradient(model, cs, tau1, tau2, index)
        assert_gradients_close(d_query, fd_q, rtol=1e-4)
        assert_gradients_close(d_doc, fd_d, rtol=1e-4)
        assert abs(d_bias - fd_b) <= 1e-9
        worst_bias = max(worst_bias, abs(d_bias))
    report(
        "KL gradient matches central differences (h=1e-5, rel<1e-4)",
        worst_bias <= 1e-12,
        f"20 fixtures, max |bias gradient| = {worst_bias:.2e} <= 1e-12",
    )


def test_criterion_4_distillation_convergence():
    """Separable fixture: tau1=1, tau2=100, lr=1e-2, 50 epochs."""
    model, sets, index = convergence_fixture()
    trained, trace = train(model, sets, index, epochs=50, lr=1e-2, tau1=1.0, tau2=100.0)
    rerun, _ = train(model, sets, index, epochs=50, lr=1e-2, tau1=1.0, tau2=100.0)
    targets = convergence_targets()
    aligned = 0
    for cs, target in zip(sets, targets):
        ordinals = [index.ordinal(d) for d in cs.doc_ids]
        logits = model_scores(trained, cs.question, index, ordinals)
        aligned += int(np.argmax(logits)) == target
    bit_identical = (
        trained.query_projection.tobytes() == rerun.query_projection.tobytes()
        and trained.doc_projection.tobytes() == rerun.doc_projection.tobytes()
        and trained.bias == rerun.bias
    )
    ok = trace[-1] <= 0.5 * trace[0] and aligned >= 9 and bit_identical
    report(
        "distillation converges on the separable fixture",
        ok,
        f"loss {trace[0]:.3f}->{trace[-1]:.3f} "
        f"({100 * (1 - trace[-1] / trace[0]):.0f}% drop), aligned {aligned}/10, "
        f"bit-identical={bit_identical}",
    )


def test_criterion_5_bm25_oracle_equivalence():
    """Exhaustive formula evaluation reproduces retrieve()'s ids and scores on 1000 docs."""
    rng = np.random.default_rng(1000)
    vocab = [f"w{i:03d}" for i in range(150)]
    docs = []
    for i in range(1000):
        words = rng.choice(vocab, size=int(rng.integers(4, 20)))
        docs.append(Document(f"doc-{i:04d}", "", " ".join(words)))
    index = build_index(docs)
    doc_tokens = [tokenize(d.text) for d in docs]
    mismatches = 0
    for _ in range(100):
        terms = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 6)))]
        query = " ".join(terms)
        got = [(sd.doc_id, sd.score) for sd in retrieve(index, query, 10)]
        scored = []
        for ordinal, doc in enumerate(docs):
            s = bm25_oracle_score(doc_tokens, terms, ordinal, index.k1, index.b)
            if s > 0.0:
                scored.append((-s, doc.doc_id))
        scored.sort()
        want = [(doc_id, -neg) for neg, doc_id in scored[:10]]
        mismatches += got != want
    single = build_index([Document("only", "", "term")])
    hand = abs(bm25_score(single, ["term"], 0) - math.log(4 / 3))
    report(
        "BM25 equals exhaustive oracle on 100 queries x 1000 docs",
        mismatches == 0 and hand <= 1e-9,
        f"mismatches={mismatches}, |score - ln(4/3)|={hand:.2e}",
    )


EXPECTED_INPUT = (
    "The following are multiple-choice questions about medical knowledge. "
    "Generate a step-by-step explanation for each question:"
    "\n\n"
    "Question: A 26-year-old pregnant woman at 20 weeks gestation reports two days "
    "of burning with urination. She is afebrile and has no flank tenderness. "
    "Which antibiotic is the best choice?"
    "\n\n"
    "A. Doxycycline B. Ciprofloxacin C. Gentamicin D. Nitrofurantoin"
    "\n\n"
    "Knowledge: Urinary tract infection . Urinary tract infections during pregnancy "
    "carry a higher risk of ascending kidney involvement. Nitrofurantoin and "
    "cephalexin are regarded as safe choices in pregnancy, whereas doxycycline is "
    "contraindicated because it harms fetal bone and teeth. Untreated bacteriuria "
    "can progress to pyelonephritis and early labor."
    "\n\n"
    "Explanation:"
)

EXPECTED_TARGET = (
    "She has an uncomplicated urinary tract infection in pregnancy. Nitrofurantoin "
    "is regarded as safe in pregnancy and treats cystitis effectively, while "
    "doxycycline is contraindicated because it harms fetal bone and teeth. Answer: D"
    "\n\n"
    "Answer: D"
)


def test_criterion_6_training_example_layout():
    """Byte-exact input/target layout and emit -> parse identity."""
    index = build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl"))
    record = next(
        r for r in ingest_rationales(DATA_DIR / "rationales.jsonl") if r.example_id == "ex-02"
    )
    scored = retrieve_knowledge(index, record, 0, 1)
    docs = [index.document(sd.doc_id) for sd in scored]
    example = emit_training_example(record, 0, docs, TrainingTemplate.named("medqa"))
    parsed = parse_training_example(example.input_text, example.target_text)
    round_trip = (
        parsed.header == HEADERS["medqa"]
        and parsed.question == record.question
        and parsed.knowledge_texts == (docs[0].text,)
        and parsed.rationale == record.rationales[0]
        and parsed.answer == record.answer
    )
    ok = (
        example.input_text == EXPECTED_INPUT
        and example.target_text == EXPECTED_TARGET
        and example.knowledge_doc_ids == ("med-002",)
        and round_trip
    )
    report(
        "training-example layout byte-exact and invertible",
        ok,
        f"passage={docs[0].doc_id}, round_trip={round_trip}",
    )


def test_criterion_7_retrieval_metric_properties():
    """Hits@k monotonicity, identity-reranker equality, candidate-subset contract."""
    rng = np.random.default_rng(7000)
    monotone = True
    for _ in range(50):
        retrieved, silver = {}, {}
        for e in range(int(rng.integers(3, 12))):
            ex = f"e{e}"
            pool = [f"d{i}" for i in range(25)]
            retrieved[ex] = list(rng.permutation(pool)[:10])
            silver[ex] = tuple(rng.choice(pool, size=3, replace=False))
        hits = hits_report(retrieved, silver, [1, 3, 10])["hits"]
        monotone = monotone and hits["1"] <= hits["3"] <= hits["10"]

    vocab = [f"w{i:03d}" for i in range(60)]
    docs = [
        Document(f"doc-{i:03d}", "", " ".join(rng.choice(vocab, size=int(rng.integers(4, 12)))))
        for i in range(200)
    ]
    index = build_index(docs)
    queries = {
        f"q{i}": " ".join(vocab[int(w)] for w in rng.integers(0, 60, size=3)) for i in range(25)
    }
    silver = {}
    bm25_lists = {}
    reranked_lists = {}
    subset_ok = True
    for ex, query in queries.items():
        bm25_top = retrieve(index, query, 100)
        if not bm25_top:
            continue
        terms = tokenize(query)
        bm25_table = {
            sd.doc_id: bm25_score(index, terms, index.ordinal(sd.doc_id)) for sd in bm25_top
        }
        reranked = rerank_inference(index, bm25_table, query, kappa_star=100, k=10)
        subset_ok = subset_ok and {sd.doc_id for sd in reranked} <= {
            sd.doc_id for sd in bm25_top
        }
        bm25_lists[ex] = [sd.doc_id for sd in bm25_top]
        reranked_lists[ex] = [sd.doc_id for sd in reranked]
        silver[ex] = tuple(sd.doc_id for sd in bm25_top[:3])
    ks = (1, 3, 10)
    identical = hits_report(reranked_lists, silver, ks)["hits"] == (
        hits_report(bm25_lists, silver, ks)["hits"]
    )
    report(
        "retrieval metrics: monotone, identity reranker exact, subset contract",
        monotone and identical and subset_ok,
        f"50 monotone sets, {len(bm25_lists)} identity queries",
    )


def test_criterion_8_end_to_end_smoke(tmp_path):
    """Full stage chain on the committed fixtures, under 60 seconds."""
    start = time.time()
    paths = {
        "index": tmp_path / "index.json",
        "train": tmp_path / "train.jsonl",
        "cands": tmp_path / "cands.jsonl",
        "model": tmp_path / "model.json",
        "retrieved": tmp_path / "retrieved.jsonl",
        "metrics": tmp_path / "metrics.json",
        "sim": tmp_path / "sim.json",
    }
    chain = [
        ["index", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(paths["index"])],
        ["emit-train", "--index", str(paths["index"]),
         "--rationales", str(DATA_DIR / "rationales.jsonl"), "--out", str(paths["train"])],
        ["candidates", "--index", str(paths["index"]),
         "--rationales", str(DATA_DIR / "rationales.jsonl"), "--out", str(paths["cands"]),
         "--kappa1", "4", "--kappa2", "2"],
        ["rerank-train", "--index", str(paths["index"]), "--candidates", str(paths["cands"]),
         "--out", str(paths["model"]), "--epochs", "10", "--dim", "64"],
        ["rerank-infer", "--index", str(paths["index"]),
         "--questions", str(DATA_DIR / "rationales.jsonl"), "--model", str(paths["model"]),
         "--out", str(paths["retrieved"]), "--kappa-star", "10", "--k", "3"],
        ["eval", "--index", str(paths["index"]),
         "--rationales", str(DATA_DIR / "rationales.jsonl"),
         "--retrieved", str(paths["retrieved"]), "--ks", "1,3", "--out", str(paths["metrics"])],
        ["simulate", "--N", "20", "--n", "40", "--d", "32", "--R", "10", "--eps", "0.2",
         "--trials", "20", "--tests", "50", "--out", str(paths["sim"])],
    ]
    for args in chain:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "radkit", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{args[0]}: {proc.stderr}"
    elapsed = time.time() - start

    manifests_ok = True
    import hashlib

    for key in paths:
        manifest_path = paths[key].parent / (paths[key].name + ".manifest.json")
        if not manifest_path.exists():
            manifests_ok = False
            continue
        manifest = json.loads(manifest_path.read_text())
        for out_path, digest in manifest["outputs"].items():
            actual = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
            manifests_ok = manifests_ok and actual == digest

    rerun_out = tmp_path / "retrieved-rerun.jsonl"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "radkit",
         "rerank-infer", "--index", str(paths["index"]),
         "--questions", str(DATA_DIR / "rationales.jsonl"), "--model", str(paths["model"]),
         "--out", str(rerun_out), "--kappa-star", "10", "--k", "3"],
        capture_output=True, text=True,
    )
    rerunnable = proc.returncode == 0 and rerun_out.read_bytes() == paths["retrieved"].read_bytes()
    metrics = json.loads(paths["metrics"].read_text())
    ok = elapsed < 60.0 and manifests_ok and rerunnable and "hits" in metrics
    report(
        "end-to-end CLI chain on committed fixtures",
        ok,
        f"{elapsed:.1f}s < 60s, manifests={manifests_ok}, rerunnable={rerunnable}",
    )
