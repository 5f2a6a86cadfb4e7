"""The layer tracer's view of the package.

``perfbench/spans.py`` wraps functions at the module attributes listed in
its SPANS and COUNTS tables, and its retrieve counter reads the index's
``vocabulary`` and ``postings``. A refactor that drops one of those names
would otherwise surface only in a traced benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import radkit
import radkit.cli
from radkit.corpus import Document, build_index, tokenize
from radkit.memsim import SimConfig

from helpers import DATA_DIR

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _spans_module()
    missing = []
    for module, attr in {**spans.SPANS, **spans.COUNTS}:
        owner = importlib.import_module(f"radkit.{module}" if module else "radkit")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing, missing


def test_postings_scanned_counts_each_query_terms_postings():
    docs = [
        Document("a", "", "fever cough fever"),
        Document("b", "", "fever chills"),
        Document("c", "", "cold"),
        Document("d", "", "chills fever"),
    ]
    index = build_index(docs)
    query = "Fever chills fever zebra"
    tracer = _spans_module().Tracer(radkit)
    tracer.install()
    try:
        radkit.distill.retrieve(index, query, 2)
    finally:
        tracer.uninstall()
    doc_freq = sum(
        sum(term in tokenize(d.text) for d in docs) for term in dict.fromkeys(tokenize(query))
    )
    assert doc_freq == 5
    assert tracer.counts["corpus.retrieve.postings_scanned"] == doc_freq
    assert tracer.layers()["corpus.retrieve"]["calls"] == 1


def test_simulator_layers_are_traced_once_per_trial():
    """run_simulation reaches the simulator's layers through the module
    attributes the tracer rebinds, one call of each per trial."""
    config = SimConfig(N=6, n=10, d=16, R=4, eps=0.2, trials=3, tests_per_trial=20)
    tracer = _spans_module().Tracer(radkit)
    tracer.install()
    try:
        radkit.memsim.run_simulation(config)
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    for name in ("sample_task", "learn_budgeted", "learn_opt", "build_prefix_index"):
        assert layers[f"memsim.{name}"]["calls"] == 3, name


@pytest.mark.parametrize("mode, kept", [("answer-match", 5), ("none", 7)])
def test_filtered_stages_call_the_traced_names(tmp_path, mode, kept):
    """``emit-train`` and ``candidates`` filter, retrieve, emit and build through the ``cli``
    attributes the tracer wraps, one filter call per stage under every ``--filter`` mode.

    The fixture has 7 rationales; 5 declare the gold answer.
    """
    rationales = DATA_DIR / "rationales.jsonl"
    lines = rationales.read_text().splitlines()
    assert sum(len(json.loads(line)["rationales"]) for line in lines) == 7
    index = tmp_path / "index.npz"
    corpus = DATA_DIR / "corpus.jsonl"
    assert radkit.cli.main(["index", "--corpus", str(corpus), "--out", str(index), "--quiet"]) == 0
    common = ["--index", str(index), "--rationales", str(rationales), "--filter", mode, "--quiet"]
    tracer = _spans_module().Tracer(radkit)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert radkit.cli.main(["emit-train", *common, "--out", str(tmp_path / "t.jsonl")]) == 0
            assert radkit.cli.main(["candidates", *common, "--out", str(tmp_path / "c.jsonl")]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    assert layers["distill.filter_rationales"]["calls"] == 2
    assert tracer.counts["distill.filter_rationales.in"] == 2 * 7
    assert tracer.counts["distill.filter_rationales.kept"] == 2 * kept
    assert layers["distill.retrieve_knowledge"]["calls"] == kept
    assert layers["distill.emit_training_example"]["calls"] == kept
    assert layers["reranker.build_candidate_set"]["calls"] == kept
