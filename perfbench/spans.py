"""Spans around radkit's layer boundaries, installed from outside the program.

``install`` rebinds public functions at the module attributes their callers
look them up through (``radkit.cli.load_index``, ``radkit.distill.retrieve``,
``radkit.reranker.featurize``, ``radkit.memsim.sample_task`` ...) with timing
wrappers, and ``uninstall`` puts the originals back. No radkit source is
edited. Each span records its name, start, end and parent; all spans of
one run share the tracer's run id and stay in memory until ``dump``.

Hot leaves called hundreds of thousands of times per run (the simulator's
per-query inference) are counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import uuid
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute) -> span name. A function imported into several
# modules is wrapped at each import site under one name.
SPANS = {
    ("corpus", "tokenize"): "corpus.tokenize",
    ("reranker", "tokenize"): "corpus.tokenize",
    ("cli", "load_corpus_jsonl"): "corpus.load_corpus_jsonl",
    ("cli", "build_index"): "corpus.build_index",
    ("cli", "serialize_index"): "corpus.serialize_index",
    ("cli", "load_index"): "corpus.load_index",
    ("distill", "retrieve"): "corpus.retrieve",
    ("reranker", "retrieve"): "corpus.retrieve",
    ("evaluation", "retrieve"): "corpus.retrieve",
    ("reranker", "bm25_score"): "corpus.bm25_score",
    ("cli", "ingest_rationales"): "distill.ingest_rationales",
    ("cli", "filter_rationales"): "distill.filter_rationales",
    ("cli", "retrieve_knowledge"): "distill.retrieve_knowledge",
    ("cli", "emit_training_example"): "distill.emit_training_example",
    ("cli", "training_jsonl_text"): "distill.training_jsonl_text",
    ("reranker", "featurize"): "reranker.featurize",
    ("cli", "build_candidate_set"): "reranker.build_candidate_set",
    ("cli", "candidates_jsonl_text"): "reranker.candidates_jsonl_text",
    ("cli", "read_candidates_jsonl"): "reranker.read_candidates_jsonl",
    ("cli", "train"): "reranker.train",
    ("cli", "serialize_model"): "reranker.serialize_model",
    ("cli", "load_model"): "reranker.load_model",
    ("reranker", "load_model"): "reranker.load_model",
    ("cli", "rerank_inference"): "reranker.rerank_inference",
    ("", "rerank_inference"): "reranker.rerank_inference",
    ("cli", "build_silver"): "evaluation.build_silver",
    ("cli", "hits_report"): "evaluation.hits_report",
    ("cli", "load_predictions_jsonl"): "evaluation.load_predictions_jsonl",
    ("cli", "accuracy"): "evaluation.accuracy",
    ("cli", "run_simulation"): "memsim.run_simulation",
    ("memsim", "sample_task"): "memsim.sample_task",
    ("memsim", "learn_budgeted"): "memsim.learn_budgeted",
    ("memsim", "learn_opt"): "memsim.learn_opt",
    ("memsim", "build_prefix_index"): "memsim.build_prefix_index",
    ("cli", "cmd_index"): "cli.index",
    ("cli", "cmd_emit_train"): "cli.emit-train",
    ("cli", "cmd_candidates"): "cli.candidates",
    ("cli", "cmd_rerank_train"): "cli.rerank-train",
    ("cli", "cmd_rerank_infer"): "cli.rerank-infer",
    ("cli", "cmd_eval"): "cli.eval",
    ("cli", "cmd_simulate"): "cli.simulate",
}

COUNTS = {
    ("memsim", "infer_budgeted"): "memsim.infer_budgeted",
    ("memsim", "infer_budgeted_traced"): "memsim.infer_budgeted_traced",
    ("memsim", "infer_opt"): "memsim.infer_opt",
}


STAGE_PREFIXES = ("cli.", "bench.")


class Tracer:
    span_names = frozenset(SPANS.values())

    def __init__(self, radkit):
        self.radkit = radkit
        self.run_id = uuid.uuid4().hex
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.counts: Counter = Counter()
        self._stack: list[int] = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []
        self._raw_tokenize = radkit.corpus.tokenize  # for counters, outside any span
        self.observe_s = 0.0  # time spent in counter observers

    # -- span recording -------------------------------------------------
    @contextlib.contextmanager
    def region(self, name: str):
        """One span around the enclosed code."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.region(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def _counter(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def _observe(self, observe, args, result):
        start = time.perf_counter()
        observe(args, result)
        self.observe_s += time.perf_counter() - start

    # -- counters read at the boundary, outside the timed call -----------
    def _observe_retrieve(self, args, result):
        index, query = args[0], args[1]
        df = 0
        for term in dict.fromkeys(self._raw_tokenize(query)):
            term_id = index.vocabulary.get(term)
            if term_id is not None:
                df += len(index.postings[term_id])
        self.counts["corpus.retrieve.postings_scanned"] += df
        self.counts["corpus.retrieve.empty"] += not result

    def _observe_filter(self, args, result):
        self.counts["distill.filter_rationales.in"] += sum(len(r.rationales) for r in args[0])
        self.counts["distill.filter_rationales.kept"] += sum(len(r.rationales) for r in result[0])

    def _observe_candidate_set(self, args, result):
        self.counts["reranker.build_candidate_set.docs"] += len(result.doc_ids)

    def _observe_budgeted(self, args, result):
        self.counts["memsim.kb_lookup"] += result[1] == self.radkit.memsim.CASE_KB_LOOKUP

    # -- installation ----------------------------------------------------
    def _module(self, name):
        return getattr(self.radkit, name) if name else self.radkit

    def install(self) -> None:
        observers = {
            "corpus.retrieve": self._observe_retrieve,
            "distill.filter_rationales": self._observe_filter,
            "reranker.build_candidate_set": self._observe_candidate_set,
            "memsim.infer_budgeted_traced": self._observe_budgeted,
        }
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for (mod_name, attr), name in table.items():
                module = self._module(mod_name)
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- reporting -------------------------------------------------------
    def overhead_s(self, span_cost: float, count_cost: float) -> float:
        """Wall time tracing added: wrapper calls times their unit cost, plus observers."""
        counted = sum(self.counts[name + ".calls"] for name in COUNTS.values())
        return len(self.spans) * span_cost + counted * count_cost + self.observe_s

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only the outermost span of a name, so a layer
        re-entered through another import site is not counted twice. Self
        time is the span minus its direct children; spans nest on one
        thread, so children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _id, parent, _name, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span, (stage, nested) in zip(self.spans, self._placement()):
            span_id, _parent, name, start, end = span
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[span_id]
            if not nested:
                row["s"] += end - start
        return out

    def by_stage(self) -> dict[str, dict[str, float]]:
        """Busy seconds of each layer inside each CLI stage and benchmark region."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, (stage, nested) in zip(self.spans, self._placement()):
            if not nested and stage != span[2]:
                out[stage][span[2]] += span[4] - span[3]
        return out

    def _placement(self) -> list[tuple[str, bool]]:
        """Per span: the stage or region it runs in, and whether a same-name span encloses it."""
        by_id = {s[0]: s for s in self.spans}
        placed = []
        for _id, parent, name, _start, _end in self.spans:
            stage, nested = name, False
            ancestor = by_id.get(parent)
            while ancestor is not None:
                nested = nested or ancestor[2] == name
                if ancestor[2].startswith(STAGE_PREFIXES):
                    stage = ancestor[2]
                ancestor = by_id.get(ancestor[1])
            placed.append((stage, nested))
        return placed

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "run_id": self.run_id,
                    "columns": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": self.counts,
                }
            )
        )


def wrapper_costs(radkit, calls: int = 20000, rounds: int = 5) -> tuple[float, float]:
    """Seconds one span wrapper and one counter wrapper add to a call.

    Measured on a no-op function against the bare call; each figure is the
    median of ``rounds`` rounds of ``calls`` calls.
    """

    def noop():
        return None

    probe = Tracer(radkit)
    fns = {"bare": noop, "span": probe._span("probe", noop), "count": probe._counter("probe", noop)}
    per_call: dict[str, list[float]] = {key: [] for key in fns}
    for _ in range(rounds):
        for key, fn in fns.items():
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            per_call[key].append((time.perf_counter() - start) / calls)
    bare = statistics.median(per_call["bare"])
    return (
        max(0.0, statistics.median(per_call["span"]) - bare),
        max(0.0, statistics.median(per_call["count"]) - bare),
    )
