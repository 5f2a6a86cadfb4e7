"""radkit benchmark: CLI stages end to end, query latency, per-layer traces.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kard-5k --seed 1 --seconds 50 --trace 0

Each run generates its inputs from the seed in a child process (see
``gen.py`` and ``oracle.py``; generation and the exhaustive scorer are not
timed and do not count toward peak RSS), sets up by importing radkit and
running the ``index`` stage twice, then cycles through the workload's stage
sequence, with a ``simulate`` invocation after each stage and a few loop
questions after each invocation, until ``--seconds`` is spent, and sets up
once more. The loop questions are asked in a closed loop (one client, one
``radkit.rerank_inference`` call at a time, scored through the score file).
Every stage runs in-process through ``radkit.cli.main(argv)``.

Repeated timings of the same work are summarised by their 90th percentile.
On a shared host the same invocation runs at one of two speeds about 2x
apart (other tenants' load), switching every few seconds, and the share of
time at the faster speed drifts from minute to minute, from almost none to
most of a run. The slower speed shows up in nearly every run, so the upper
end of a run's repeats reads the same from run to run, where its mean,
median or fastest repeat follows that share. So a stage's time is the 90th
percentile of its invocations (about ten, spread evenly over the run); a
loop question's latency is the 90th percentile of its asks (five to ten),
and query_p50_ms / query_p90_ms are percentiles of that over the 100
questions.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the run makes one traced pass (``spans.py`` wraps
radkit's layer functions from outside) and reports the per-layer metrics
that ``BENCHMARK.json`` names, plus the tracing overhead.

The correctness gate (retrieval against an exhaustive scorer, planted
counts, rerank results inside the BM25 top-kappa*, Hits@10 > 0, simulator
bit budgets, byte-identical outputs on every invocation) sets ``correct`` and
the exit code. Machine facts, output sha256s and sample counts go to
stderr and to ``.perfbench/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread: the benchmark shares a few cores with other tenants, and
# more threads than cores would time the scheduler. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from gen import Shape  # noqa: E402
from oracle import Planted  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
KAPPA_STAR = 100
INFER_K = 10
# Set-ups before and after the timed stages (so that they span the run); setup_s
# is the median of all of them.
SETUP_BEFORE, SETUP_AFTER = 2, 1


@dataclass(frozen=True)
class Workload:
    """A pipeline configuration sized so that one layer dominates."""

    shape: Shape
    emit_k: int
    kappa1: int
    kappa2: int
    epochs: int
    scorer: str  # rerank-infer's: "score-file" (external scores) or "model" (trained reranker)
    sim_trials: int  # per simulate invocation; one runs after every other stage
    questions_per_pass: int  # loop questions asked per pass of the stage sequence
    sim_sweep: str | None = None  # None: one config at R=100

    @property
    def infer_loop(self) -> bool:
        """rerank-infer also runs over loop questions (a second invocation)."""
        return self.shape.infer_questions > 0

    @property
    def stages(self) -> tuple[str, ...]:
        """The stages a pass runs in order, each followed by a simulate invocation."""
        return STAGES[:4] + (("rerank-infer-loop",) if self.infer_loop else ()) + STAGES[4:5]

    @property
    def sim_configs(self) -> int:
        return len(_sweep_values(self.sim_sweep)) if self.sim_sweep else 1

    def simulate_args(self) -> list[str]:
        args = ["--N", "100", "--n", "100", "--d", "128", "--eps", "0.1",
                "--trials", str(self.sim_trials), "--tests", str(SIM_TESTS)]
        return args + (["--sweep", self.sim_sweep] if self.sim_sweep else ["--R", "100"])


def _sweep_values(spec: str) -> range:
    start, stop, step = (int(x) for x in spec.partition("=")[2].split(":"))
    return range(start, stop + 1, step)


SIM_TESTS = 500
MIN_PASSES = 2  # every stage runs at least twice, so that its outputs can be compared

# A pass is the stage sequence with a simulate invocation after every stage
# and questions_per_pass loop questions, a few after each invocation (see
# Run.step); passes repeat until the run's time is spent, and the last may
# stop part-way. Inputs are sized so that a pass takes a few seconds, a run
# makes several, and each invocation does enough work (eight records, 100
# loop questions) that its cost varies little from seed to seed.
WORKLOADS = {
    # Retrieval-bound: 5k passages, an index larger than the CPU caches and
    # reloaded by every stage, 40-term rationale queries; the external score
    # file bypasses featurization in rerank-infer and in the query loop. Each
    # loop question is asked every other pass.
    "kard-5k": Workload(
        shape=Shape(docs=5000, records=8, loop_questions=100, predictions=400),
        emit_k=3, kappa1=8, kappa2=8, epochs=10, scorer="score-file", sim_trials=10,
        questions_per_pass=50,
    ),
    # Reranker-bound: 2k passages (an index under half the size), eight records,
    # a trained E=256 model scoring every BM25 candidate in rerank-infer, which
    # also runs over 16 loop questions. Its simulate invocations are the README
    # desk sweep over the knowledge-base size R, four trials per config, so the
    # simulator's scaling with R is measured here too.
    "rerank-2k": Workload(
        shape=Shape(docs=2000, records=8, loop_questions=100, infer_questions=16,
                    predictions=200),
        emit_k=3, kappa1=16, kappa2=8, epochs=15, scorer="model", sim_trials=4,
        questions_per_pass=100, sim_sweep="R=0:200:50",
    ),
}

STAGES = ("emit-train", "candidates", "rerank-train", "rerank-infer", "eval", "simulate")
# Each stage's output, whose bytes must not change from one invocation to the next.
OUTPUT_OF = {
    "emit-train": "examples", "candidates": "cands", "rerank-train": "model",
    "rerank-infer": "retrieved", "rerank-infer-loop": "retrieved_loop", "eval": "metrics",
    "simulate": "sim",
}


def import_radkit():
    """Import radkit afresh from ``src`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "radkit" or m.startswith("radkit.")]:
        del sys.modules[name]
    importlib.import_module("radkit.cli")
    return sys.modules["radkit"]


class Run:
    def __init__(self, name: str, wl: Workload, seed: int, work: Path):
        self.name, self.wl, self.seed, self.work = name, wl, seed, work
        # Operations are stages (failed: nonzero or raised) and queries (failed: raised).
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.sim_reports: list = []
        self.tracer = None
        # Run-wide samples: each invocation's seconds per stage, each ask's
        # latency per question, each question's first answer, each output's sha256s.
        self.stage_s: dict[str, list[float]] = defaultdict(list)
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.answers: dict[str, list[str]] = {}
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.f = {
            k: str(work / v)
            for k, v in {
                "corpus": "corpus.jsonl", "rationales": "rationales.jsonl",
                "infer_questions": "infer_questions.jsonl", "scores": "scores.jsonl",
                "predictions": "predictions.jsonl", "index": "index.json",
                "examples": "examples.jsonl", "cands": "cands.jsonl", "model": "model.json",
                "retrieved": "retrieved.jsonl", "retrieved_loop": "retrieved_loop.jsonl",
                "metrics": "metrics.json", "sim": "sim.csv",
            }.items()
        }
        self.index_argv = ["index", "--corpus", self.f["corpus"], "--out", self.f["index"]]
        self.outputs = [OUTPUT_OF[stage] for stage in wl.stages + ("simulate",)]

    def region(self, name: str):
        return self.tracer.region(name) if self.tracer else contextlib.nullcontext()

    def stage(self, argv: list[str]) -> float:
        """Run one CLI stage in-process; return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.radkit.cli.main(argv + ["--quiet"])
        except Exception:  # a stage that raises is a failed stage, like one returning nonzero
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            print(f"stage {argv[0]} failed with code {rc}", file=sys.stderr)
        return elapsed

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    # -- set-up ------------------------------------------------------------
    def setup(self, repeats: int) -> list[float]:
        """Import radkit afresh and build the index, repeatedly; return each time."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.radkit = import_radkit()
            self.stage(self.index_argv)
            times.append(time.perf_counter() - start)
        # The simulate stage's reports, kept for the bit-budget check.
        original = self.radkit.cli.run_simulation

        def recording(config):
            report = original(config)
            self.sim_reports.append(report)
            return report

        self.radkit.cli.run_simulation = recording
        return times

    # -- the timed stages and queries ------------------------------------------
    def stage_argv(self) -> dict[str, list[str]]:
        f, wl = self.f, self.wl

        def infer(questions, out):
            argv = ["rerank-infer", "--index", f["index"], "--questions", f[questions],
                    "--out", f[out], "--kappa-star", str(KAPPA_STAR), "--k", str(INFER_K)]
            if wl.scorer == "score-file":
                return argv + ["--score-file", f["scores"]]
            return argv + ["--model", f["model"]]

        argv = {
            "emit-train": ["emit-train", "--index", f["index"], "--rationales", f["rationales"],
                           "--out", f["examples"], "--k", str(wl.emit_k)],
            "candidates": ["candidates", "--index", f["index"], "--rationales", f["rationales"],
                           "--out", f["cands"], "--kappa1", str(wl.kappa1),
                           "--kappa2", str(wl.kappa2)],
            "rerank-train": ["rerank-train", "--index", f["index"], "--candidates", f["cands"],
                             "--out", f["model"], "--epochs", str(wl.epochs)],
            "rerank-infer": infer("rationales", "retrieved"),
            "rerank-infer-loop": infer("infer_questions", "retrieved_loop"),
            "eval": ["eval", "--index", f["index"], "--rationales", f["rationales"],
                     "--retrieved", f["retrieved"], "--predictions", f["predictions"],
                     "--ks", "1,3,10", "--out", f["metrics"]],
            "simulate": ["simulate", *wl.simulate_args(), "--seed", str(self.seed), "--out", f["sim"]],
        }
        return argv

    def step(self, stage: str, argv: dict, ask) -> None:
        """One stage, then a simulate invocation; ``ask()`` after each."""
        for name in (stage, "simulate"):
            self.stage_s[name].append(self.stage(argv[name]))
            out = Path(self.f[OUTPUT_OF[name]])
            self.digests[OUTPUT_OF[name]].add(sha256(out) if out.exists() else None)
            ask()

    def query_loop(self, index, questions, scorer_for) -> None:
        """Closed loop, one client: each call starts when the previous returns."""
        for qid, question in questions:
            scorer = scorer_for(qid)
            self.attempted += 1
            start = time.perf_counter()
            try:
                ranked = self.radkit.rerank_inference(
                    index, scorer, question, kappa_star=KAPPA_STAR, k=INFER_K
                )
            except self.radkit.errors.RadkitError as exc:
                self.failed += 1
                print(f"query {qid} failed: {exc}", file=sys.stderr)
                continue
            self.latencies[qid].append(time.perf_counter() - start)
            doc_ids = [sd.doc_id for sd in ranked]
            self.check(self.answers.setdefault(qid, doc_ids) == doc_ids,
                       f"query {qid} returned different results on two asks")

    # -- correctness gate ----------------------------------------------------
    def check_retrieval(self, planted: Planted, index) -> None:
        """A sample of retrieve() results equals the exhaustive scorer exactly."""
        for query, expected in planted.exact:
            got = [(sd.doc_id, sd.score) for sd in self.radkit.retrieve(index, query, KAPPA_STAR)]
            self.check(got == expected,
                       f"retrieve disagrees with the exhaustive scorer on {query[:40]!r}")

    def check_outputs(self, planted: Planted) -> None:
        f, truth = self.f, planted.truth
        missing = [k for k in self.outputs if not Path(f[k]).exists()]
        if missing:
            self.check(False, f"stage outputs missing: {missing}")
            return
        for key, what in (("examples", "examples"), ("cands", "candidate sets")):
            written = len(read_jsonl(f[key]))
            self.check(written == truth.kept_rationales,
                       f"wrote {written} {what}, planted {truth.kept_rationales} kept rationales")

        def inside_top(qid, doc_ids):
            return set(doc_ids) <= planted.top_ids[qid]

        asked = {"retrieved": len(truth.record_ids),
                 "retrieved_loop": self.wl.shape.infer_questions}
        for key in asked.keys() & set(self.outputs):
            stage_rows = read_jsonl(f[key])
            self.check(len(stage_rows) == asked[key],
                       f"rerank-infer wrote {len(stage_rows)} rows to {key}, asked {asked[key]}")
            for row in stage_rows:
                self.check(inside_top(row["id"], row["doc_ids"]),
                           f"rerank-infer result for {row['id']} is outside the BM25 top-kappa*")
        for qid, doc_ids in self.answers.items():
            self.check(inside_top(qid, doc_ids),
                       f"query-loop result for {qid} is outside the BM25 top-kappa*")
        report = json.loads(Path(f["metrics"]).read_text())
        self.check(report["hits"]["10"] > 0, "Hits@10 is 0")
        expected = truth.correct_bundles / truth.predictions
        self.check(report["accuracy"] == expected,
                   f"accuracy {report['accuracy']} != planted {expected}")
        self.check(len(self.sim_reports) > 0, "simulate produced no report")
        for rep in self.sim_reports:
            self.check(rep.max_bits_phi <= rep.bits_budget,
                       f"simulate stored {rep.max_bits_phi} bits over budget {rep.bits_budget}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def machine_facts() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "rusage": {k: getattr(usage, k) for k in dir(usage) if k.startswith("ru_")},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat_s(times: list[float]) -> float:
    """90th percentile (linear interpolation) of repeated timings of the same work."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float) -> dict:
    wl, truth = run.wl, run.truth
    stage_s = {stage: repeat_s(times) for stage, times in run.stage_s.items()}
    # Work one invocation of each stage does, and the stages each metric times.
    items = {
        "emit-train": truth.kept_rationales,
        "candidates": truth.kept_rationales,
        "rerank-train": truth.kept_rationales * wl.epochs,
        "rerank-infer": len(truth.record_ids) + wl.shape.infer_questions,
        "eval": len(truth.record_ids) + truth.predictions,
        "simulate": wl.sim_configs * wl.sim_trials * SIM_TESTS,
    }
    timed = {stage: [stage] for stage in items}
    timed["rerank-infer"] = [s for s in stage_s if s.startswith("rerank-infer")]

    def rate(stage):
        """Work per second of one invocation at the stage's repeat time."""
        return items[stage] / sum(stage_s[s] for s in timed[stage])

    question_s = [repeat_s(times) for times in run.latencies.values()]

    def latency_ms(q):
        """Percentile over loop questions of each one's repeat latency."""
        return percentile(question_s, q) * 1e3

    # One pass of the stage sequence (a simulate invocation after each
    # stage), each invocation at its stage's repeat time.
    pipeline_s = sum(stage_s[s] for s in wl.stages) + len(wl.stages) * stage_s["simulate"]
    return {
        "setup_s": metric(setup_s, "s"),
        "pipeline_s": metric(pipeline_s, "s"),
        "emit_train_examples_per_s": metric(rate("emit-train"), "1/s"),
        "candidates_sets_per_s": metric(rate("candidates"), "1/s"),
        "rerank_train_set_epochs_per_s": metric(rate("rerank-train"), "1/s"),
        "rerank_infer_qps": metric(rate("rerank-infer"), "1/s"),
        "eval_examples_per_s": metric(rate("eval"), "1/s"),
        "query_p50_ms": metric(latency_ms(0.5), "ms"),
        "query_p90_ms": metric(latency_ms(0.9), "ms"),
        "simulate_tests_per_s": metric(rate("simulate"), "1/s"),
        "index_bytes": metric(Path(run.f["index"]).stat().st_size, "bytes"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, overhead_s: float, error_rate: float) -> dict:
    """Every per-layer metric BENCHMARK.json names.

    A name ``<span>.calls``, ``<span>.s`` or ``<span>.self_s`` is read from
    the span table (0 when the workload never enters the layer); the other
    names are counters and ratios computed below.
    """
    layers, counts = tracer.layers(), tracer.counts

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    candidate_sets = layers.get("reranker.build_candidate_set", {}).get("calls", 0)
    derived = {
        "corpus.retrieve.postings_scanned": (counts["corpus.retrieve.postings_scanned"], "count"),
        "corpus.retrieve.empty": (counts["corpus.retrieve.empty"], "count"),
        "distill.filter_rationales.kept_ratio": (
            ratio("distill.filter_rationales.kept", "distill.filter_rationales.in"), "ratio"),
        "reranker.build_candidate_set.mean_size": (
            counts["reranker.build_candidate_set.docs"] / candidate_sets if candidate_sets else 0.0,
            "count"),
        "memsim.infer_budgeted.calls": (counts["memsim.infer_budgeted.calls"], "count"),
        "memsim.infer_opt.calls": (counts["memsim.infer_opt.calls"], "count"),
        "memsim.kb_lookup_ratio": (
            ratio("memsim.kb_lookup", "memsim.infer_budgeted_traced.calls"), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
        "op_error_rate": (error_rate, "ratio"),
    }
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for name in (m["name"] for m in benchmark["per_layer"]):
        if name in derived:
            out[name] = metric(*derived[name])
            continue
        span, _, field = name.rpartition(".")
        if field not in ("calls", "s", "self_s") or span not in tracer.span_names:
            raise KeyError(f"per-layer metric {name} names no span field")
        out[name] = metric(layers.get(span, {}).get(field, 0), "count" if field == "calls" else "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radkit" / "__init__.py").is_file():
        print(f"error: no radkit source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(args.workload, wl, args.seed, work)
    try:
        return execute(run, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def plant_in_child(run: Run) -> Planted:
    """Generate the inputs and the gate's expected answers in a child process."""
    oracle_py = Path(__file__).with_name("oracle.py")
    argv = [str(run.work), str(run.seed), str(KAPPA_STAR), json.dumps(asdict(run.wl.shape))]
    child = subprocess.run([sys.executable, str(oracle_py), *argv],
                           stdout=subprocess.PIPE, text=True, check=True)
    return Planted.from_json(child.stdout)


def execute(run: Run, args) -> int:
    planted = plant_in_child(run)
    run.truth = truth = planted.truth
    wl = run.wl
    setup_times = run.setup(SETUP_BEFORE)
    radkit = run.radkit
    index = radkit.load_index(run.f["index"])
    run.check_retrieval(planted, index)

    # The query loop always scores through the score file, also where the
    # rerank-infer stage uses the trained model: this host's speed is
    # bimodal, and the featurizing model path's per-call latency (~30 or
    # ~45 ms on rerank-2k) split its median between the two modes run by run.
    # The model path is timed by the rerank-infer stage instead.
    scorer_for = radkit.reranker.FileScorer.load(run.f["scores"]).for_example

    # The benchmark's own long-lived objects (its copy of the index above all)
    # are moved out of the collector's reach, so that stages do not pay for
    # traversing them as a stand-alone CLI process would not.
    gc.collect()
    gc.freeze()

    tracer = None
    stages, argv = wl.stages, run.stage_argv()
    questions = itertools.cycle(truth.loop_questions)
    per_ask = math.ceil(wl.questions_per_pass / (2 * len(stages)))

    def ask():
        with run.region("bench.query-loop"):
            run.query_loop(index, itertools.islice(questions, per_ask), scorer_for)

    def one_pass():
        for stage in stages:
            run.step(stage, argv, ask)

    if args.trace:
        from spans import Tracer, wrapper_costs

        span_cost, count_cost = wrapper_costs(radkit)
        tracer = run.tracer = Tracer(radkit)
        tracer.install()
        try:
            run.stage(run.index_argv)
            one_pass()
        finally:
            tracer.uninstall()
            run.tracer = None
    else:
        # Steps cycle through the stage sequence; stop before a step that
        # would end after the deadline (judged by that stage's last step),
        # once MIN_PASSES whole passes are done.
        deadline = time.perf_counter() + args.seconds
        step_s: dict[str, float] = {}
        for done, stage in enumerate(itertools.cycle(stages), start=1):
            start = time.perf_counter()
            run.step(stage, argv, ask)
            now = time.perf_counter()
            step_s[stage] = now - start
            upcoming = stages[done % len(stages)]
            if done >= MIN_PASSES * len(stages) and now + step_s[upcoming] > deadline:
                break
        setup_times += run.setup(SETUP_AFTER)

    run.check_outputs(planted)
    for key in run.outputs:
        digests = run.digests[key]
        run.check(len(digests) == 1 and None not in digests,
                  f"{key} output differs between invocations or is missing")
    run.check(run.failed == 0, f"{run.failed} operations failed")

    if args.trace:
        overhead_s = tracer.overhead_s(span_cost, count_cost)
        metrics = per_layer(tracer, overhead_s, run.failed / run.attempted)
    else:
        metrics = end_to_end(run, statistics.median(setup_times))

    report = {
        "workload": run.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "passes": min(len(run.stage_s[stage]) for stage in stages),
        "query_questions": len(run.latencies),
        "query_samples": sum(map(len, run.latencies.values())),
        "setup_s": setup_times,
        "stage_s": run.stage_s,
        "query_ms": {qid: [t * 1e3 for t in times] for qid, times in run.latencies.items()},
        "sha256": {key: sorted(map(str, run.digests[key])) for key in run.outputs}
        | {"index": [sha256(Path(run.f["index"]))]},
        "problems": run.problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{run.name}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        report["run_id"] = tracer.run_id
        report["layers_by_stage"] = tracer.by_stage()
        tracer.dump(OUT / f"{stem}.trace.json")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_summary(report)

    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def print_summary(report: dict) -> None:
    err = sys.stderr
    m = report["machine"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['passes']} whole passes, {report['query_samples']} query samples "
          f"over {report['query_questions']} questions", file=err)
    print(f"python {m['python'].split()[0]} numpy {m['numpy']} cpus {m['cpu_count']} "
          f"affinity {m['affinity']}", file=err)
    for name, digests in sorted(report["sha256"].items()):
        print(f"sha256 {name} {' '.join(digests)}", file=err)
    for name, v in report["metrics"].items():
        print(f"{name} {v['value']:.6g} {v['unit']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
