"""Command-line pipeline: composable stages over JSONL/JSON files.

Each subcommand reads files, writes its outputs atomically, and records a
run manifest (parameters, input digests, tool version) so multi-stage
experiments are reproducible. Outputs are byte-identical across reruns
with the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    DEFAULT_B,
    DEFAULT_K1,
    build_index,
    load_corpus_jsonl,
    load_index,
    serialize_index,
)
from .distill import (
    TrainingTemplate,
    answer_matches,
    emit_training_example,
    filter_rationales,
    ingest_rationales,
    load_verdicts,
    retrieve_knowledge,
    training_jsonl_text,
)
from .errors import _LINE_BREAKS, MissingSilver, RadkitError
from .evaluation import (
    accuracy,
    build_silver,
    hits_report,
    load_predictions_jsonl,
)
from .memsim import SimConfig, run_simulation
from .reranker import (
    DEFAULT_EMBEDDING_DIM,
    DEFAULT_KAPPA1,
    DEFAULT_KAPPA2,
    DEFAULT_KAPPA_STAR,
    DEFAULT_TAU1,
    DEFAULT_TAU2,
    FileScorer,
    RerankerModel,
    build_candidate_set,
    candidates_jsonl_text,
    load_model,
    read_candidates_jsonl,
    rerank_batch,
    serialize_model,
    train,
)
from .reranker import rerank_inference  # noqa: F401 (perfbench/spans.py wraps it here)
from .records import atomic_write, field, jsonl_text, read_jsonl


def _digests(paths: list) -> dict[str, str]:
    """The sha256 of each file in ``paths`` (None skipped), keyed by its path."""
    digests = {}
    for path in filter(None, paths):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
        digests[str(Path(path))] = h.hexdigest()
    return digests


def _option_file(value: str, prefix: str) -> str | None:
    """The path in an option value ``<prefix><path>``, such as ``verdict-file:v.jsonl``."""
    return value[len(prefix):] if value.startswith(prefix) else None


def _params(args) -> dict:
    """Every option of the stage but its ``inputs`` files, --out, --quiet and --manifest-out."""
    skip = {"command", "func", "inputs", "out", "quiet", "manifest_out", *args.inputs}
    return {name: value for name, value in vars(args).items() if name not in skip}


def _inputs(args) -> list:
    """The files the stage reads: the parser's ``inputs``, a ``verdict-file:`` or ``custom:``
    file (None where a flag is not given)."""
    params = _params(args)
    inputs = [getattr(args, name) for name in args.inputs]
    inputs.append(_option_file(params.get("filter", ""), "verdict-file:"))
    inputs.append(_option_file(params.get("template", ""), "custom:"))
    return inputs


def _manifest_path(args) -> str | None:
    """``--manifest-out``, else the path next to ``--out``; None with neither."""
    return args.manifest_out or (args.out and f"{Path(args.out)}.manifest.json")


def _check_outputs(args) -> None:
    """Raise ValueError if the manifest names the ``--out`` file, or either names a file the
    stage reads. ``main`` runs this before the stage, so a refused stage does no work."""
    target = _manifest_path(args)
    if args.out and Path(target).resolve() == Path(args.out).resolve():
        raise ValueError(f"--manifest-out names the --out file {args.out}")
    read = {Path(path).resolve(): path for path in filter(None, _inputs(args))}
    for name, out in (("--out", args.out), ("the manifest", target)):
        if out and (path := read.get(Path(out).resolve())):
            raise ValueError(f"{name} {out} names the input file {path}")


def _finish(args, text: str | bytes, summary: str | None = None) -> int:
    """The end of every stage: ``text`` to ``--out`` with the run manifest, then stdout.

    The manifest goes to ``_manifest_path``. It holds the subcommand, its
    ``_params``, and the digests of the output and of the ``_inputs``. The two
    are written as a pair: if either fails, neither is replaced. ``summary`` is
    printed unless ``--quiet``; with none, ``text`` is.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    files = {args.out: data} if args.out else {}
    target = _manifest_path(args)
    if target:
        manifest = {
            "tool": "radkit",
            "version": __version__,
            "command": args.command,
            "params": _params(args),
            "inputs": _digests(_inputs(args)),
            "outputs": {str(Path(out)): hashlib.sha256(data).hexdigest() for out in files},
        }
        files[target] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    atomic_write(files)
    if summary is None:
        print(text, end="")
    elif not args.quiet:
        print(summary)
    return 0


def cmd_index(args) -> int:
    index = build_index(load_corpus_jsonl(args.corpus), k1=args.k1, b=args.b)
    summary = f"indexed {index.doc_count} documents, avg_doc_length={index.avg_doc_length:.4f}"
    return _finish(args, serialize_index(index), summary)


def _kept_rationales(args) -> tuple[list, int]:
    """The (record, j) of each rationale the ``--filter`` keep rule keeps, and the count dropped.

    ``record`` holds only its kept rationales, so ``j`` counts kept rationales.
    """
    records = ingest_rationales(args.rationales)
    rules = {"answer-match": answer_matches, "none": lambda record, j: True}
    verdicts = _option_file(args.filter, "verdict-file:")
    keep = load_verdicts(verdicts) if verdicts is not None else rules.get(args.filter)
    if keep is None:
        raise ValueError(f"unknown --filter mode {args.filter!r}")
    records, drops = filter_rationales(records, keep)
    kept = [(record, j) for record in records for j in range(len(record.rationales))]
    return kept, sum(drops.values())


def cmd_emit_train(args) -> int:
    if args.max_knowledge_chars is not None and args.max_knowledge_chars < 1:
        raise ValueError(f"--max-knowledge-chars must be >= 1, got {args.max_knowledge_chars}")
    index = load_index(args.index)
    kept, dropped = _kept_rationales(args)
    template = TrainingTemplate.named(args.template, with_knowledge=not args.no_knowledge)
    examples = []
    for record, j in kept:
        scored = retrieve_knowledge(index, record, j, args.k) if template.with_knowledge else []
        docs = [index.document(sd.doc_id) for sd in scored]
        examples.append(emit_training_example(record, j, docs, template, args.max_knowledge_chars))
    summary = f"emitted {len(examples)} training examples ({dropped} rationales filtered out)"
    return _finish(args, training_jsonl_text(examples), summary)


def cmd_candidates(args) -> int:
    index = load_index(args.index)
    kept, _ = _kept_rationales(args)
    sets = [build_candidate_set(index, record, j, args.kappa1, args.kappa2) for record, j in kept]
    return _finish(args, candidates_jsonl_text(sets), f"built {len(sets)} candidate sets")


def cmd_rerank_train(args) -> int:
    index = load_index(args.index)
    sets = read_candidates_jsonl(args.candidates, index)
    model = RerankerModel.identity(args.dim, hash_seed=args.hash_seed)
    trained, trace = train(
        model, sets, index, epochs=args.epochs, lr=args.lr, tau1=args.tau1, tau2=args.tau2
    )
    epoch = next((e for e, loss in enumerate(trace) if not math.isfinite(loss)), None)
    if epoch is not None:
        raise ValueError(f"training diverged at epoch {epoch} (loss {trace[epoch]}); no model written")
    summary = f"trained {args.epochs} epochs, loss {trace[0]:.6f} -> {trace[-1]:.6f}"
    return _finish(args, serialize_model(trained), summary)


def cmd_rerank_infer(args) -> int:
    if args.model and args.score_file:
        raise ValueError("--model and --score-file are two scorers: pass only one")
    index = load_index(args.index)
    file_scorer = FileScorer.load(args.score_file) if args.score_file else None
    model = load_model(args.model) if args.model else None
    questions = read_jsonl(args.questions, lambda obj: (field(obj, "id"), field(obj, "question")))
    if file_scorer:
        model = [file_scorer.for_example(example_id) for example_id, _ in questions]
    elif model is None:
        model = RerankerModel.identity()
    texts = [question for _, question in questions]
    ranked = rerank_batch(index, model, texts, args.kappa_star, args.k)
    rows = [
        {"id": example_id, "doc_ids": [sd.doc_id for sd in r], "scores": [sd.score for sd in r]}
        for (example_id, _), r in zip(questions, ranked)
    ]
    return _finish(args, jsonl_text(rows), f"reranked {len(rows)} questions")


def _retrieved_list(obj: dict, silver: dict, seen: set) -> tuple[str, tuple[str, ...]]:
    """A retrieved line's id and doc ids; an id with no silver set raises MissingSilver, and an
    id in ``seen``, the ids of the lines before, raises ValueError."""
    example_id, doc_ids = field(obj, "id"), field(obj, "doc_ids", many=True)
    if example_id not in silver:
        raise MissingSilver(example_id)
    if example_id in seen:
        raise ValueError(f"repeated id {example_id!r}: an example has one retrieved list")
    seen.add(example_id)
    return example_id, doc_ids


def cmd_eval(args) -> int:
    report: dict = {}
    if args.retrieved:
        if not args.index or not args.rationales:
            raise ValueError("--retrieved requires --index and --rationales for silver sets")
        if args.j_gold < 0:
            raise ValueError(f"--j-gold must be >= 0, got {args.j_gold}")
        try:
            ks = [int(k) for k in args.ks.split(",")]
        except ValueError as exc:
            raise ValueError(f"--ks {args.ks!r}: {exc}") from None
        index = load_index(args.index)
        records = ingest_rationales(args.rationales)
        silver = {
            r.example_id: build_silver(index, r, args.j_gold)
            for r in records
            if len(r.rationales) > args.j_gold
        }
        seen: set[str] = set()
        retrieved = dict(read_jsonl(args.retrieved, lambda obj: _retrieved_list(obj, silver, seen)))
        mode = "all" if args.all_silver else "any"
        report.update(hits_report(retrieved, silver, ks, mode))
    elif args.index or args.rationales:
        raise ValueError("--index and --rationales are read only with --retrieved")
    if args.predictions:
        bundles = load_predictions_jsonl(args.predictions)
        report["accuracy"] = accuracy(bundles)
        report.setdefault("counts", {})["predictions"] = len(bundles)
    if not report:
        raise ValueError("nothing to evaluate: pass --retrieved and/or --predictions")
    return _finish(args, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _parse_sweep(spec: str) -> tuple[str, list]:
    """``param=start:stop:step`` as the parameter and its values from start to stop."""
    param, _, bounds = spec.partition("=")
    parts = bounds.split(":")
    try:
        if len(parts) != 3:
            raise ValueError("expected param=start:stop:step")
        start, stop, step = (float(x) if param == "eps" else int(x) for x in parts)
        if not (start < start + step and math.isfinite(stop)):
            raise ValueError("need a step above 0 and a finite start and stop")
        values = []
        while start <= stop + 1e-12:  # round() leaves ints as they are
            values.append(round(start, 12))
            start += step
        if not values:
            raise ValueError("start is above stop, so there is nothing to run")
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"--sweep {spec!r}: {exc}") from None
    return param, values


def cmd_simulate(args) -> int:
    base = _params(args)
    if base.pop("sweep"):
        param, values = _parse_sweep(args.sweep)
        if param not in base:
            raise ValueError(f"--sweep {args.sweep!r}: unknown parameter {param!r}")
        columns = [
            ("m", ""), ("err_phi", ".6f"), ("se_phi", ".6f"), ("err_opt", ".6f"),
            ("se_opt", ".6f"), ("err_naive", ".6f"), ("se_naive", ".6f"), ("gap", ".6f"),
            ("mean_bits_phi", ".2f"), ("bits_naive", ".2f"), ("bits_budget", ""),
        ]
        lines = [",".join(["param", "value", *(name for name, _ in columns)])]
        for value in values:
            rep = run_simulation(SimConfig(**{**base, param: value}))
            cells = (format(getattr(rep, name), spec) for name, spec in columns)
            lines.append(",".join([param, str(value), *cells]))
        text = "\n".join(lines) + "\n"
    else:
        report = run_simulation(SimConfig(**base))
        text = report.to_json() + "\n"
    return _finish(args, text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("--manifest-out", default=None, help="run-manifest path (default: <out>.manifest.json)")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand with its help, arguments only for the one named.

    The named subcommand is the first token that does not start with ``-``;
    no top-level option takes a value, so no option's value can be taken for it.
    """
    parser = argparse.ArgumentParser(
        prog="radkit",
        description="Retrieval-augmented distillation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"radkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)

    def add(name: str, help_text: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_text)
        return p if name == named else None

    if (p := add("index", "build a BM25 index from a JSONL corpus")) is not None:
        p.add_argument("--corpus", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--k1", type=float, default=DEFAULT_K1)
        p.add_argument("--b", type=float, default=DEFAULT_B)
        _add_common(p)
        p.set_defaults(func=cmd_index, inputs=("corpus",))

    if (p := add("emit-train", "emit knowledge-augmented training examples")) is not None:
        p.add_argument("--index", required=True)
        p.add_argument("--rationales", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--k", type=int, default=1, help="passages per rationale")
        p.add_argument("--template", default="medqa", help="medqa | strategyqa | custom:<file>")
        p.add_argument("--filter", default="answer-match", help="answer-match | verdict-file:<path> | none")
        p.add_argument("--max-knowledge-chars", type=int, default=None)
        p.add_argument("--no-knowledge", action="store_true", help="plain distillation template without passages")
        _add_common(p)
        p.set_defaults(func=cmd_emit_train, inputs=("index", "rationales"))

    if (p := add("candidates", "build reranker training candidate sets")) is not None:
        p.add_argument("--index", required=True)
        p.add_argument("--rationales", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--kappa1", type=int, default=DEFAULT_KAPPA1)
        p.add_argument("--kappa2", type=int, default=DEFAULT_KAPPA2)
        p.add_argument("--filter", default="answer-match")
        _add_common(p)
        p.set_defaults(func=cmd_candidates, inputs=("index", "rationales"))

    if (p := add("rerank-train", "train the reranker on candidate sets")) is not None:
        p.add_argument("--index", required=True)
        p.add_argument("--candidates", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--tau1", type=float, default=DEFAULT_TAU1)
        p.add_argument("--tau2", type=float, default=DEFAULT_TAU2)
        p.add_argument("--lr", type=float, default=1e-2)
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--dim", type=int, default=DEFAULT_EMBEDDING_DIM)
        p.add_argument("--hash-seed", type=int, default=0)
        _add_common(p)
        p.set_defaults(func=cmd_rerank_train, inputs=("index", "candidates"))

    if (p := add("rerank-infer", "two-stage retrieval with the reranker")) is not None:
        p.add_argument("--index", required=True)
        p.add_argument("--questions", required=True, help="JSONL of {id, question}")
        p.add_argument("--out", required=True)
        p.add_argument("--model", default=None, help="reranker checkpoint (default: identity model)")
        p.add_argument("--kappa-star", type=int, default=DEFAULT_KAPPA_STAR)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--score-file", default=None, help="external scorer JSONL of {id, doc_id, score}")
        _add_common(p)
        p.set_defaults(func=cmd_rerank_infer, inputs=("index", "questions", "score_file", "model"))

    if (p := add("eval", "Hits@k against silver sets and/or answer accuracy")) is not None:
        p.add_argument("--index")
        p.add_argument("--rationales")
        p.add_argument("--retrieved", help="rerank-infer output JSONL")
        p.add_argument("--predictions", help="JSONL of {id, texts, gold}")
        p.add_argument("--ks", default="1,3,10")
        p.add_argument("--j-gold", type=int, default=0)
        p.add_argument("--all-silver", action="store_true", help="require all silver docs in the top-k")
        p.add_argument("--out", default=None)
        _add_common(p)
        p.set_defaults(func=cmd_eval, inputs=("index", "rationales", "retrieved", "predictions"))

    if (p := add("simulate", "run the memorization simulator")) is not None:
        p.add_argument("--N", type=int, default=100)
        p.add_argument("--n", type=int, default=100)
        p.add_argument("--d", type=int, default=128)
        p.add_argument("--R", type=int, default=100)
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--tests", type=int, default=500, dest="tests_per_trial")
        p.add_argument("--sweep", default=None, help="param=start:stop:step, e.g. R=0:200:50")
        p.add_argument("--seed", type=int, default=0, help="random seed for the trials")
        p.add_argument("--out", default=None)
        _add_common(p)
        p.set_defaults(func=cmd_simulate, inputs=())

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (RadkitError, OSError, ValueError, MemoryError) as exc:
        # One line, even where the message echoes a path or input text with a line break.
        message = str(exc) or type(exc).__name__  # a bare MemoryError() has no message
        print(f"error: {message}".translate(_LINE_BREAKS), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
