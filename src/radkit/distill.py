"""Teacher-rationale ingestion and knowledge-augmented training-example emission.

The pipeline is: ingest rationales from JSONL, filter out rationales whose
declared answer disagrees with the gold answer, retrieve passages with the
rationale as the query, and emit byte-exact input/target text pairs for an
external seq2seq trainer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .corpus import Document, PostingsIndex, ScoredDoc, retrieve
from .errors import AnswerNotInOptions, NoKnowledge
from .records import field, jsonl_text, read_jsonl

QUESTION_MARKER = "Question: "
KNOWLEDGE_MARKER = "Knowledge: "
EXPLANATION_MARKER = "Explanation:"
ANSWER_MARKER = "Answer: "
# parse_training_example splits an input at the first of each of these.
_QUESTION_START = "\n\n" + QUESTION_MARKER
_KNOWLEDGE_START = "\n\n" + KNOWLEDGE_MARKER

_NEWLINES = re.compile(r"\n+")

# Last "Answer: X" wins; the letter must not run into a word, trailing
# punctuation is ignored. Both "Answer: B" and "Answer: (B)" are accepted.
_ANSWER_RE = re.compile(r"answer:\s*\(?([A-Za-z])\)?(?![A-Za-z0-9])", re.IGNORECASE)

# Option letters appear either as "(A) text" or as "A. text".
_OPTION_RE = re.compile(r"(?:\(([A-Z])\)|(?:^|\s)([A-Z])\.(?=\s))")

HEADERS = {
    "medqa": (
        "The following are multiple-choice questions about medical knowledge. "
        "Generate a step-by-step explanation for each question:"
    ),
    "strategyqa": (
        "The following are multiple-choice questions. "
        "Generate a step-by-step explanation for each question:"
    ),
}


@dataclass(frozen=True)
class RationaleRecord:
    """One training question with its gold answer and teacher rationales."""

    example_id: str
    question: str
    answer: str
    rationales: tuple[str, ...] = ()


@dataclass(frozen=True)
class TrainingExample:
    example_id: str
    rationale_index: int
    input_text: str
    target_text: str
    knowledge_doc_ids: tuple[str, ...]


@dataclass(frozen=True)
class TrainingTemplate:
    """Header line plus whether a Knowledge block is included."""

    header: str
    with_knowledge: bool = True

    def __post_init__(self):
        if _QUESTION_START in self.header:
            raise ValueError(f"template header holds {_QUESTION_START!r}")

    @classmethod
    def named(cls, name: str, with_knowledge: bool = True) -> "TrainingTemplate":
        """Resolve "medqa", "strategyqa", or "custom:<path to header file>"."""
        if name in HEADERS:
            return cls(HEADERS[name], with_knowledge)
        if name.startswith("custom:"):
            path = name[len("custom:"):]
            header = Path(path).read_text(encoding="utf-8").rstrip("\n")
            try:
                return cls(header, with_knowledge)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        raise ValueError(f"unknown template {name!r}")


def extract_answer(text: str) -> str | None:
    """Return the declared answer letter (uppercased), or None if absent."""
    matches = _ANSWER_RE.findall(text)
    if not matches:
        return None
    return matches[-1].upper()


def option_letters(question: str) -> set[str]:
    """Letters of the answer options present in a question string."""
    letters = set()
    for paren, dotted in _OPTION_RE.findall(question):
        letters.add(paren or dotted)
    return letters


def _rationale_record(obj: dict) -> RationaleRecord:
    obj.setdefault("rationales", [])
    record = RationaleRecord(
        example_id=field(obj, "id"),
        question=field(obj, "question"),
        answer=field(obj, "answer").strip().upper(),
        rationales=field(obj, "rationales", many=True),
    )
    options = option_letters(record.question)
    if record.answer not in options:
        raise AnswerNotInOptions(record.example_id, record.answer, options)
    return record


def ingest_rationales(path: str | Path) -> list[RationaleRecord]:
    """Read and validate a JSONL file of {"id", "question", "answer", "rationales"}.

    Raises ParseError with the offending line number, or AnswerNotInOptions
    when a gold answer is not among the question's option letters.
    """
    return read_jsonl(path, _rationale_record)


# keep(record, j) decides whether rationale j of a record survives filtering.
KeepRule = Callable[[RationaleRecord, int], bool]


def answer_matches(record: RationaleRecord, j: int) -> bool:
    """Rationale ``j`` declares the gold answer; undeclared counts as incorrect."""
    return extract_answer(record.rationales[j]) == record.answer


def filter_rationales(
    records: Sequence[RationaleRecord], keep: KeepRule = answer_matches
) -> tuple[list[RationaleRecord], dict[str, int]]:
    """Keep the rationales ``keep`` accepts (by default, answer matches gold).

    Records left with no rationales are dropped. Returns the surviving
    records and a per-record count of dropped rationales. Idempotent for
    rules that look only at the rationale text.
    """
    kept_records = []
    drops: dict[str, int] = {}
    for record in records:
        kept = tuple(r for j, r in enumerate(record.rationales) if keep(record, j))
        dropped = len(record.rationales) - len(kept)
        if dropped:
            drops[record.example_id] = dropped
        if kept:
            kept_records.append(replace(record, rationales=kept))
    return kept_records, drops


def load_verdicts(path: str | Path) -> KeepRule:
    """Read a verdict JSONL file of {"id", "j", "keep"} objects as a keep rule.

    The file is an allowlist: (example id, rationale index) pairs it does
    not list are dropped. A later line for the same pair overrides an
    earlier one.
    """
    verdicts = dict(
        read_jsonl(
            path, lambda obj: ((field(obj, "id"), field(obj, "j", int)), field(obj, "keep", bool))
        )
    )

    def keep(record: RationaleRecord, j: int) -> bool:
        return verdicts.get((record.example_id, j), False)

    return keep


def retrieve_knowledge(
    index: PostingsIndex, record: RationaleRecord, j: int, k: int
) -> list[ScoredDoc]:
    """Top-k passages retrieved with rationale ``j`` (not the question) as query."""
    return retrieve(index, record.rationales[j], k)


def emit_training_example(
    record: RationaleRecord,
    j: int,
    knowledge_docs: Sequence[Document],
    template: TrainingTemplate,
    max_knowledge_chars: int | None = None,
) -> TrainingExample:
    """Compose one input/target pair.

    Input layout: header, blank line, "Question: ...", blank line,
    "Knowledge: ..." (rank-ordered passages separated by blank lines,
    omitted for knowledge-free templates), blank line, "Explanation:".
    Each passage is cut to ``max_knowledge_chars``; then each run of
    newlines in it becomes one newline, and newlines at its ends are dropped.
    Target layout: rationale, blank line, "Answer: <gold letter>".
    A question holding a blank line and "Knowledge: " raises ValueError, since
    ``parse_training_example`` would read a knowledge block from there.
    """
    if template.with_knowledge and not knowledge_docs:
        raise NoKnowledge(record.example_id, j)
    if _KNOWLEDGE_START in record.question:
        raise ValueError(
            f"record {record.example_id!r} rationale {j}: question holds {_KNOWLEDGE_START!r}"
        )
    parts = [template.header, QUESTION_MARKER + record.question]
    doc_ids: tuple[str, ...] = ()
    if template.with_knowledge:
        # Passages are split back apart at blank lines, so none may hold one.
        texts = [
            _NEWLINES.sub("\n", d.text[:max_knowledge_chars]).strip("\n") for d in knowledge_docs
        ]
        parts.append(KNOWLEDGE_MARKER + "\n\n".join(texts))
        doc_ids = tuple(d.doc_id for d in knowledge_docs)
    parts.append(EXPLANATION_MARKER)
    input_text = "\n\n".join(parts)
    target_text = record.rationales[j] + "\n\n" + ANSWER_MARKER + record.answer
    return TrainingExample(
        example_id=record.example_id,
        rationale_index=j,
        input_text=input_text,
        target_text=target_text,
        knowledge_doc_ids=doc_ids,
    )


@dataclass(frozen=True)
class ParsedExample:
    header: str
    question: str
    knowledge_texts: tuple[str, ...]
    rationale: str
    answer: str


def parse_training_example(input_text: str, target_text: str) -> ParsedExample:
    """Invert emit_training_example.

    Passages are split at blank lines; the emitter leaves none inside one.
    """
    q_at = input_text.index(_QUESTION_START)
    header = input_text[:q_at]
    rest = input_text[q_at + len(_QUESTION_START):]
    suffix = "\n\n" + EXPLANATION_MARKER
    if not rest.endswith(suffix):
        raise ValueError("input text does not end with the explanation marker")
    rest = rest[: -len(suffix)]
    if _KNOWLEDGE_START in rest:
        question, _sep, knowledge_block = rest.partition(_KNOWLEDGE_START)
        knowledge = tuple(knowledge_block.split("\n\n"))
    else:
        question, knowledge = rest, ()
    a_marker = "\n\n" + ANSWER_MARKER
    rationale, sep, answer = target_text.rpartition(a_marker)
    if not sep:
        raise ValueError("target text carries no answer marker")
    return ParsedExample(header, question, knowledge, rationale, answer)


def training_jsonl_text(examples: Sequence[TrainingExample]) -> str:
    return jsonl_text(
        {
            "id": ex.example_id,
            "j": ex.rationale_index,
            "input": ex.input_text,
            "target": ex.target_text,
            "doc_ids": list(ex.knowledge_doc_ids),
        }
        for ex in examples
    )
