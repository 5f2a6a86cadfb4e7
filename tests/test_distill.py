"""Rationale ingestion, filtering, and training-example emission."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radkit.distill import extract_answer, option_letters
from radkit.corpus import Document, build_index, load_corpus_jsonl
from radkit.distill import (
    HEADERS,
    ParsedExample,
    RationaleRecord,
    TrainingTemplate,
    emit_training_example,
    filter_rationales,
    ingest_rationales,
    load_verdicts,
    parse_training_example,
    retrieve_knowledge,
)
from radkit.errors import AnswerNotInOptions, NoKnowledge, ParseError

from helpers import DATA_DIR, bm25_oracle_topk


@pytest.fixture(scope="module")
def fixture_index():
    return build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl"))


@pytest.fixture(scope="module")
def fixture_records():
    return ingest_rationales(DATA_DIR / "rationales.jsonl")


class TestExtractAnswer:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("The drug works by inhibiting synthesis. Answer: B", "B"),
            ("no marker here", None),
            ("Answer: A is wrong because ... Answer: C", "C"),
            ("so the result follows.  Answer: d.", "D"),
            ("final line\nAnswer: (B)", "B"),
            ("vitamin B12 answer:b", "B"),
        ],
    )
    def test_cases(self, text, want):
        assert extract_answer(text) == want

    def test_letter_must_stand_alone(self):
        assert extract_answer("Answer: BC") is None

    def test_option_letters_both_styles(self):
        assert option_letters("pick one (A) x (B) y (C) z") == {"A", "B", "C"}
        assert option_letters("pick one\n\nA. x B. y C. z D. w") == {"A", "B", "C", "D"}


class TestIngest:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rows = [
            {"id": "a", "question": "q? (A) x (B) y", "answer": "A", "rationales": ["r. Answer: A"]},
            {"id": "b", "question": "q? (A) x (B) y", "answer": "B", "rationales": []},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        records = ingest_rationales(path)
        assert len(records) == 2
        assert records[0].example_id == "a"

    def test_answer_outside_options(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps({"id": "a", "question": "q? (A) x (B) y (C) z (D) w",
                                    "answer": "E", "rationales": []}) + "\n")
        with pytest.raises(AnswerNotInOptions):
            ingest_rationales(path)

    def test_rationale_order_preserved(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rationales = [f"step {i}. Answer: A" for i in range(5)]
        path.write_text(json.dumps({"id": "a", "question": "(A) x (B) y",
                                    "answer": "A", "rationales": rationales}) + "\n")
        records = ingest_rationales(path)
        assert list(records[0].rationales) == rationales

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a", "question": "(A) x", "answer": "A", "rationales": []}\nnot json\n')
        with pytest.raises(ParseError) as err:
            ingest_rationales(path)
        assert err.value.line_no == 2

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a", "question": "(A) x"}\n')
        with pytest.raises(ParseError):
            ingest_rationales(path)


class TestFilter:
    def test_answer_match_keeps_and_drops(self):
        record = RationaleRecord(
            "e", "q (A) x (B) y", "B",
            ("correct path. Answer: B", "wrong path. Answer: A", "no declaration at all"),
        )
        kept, drops = filter_rationales([record])
        assert kept[0].rationales == ("correct path. Answer: B",)
        assert drops == {"e": 2}

    def test_record_dropped_when_nothing_survives(self):
        record = RationaleRecord("e", "q (A) x (B) y", "B", ("oops. Answer: A",))
        kept, drops = filter_rationales([record])
        assert kept == []
        assert drops == {"e": 1}

    def test_idempotent(self, fixture_records):
        once, _ = filter_rationales(fixture_records)
        twice, drops = filter_rationales(once)
        assert twice == once
        assert drops == {}

    def test_fixture_counts(self, fixture_records):
        kept, drops = filter_rationales(fixture_records)
        by_id = {r.example_id: r for r in kept}
        assert len(by_id["ex-01"].rationales) == 2  # one wrong letter dropped
        assert drops["ex-03"] == 1  # missing declaration dropped

    def test_verdict_file_is_an_allowlist(self, tmp_path):
        record = RationaleRecord("e", "q (A) x (B) y", "B", ("r0. Answer: B", "r1. Answer: B"))
        path = tmp_path / "verdicts.jsonl"
        path.write_text(json.dumps({"id": "e", "j": 1, "keep": True}) + "\n")
        kept, drops = filter_rationales([record], load_verdicts(path))
        assert kept[0].rationales == ("r1. Answer: B",)
        assert drops == {"e": 1}


class TestRetrieveKnowledge:
    def test_top1_is_single_best_passage(self, fixture_index, fixture_records):
        record = fixture_records[0]
        result = retrieve_knowledge(fixture_index, record, 0, 1)
        assert len(result) == 1
        assert result[0].doc_id == "med-001"

    def test_verified_against_exhaustive_scoring(self, fixture_index, fixture_records):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
        record = fixture_records[0]
        got = [sd.doc_id for sd in retrieve_knowledge(fixture_index, record, 0, 4)]
        want = bm25_oracle_topk(docs, record.rationales[0], 4, fixture_index.k1, fixture_index.b)
        assert got == want

    def test_no_overlap_yields_empty_then_emit_raises(self, fixture_index):
        record = RationaleRecord("e", "q (A) x (B) y", "A", ("zzzz qqqq xyzzy plugh",))
        assert retrieve_knowledge(fixture_index, record, 0, 1) == []
        template = TrainingTemplate.named("medqa")
        with pytest.raises(NoKnowledge):
            emit_training_example(record, 0, [], template)


class TestEmit:
    def test_exact_layout(self, fixture_records, fixture_index):
        record = next(r for r in fixture_records if r.example_id == "ex-02")
        doc = fixture_index.document("med-002")
        example = emit_training_example(record, 0, [doc], TrainingTemplate.named("medqa"))
        want_input = (
            HEADERS["medqa"]
            + "\n\n"
            + "Question: "
            + record.question
            + "\n\n"
            + "Knowledge: "
            + doc.text
            + "\n\n"
            + "Explanation:"
        )
        want_target = record.rationales[0] + "\n\n" + "Answer: D"
        assert example.input_text == want_input
        assert example.target_text == want_target
        assert example.knowledge_doc_ids == ("med-002",)

    def test_knowledge_free_template(self, fixture_records):
        record = fixture_records[0]
        template = TrainingTemplate.named("medqa", with_knowledge=False)
        example = emit_training_example(record, 0, [], template)
        assert "Knowledge:" not in example.input_text
        assert example.input_text.endswith("\n\nExplanation:")
        assert example.knowledge_doc_ids == ()

    def test_multiple_passages_joined_in_rank_order(self, fixture_records):
        record = fixture_records[0]
        docs = [Document("p1", "", "first passage"), Document("p2", "", "second passage")]
        example = emit_training_example(record, 0, docs, TrainingTemplate.named("medqa"), )
        assert "Knowledge: first passage\n\nsecond passage\n\n" in example.input_text
        assert example.knowledge_doc_ids == ("p1", "p2")

    def test_max_knowledge_chars_truncates_each_passage(self, fixture_records):
        record = fixture_records[0]
        docs = [Document("p1", "", "0123456789abcdef"), Document("p2", "", "xyz")]
        example = emit_training_example(
            record, 0, docs, TrainingTemplate.named("medqa"), max_knowledge_chars=10
        )
        assert "Knowledge: 0123456789\n\nxyz\n\n" in example.input_text

    def test_target_answer_always_matches_gold(self, fixture_index, fixture_records):
        kept, _ = filter_rationales(fixture_records)
        template = TrainingTemplate.named("medqa")
        for record in kept:
            for j in range(len(record.rationales)):
                docs = [
                    fixture_index.document(sd.doc_id)
                    for sd in retrieve_knowledge(fixture_index, record, j, 1)
                ]
                example = emit_training_example(record, j, docs, template)
                assert extract_answer(example.target_text) == record.answer

    def test_strategyqa_header_differs(self):
        assert HEADERS["strategyqa"] != HEADERS["medqa"]
        assert TrainingTemplate.named("strategyqa").header == HEADERS["strategyqa"]

    def test_custom_template_from_file(self, tmp_path, fixture_records):
        header_file = tmp_path / "header.txt"
        header_file.write_text("Answer the question below with an explanation:\n")
        template = TrainingTemplate.named(f"custom:{header_file}")
        example = emit_training_example(
            fixture_records[0], 0, [Document("p", "", "text")], template
        )
        assert example.input_text.startswith("Answer the question below with an explanation:\n\n")


# Pieces of the layout's markers, so generated text can hold a marker whole or in part.
MARKER_FRAGMENTS = ["\n", "\n\n", "Question: ", "Knowledge: ", "Explanation:", "Answer: ", "a", " "]


class TestParse:
    def test_round_trip_identity(self, fixture_index, fixture_records):
        record = next(r for r in fixture_records if r.example_id == "ex-02")
        doc = fixture_index.document("med-002")
        example = emit_training_example(record, 0, [doc], TrainingTemplate.named("medqa"))
        parsed = parse_training_example(example.input_text, example.target_text)
        assert parsed.question == record.question
        assert parsed.knowledge_texts == (doc.text,)
        assert parsed.rationale == record.rationales[0]
        assert parsed.answer == record.answer

    def test_round_trip_when_rationale_ends_with_declaration(self):
        record = RationaleRecord("e", "q (A) x (B) y", "B", ("reasoning text. Answer: B",))
        example = emit_training_example(
            record, 0, [Document("p", "", "some passage")], TrainingTemplate.named("medqa")
        )
        parsed = parse_training_example(example.input_text, example.target_text)
        assert parsed.rationale == "reasoning text. Answer: B"
        assert parsed.answer == "B"

    def test_knowledge_free_round_trip(self):
        record = RationaleRecord("e", "q (A) x (B) y", "A", ("because. Answer: A",))
        template = TrainingTemplate.named("strategyqa", with_knowledge=False)
        example = emit_training_example(record, 0, [], template)
        parsed = parse_training_example(example.input_text, example.target_text)
        assert parsed.question == record.question
        assert parsed.knowledge_texts == ()

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.lists(st.sampled_from(MARKER_FRAGMENTS), max_size=6).map("".join),
        question=st.lists(st.sampled_from(MARKER_FRAGMENTS), max_size=6).map("".join),
        with_knowledge=st.booleans(),
    )
    def test_round_trip_or_error_for_any_header_and_question(
        self, header, question, with_knowledge
    ):
        """Emission raises exactly when the parser would split the header or question early."""
        if "\n\nQuestion: " in header:
            with pytest.raises(ValueError, match="template header holds"):
                TrainingTemplate(header, with_knowledge)
            return
        template = TrainingTemplate(header, with_knowledge)
        record = RationaleRecord("e", question, "A", ("unused", "because\n\nAnswer: B"))
        docs = [Document("p", "", "some passage")]
        if "\n\nKnowledge: " in question:
            with pytest.raises(ValueError, match=r"^record 'e' rationale 1: question holds"):
                emit_training_example(record, 1, docs, template)
            return
        example = emit_training_example(record, 1, docs, template)
        knowledge = ("some passage",) if with_knowledge else ()
        assert parse_training_example(example.input_text, example.target_text) == ParsedExample(
            header, question, knowledge, record.rationales[1], "A"
        )

    @settings(max_examples=150, deadline=None)
    @given(
        blank=st.tuples(st.text("ab\n", max_size=4), st.text("ab \n", max_size=4)).map(
            "\n\n".join
        ),
        others=st.lists(st.text("ab \n\r", max_size=8), max_size=3),
        at=st.integers(0, 3),
        max_chars=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_passages_with_blank_lines_round_trip(self, blank, others, at, max_chars):
        texts = others[:at] + [blank] + others[at:]
        record = RationaleRecord("e", "q (A) x (B) y", "A", ("because. Answer: A",))
        docs = [Document(f"p{i}", "", text) for i, text in enumerate(texts)]
        example = emit_training_example(
            record, 0, docs, TrainingTemplate.named("medqa"), max_knowledge_chars=max_chars
        )
        parsed = parse_training_example(example.input_text, example.target_text)
        emitted = tuple(re.sub(r"\n+", "\n", t[:max_chars]).strip("\n") for t in texts)
        assert parsed.knowledge_texts == emitted
        assert parsed.question == record.question
        assert parsed.rationale == record.rationales[0]
