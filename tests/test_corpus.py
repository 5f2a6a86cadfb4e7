"""Index construction and BM25 retrieval against an exhaustive oracle."""

import hashlib
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from radkit.corpus import (
    _DOC_BLOCK,
    INDEX_FORMAT_VERSION,
    TOKENIZER_VERSION,
    Document,
    PostingsIndex,
    build_index,
    bm25_score,
    bm25_scores,
    load_corpus_jsonl,
    load_index,
    retrieve,
    save_index,
    serialize_index,
    tokenize,
    top_ordinals,
)
from radkit.errors import (
    DuplicateDocId,
    EmptyDocument,
    InvalidOrdinal,
    RadkitError,
    UnencodableDocument,
    UnknownFormatVersion,
)

from radkit.reranker import MODEL_FORMAT_VERSION, load_model

from helpers import (
    DATA_DIR,
    FORMAT_1_INDEX,
    bm25_oracle_ranked,
    bm25_oracle_score,
    bm25_oracle_topk,
    decreasing,
    doc_rows,
    narrowest,
    npy_bytes,
    npz_bytes,
    random_corpus,
    random_query,
    reference_build_index,
    reference_tokenize,
    with_meta,
)

FIVE_DOCS = [
    Document("d1", "", "fever cough fever"),
    Document("d2", "", "fever headache"),
    Document("d3", "", "cough cold chills cough cold"),
    Document("d4", "", "malaria fever chills fever malaria fever"),
    Document("d5", "", "headache"),
]

# Oracle evaluations of the scoring formula on FIVE_DOCS (k1=0.9, b=0.4).
FROZEN_SCORES = {
    "fever chills": [0.716738862646, 0.584606681453, 0.803798755444, 1.500497508888, 0.0],
    "cough": [0.895428759232, 0.0, 1.083849759162, 0.0, 0.0],
    "malaria fever headache": [0.716738862646, 1.534158065487, 0.0, 2.394856891810, 1.010637606023],
}


class TestTokenize:
    def test_punctuation_split_and_lowercase(self):
        assert tokenize("Graves' disease") == ["graves", "disease"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_duplicates_preserved(self):
        assert tokenize("SOD1 mutation, SOD1") == ["sod1", "mutation", "sod1"]

    def test_underscore_and_whitespace_are_separators(self):
        assert tokenize("a_b\tc\nd") == ["a", "b", "c", "d"]

    def test_dotted_capital_i_round_trips(self):
        # "İ" lowercases to "i" plus a combining dot, which is not alphanumeric.
        tokens = tokenize("İstanbul")
        assert tokens == ["i", "stanbul"]
        assert tokenize(" ".join(tokens)) == tokens

    @settings(max_examples=500, deadline=None)
    @given(
        st.text(
            st.one_of(
                st.sampled_from("İIıiΣσςΟΔΑẞßǅǄǆ\u0301\u0307\u0345_.' 09"),
                st.characters(codec="utf-8"),
            ),
            max_size=30,
        )
    )
    def test_tokens_of_joined_tokens_are_the_tokens(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    def test_every_ascii_code_point_as_the_reference(self):
        """ASCII text takes the fold-and-split path; each code point splits or joins a run
        as the regular expression does, alone, between letters and repeated."""
        for c in map(chr, range(128)):
            for text in (c, f"Ab{c}Cd", f"{c}{c}9{c}z"):
                assert tokenize(text) == reference_tokenize(text), repr(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters(codec="ascii"), max_size=40))
    def test_ascii_text_as_the_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("Aa_ 9İΣ") | st.characters(codec="utf-8"), max_size=40))
    def test_any_text_as_the_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestBuildIndex:
    def test_avg_doc_length_is_exact_mean(self):
        docs = [
            Document("a", "", "one two"),
            Document("b", "", "one two three four"),
            Document("c", "", "one two three four five six"),
        ]
        index = build_index(docs)
        assert index.avg_doc_length == 4.0
        assert index.doc_count == 3

    def test_shared_term_postings_sorted_ascending(self):
        docs = [
            Document("a", "", "fever cough"),
            Document("b", "", "cold"),
            Document("c", "", "fever"),
        ]
        index = build_index(docs)
        term_id = index.vocabulary["fever"]
        ordinals = index.postings[term_id].tolist()
        assert ordinals == [0, 2]
        assert index.tfs[index.offsets[term_id] : index.offsets[term_id + 1]].tolist() == [1, 1]
        assert ordinals == sorted(ordinals)

    def test_rebuild_is_byte_identical(self):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
        assert serialize_index(build_index(docs)) == serialize_index(build_index(docs))

    def test_duplicate_id_rejected(self):
        docs = [Document("a", "", "x"), Document("a", "", "y")]
        with pytest.raises(DuplicateDocId):
            build_index(docs)

    def test_zero_token_document_rejected(self):
        with pytest.raises(EmptyDocument):
            build_index([Document("a", "", "..!! --")])

    @pytest.mark.parametrize(
        "doc, message",
        [
            (Document("a", "", "fever \ud800"), "document 'a': text"),
            (Document("a", "t\udfff", "fever"), "document 'a': title"),
            (Document("İ\ud800", "", "fever"), "document 'İ\\ud800': id"),
        ],
        ids=["text", "title", "id"],
    )
    def test_string_utf8_cannot_encode_is_refused_naming_the_document(self, doc, message):
        """A lone surrogate, which no index file can hold, is refused by the build, not the save."""
        docs = [Document("ok", "", "été fever"), doc]
        with pytest.raises(UnencodableDocument) as err:
            build_index(docs)
        assert str(err.value) == f"{message} cannot be written as UTF-8: surrogates not allowed"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_term_ids_by_first_document_then_alphabetical(self):
        index = build_index([Document("x", "", "b a"), Document("y", "", "c a d")])
        assert index.vocabulary == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert index.offsets.tolist() == [0, 2, 3, 4, 5]
        assert index.ordinals.tolist() == [0, 1, 0, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(
            st.lists(
                st.sampled_from(["fever", "cough", "été", "ΣΟΦΙΑ", "İz", "a", "b", "42"]),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=10,
        ),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
    )
    def test_serializes_as_the_reference_build(self, docs, k1, b):
        corpus = [Document(f"d{i}", "", " ".join(words)) for i, words in enumerate(docs)]
        want = serialize_index(reference_build_index(corpus, k1=k1, b=b))
        assert serialize_index(build_index(corpus, k1=k1, b=b)) == want

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(
        st.sampled_from("İİi\u0307Σ.") | st.characters(codec="utf-8"), min_size=1
    ))
    @example(text="İİİ")  # the bound is tight: "i\u0307" three times, three tokens "i"
    def test_document_length_is_at_most_its_text_in_code_points(self, tmp_path_factory, text):
        """``İ`` lowercases to two code points, ``i`` and a mark; a length load accepts."""
        assume(tokenize(text))
        index = build_index([Document("d", "", text), Document("e", "", "fever")])
        assert index.doc_lengths[0] == len(tokenize(text)) <= len(text)
        path = tmp_path_factory.mktemp("index") / "index.npz"
        save_index(index, path)
        assert load_index(path).doc_lengths.tolist() == index.doc_lengths.tolist()


BLOCK_CORPORA = st.lists(
    st.lists(
        st.sampled_from(["fever", "Fever", "cough", "été", "ΣΟΦΙΑ", "İz", "a", "b_c", "42"]),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=12,
)


class TestBuildBlocks:
    """The build reduces ``_DOC_BLOCK`` documents at a time; the block size shows in no
    result."""

    @settings(max_examples=100, deadline=None)
    @given(docs=BLOCK_CORPORA)
    def test_every_block_size_serializes_as_the_reference_build(self, docs):
        corpus = [Document(f"d{i}", "", " ".join(words)) for i, words in enumerate(docs)]
        want = serialize_index(reference_build_index(corpus))
        for block in (1, 2, 3, _DOC_BLOCK):
            with mock.patch("radkit.corpus._DOC_BLOCK", block):
                assert serialize_index(build_index(corpus)) == want, block

    @pytest.mark.parametrize(
        "docs, error, message",
        [
            (
                [("a", "fever"), ("b", "fever"), ("c", "..."), ("d", "fever"), ("a", "again")],
                EmptyDocument,
                "document 'c' has no tokens",
            ),
            (
                [("a", "fever"), ("b", "fever"), ("a", "again"), ("d", "fever"), ("e", "--")],
                DuplicateDocId,
                "duplicate document id: 'a'",
            ),
        ],
        ids=["no-tokens-before-a-repeated-id", "repeated-id-before-no-tokens"],
    )
    def test_the_first_bad_document_decides_the_error(self, monkeypatch, docs, error, message):
        """In blocks of two documents, one fault lies in the second block and the other in
        the third: the one earlier in input order is raised, as the reference raises it."""
        monkeypatch.setattr("radkit.corpus._DOC_BLOCK", 2)
        docs = [Document(doc_id, "", text) for doc_id, text in docs]
        for build in (build_index, reference_build_index):
            with pytest.raises(error) as err:
                build(docs)
            assert str(err.value) == message


class TestBuildMemory:
    def test_transient_grows_with_postings_and_one_block_not_with_tokens(self, monkeypatch):
        """The build's tracemalloc peak above what the index keeps stays within 64 bytes per
        posting, per document and per token of one block. Each document holds 10 terms 40
        times each: a build that kept a temporary per token of the corpus, about 22 bytes a
        token, would exceed the bound six to eight times over."""
        monkeypatch.setattr("radkit.corpus._DOC_BLOCK", 16)
        for n_docs in (1000, 2000):
            docs = [
                Document(f"d{i}", "", " ".join([f"w{(7 * i + j) % 997}" for j in range(10)] * 40))
                for i in range(n_docs)
            ]
            tracemalloc.start()
            try:
                index = build_index(docs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (len(index.ordinals), index.doc_lengths.sum()) == (10 * n_docs, 400 * n_docs)
            bound = 64 * (10 * n_docs + n_docs + 16 * 400) + (1 << 18)
            assert peak - kept < bound, (n_docs, peak - kept, bound)


class TestBm25Score:
    def test_no_overlap_scores_zero(self):
        index = build_index(FIVE_DOCS)
        assert bm25_score(index, ["zebra"], 0) == 0.0

    def test_single_doc_single_term(self):
        """One document holding the only query term scores ln(4/3)."""
        index = build_index([Document("only", "", "term")])
        assert bm25_score(index, ["term"], 0) == pytest.approx(math.log(4 / 3), abs=1e-9)

    def test_frozen_five_doc_scores(self):
        index = build_index(FIVE_DOCS)
        for query, expected in FROZEN_SCORES.items():
            terms = tokenize(query)
            for ordinal, want in enumerate(expected):
                assert bm25_score(index, terms, ordinal) == pytest.approx(want, abs=1e-9)

    def test_matches_oracle_formula(self):
        index = build_index(FIVE_DOCS)
        doc_tokens = [tokenize(d.text) for d in FIVE_DOCS]
        for query in FROZEN_SCORES:
            terms = tokenize(query)
            for ordinal in range(len(FIVE_DOCS)):
                want = bm25_oracle_score(doc_tokens, terms, ordinal, index.k1, index.b)
                assert bm25_score(index, terms, ordinal) == pytest.approx(want, abs=1e-12)

    def test_query_terms_deduplicated(self):
        index = build_index(FIVE_DOCS)
        assert bm25_score(index, ["fever", "fever"], 0) == bm25_score(index, ["fever"], 0)

    def test_invalid_ordinal(self):
        index = build_index(FIVE_DOCS)
        with pytest.raises(InvalidOrdinal):
            bm25_score(index, ["fever"], 99)

    def test_scores_nonnegative_and_monotone_in_terms(self):
        """Adding a query term present in a document never lowers its score,
        for any k1 >= 0 and b in [0, 1]."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            docs = random_corpus(rng, n_docs=int(rng.integers(2, 15)))
            index = build_index(
                docs, k1=float(rng.uniform(0.0, 2.5)), b=float(rng.uniform(0.0, 1.0))
            )
            ordinal = int(rng.integers(0, len(docs)))
            base_terms = tokenize(random_query(rng))
            doc_terms = tokenize(docs[ordinal].text)
            extra = doc_terms[int(rng.integers(0, len(doc_terms)))]
            before = bm25_score(index, base_terms, ordinal)
            after = bm25_score(index, base_terms + [extra], ordinal)
            assert before >= 0.0
            assert after >= before - 1e-12


class TestScoreArray:
    def test_empty_or_unknown_query_scores_all_zeros(self):
        index = build_index(FIVE_DOCS)
        for terms in ([], ["zebra"]):
            scores = bm25_scores(index, terms)
            assert scores.dtype == np.float64
            assert scores.tolist() == [0.0] * len(FIVE_DOCS)

    def test_entries_match_oracle_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            docs = random_corpus(rng, n_docs=int(rng.integers(2, 15)))
            index = build_index(docs, k1=float(rng.uniform(0.0, 2.5)), b=float(rng.uniform()))
            doc_tokens = [tokenize(d.text) for d in docs]
            terms = tokenize(random_query(rng))
            scores = bm25_scores(index, terms)
            for ordinal, score in enumerate(scores.tolist()):
                want = bm25_oracle_score(doc_tokens, terms, ordinal, index.k1, index.b)
                assert score == pytest.approx(want, abs=1e-12)
                assert bm25_score(index, terms, ordinal) == score

    def test_top_ordinals_keep_positive_scores_best_first(self):
        docs = [Document(i, "", text) for i, text in [("c", "x y"), ("a", "x"), ("b", "x y")]]
        index = build_index(docs)
        scores = bm25_scores(index, ["y"])
        assert top_ordinals(index, scores, 3).tolist() == [2, 0]  # "a" lacks y; b before c
        assert top_ordinals(index, bm25_scores(index, ["x"]), 2).tolist() == [1, 2]
        with pytest.raises(ValueError):
            top_ordinals(index, scores, 0)


class TestRetrieve:
    def test_fewer_positive_docs_than_k(self):
        index = build_index(FIVE_DOCS)
        result = retrieve(index, "cough", 50)
        assert [sd.doc_id for sd in result] == ["d3", "d1"]

    def test_tie_breaks_by_ascending_doc_id(self):
        docs = [Document("b", "", "same words"), Document("a", "", "same words")]
        index = build_index(docs)
        result = retrieve(index, "same", 2)
        assert [sd.doc_id for sd in result] == ["a", "b"]
        assert result[0].score == result[1].score

    def test_ranks_and_score_order(self):
        index = build_index(FIVE_DOCS)
        result = retrieve(index, "fever chills", 4)
        assert [sd.rank for sd in result] == [1, 2, 3, 4]
        scores = [sd.score for sd in result]
        assert scores == sorted(scores, reverse=True)

    def test_fixture_query_top1_verified_by_oracle(self):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
        index = build_index(docs)
        got = retrieve(index, "methimazole graves", 3)
        want = bm25_oracle_topk(docs, "methimazole graves", 3, index.k1, index.b)
        assert [sd.doc_id for sd in got] == want
        assert got[0].doc_id == "med-001"

    def test_zero_overlap_query_returns_nothing(self):
        index = build_index(FIVE_DOCS)
        assert retrieve(index, "zebra quantum", 5) == []

    def test_k_below_one_rejected(self):
        index = build_index(FIVE_DOCS)
        with pytest.raises(ValueError):
            retrieve(index, "fever", 0)

    def test_prefix_consistency(self):
        """retrieve(q, k) is the first k entries of retrieve(q, K) for K >= k."""
        rng = np.random.default_rng(23)
        for _ in range(25):
            index = build_index(random_corpus(rng, n_docs=int(rng.integers(5, 40))))
            query = random_query(rng)
            big = retrieve(index, query, 30)
            for k in (1, 2, 5):
                assert retrieve(index, query, k) == big[:k]

    def test_matches_exhaustive_oracle(self):
        """Ids and float scores equal the exhaustive oracle's exactly.

        Queries repeat a term and carry one out of the vocabulary; k runs
        past the hit count; over a 3-word vocabulary many documents tie, so
        ties straddle the top-k cut.
        """
        rng = np.random.default_rng(37)
        straddles = 0
        for vocab_size in (40, 3):
            for _ in range(20):
                docs = random_corpus(rng, n_docs=int(rng.integers(3, 60)), vocab_size=vocab_size)
                index = build_index(docs)
                terms = random_query(rng, vocab_size=vocab_size)
                query = f"{terms} {terms.split()[0]} zebra"
                every = bm25_oracle_ranked(docs, query, len(docs), index.k1, index.b)
                for k in (1, 3, 10, len(docs) + 5):
                    got = [(sd.doc_id, sd.score) for sd in retrieve(index, query, k)]
                    assert got == every[:k]
                    straddles += k < len(every) and every[k - 1][1] == every[k][1]
        assert straddles > 0

    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(
            st.tuples(st.text(max_size=3), st.lists(st.sampled_from("abcd"), min_size=1, max_size=6)),
            min_size=1,
            max_size=12,
            unique_by=lambda doc: doc[0],
        ),
        query=st.lists(st.sampled_from(["a", "b", "c", "d", "zebra"]), min_size=1, max_size=5),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_equals_oracle_on_random_corpora(self, docs, query, k1, b, data):
        """Ids and float scores, ties included: four words make many documents tie."""
        corpus = [Document(doc_id, "", " ".join(words)) for doc_id, words in docs]
        index = build_index(corpus, k1=k1, b=b)
        k = data.draw(st.integers(1, len(corpus)), label="k")
        got = [(sd.doc_id, sd.score) for sd in retrieve(index, " ".join(query), k)]
        assert got == bm25_oracle_ranked(corpus, " ".join(query), k, k1, b)


def _stored(edit):
    """An edit of an integer member's values as int64, stored as format 4 stores it: unsigned,
    at the narrowest width of its largest value; so no dtype check refuses it before the check
    it aims at."""
    return lambda a: narrowest(edit(a.astype(np.int64)))


def _signed(edit):
    """An edit of an integer member's values as int64, stored signed, as int16: a negative
    value cannot be written into the unsigned member format 4 stores."""
    return lambda a: edit(a.astype(np.int64)).astype(np.int16)


# Passages whose ids, titles and texts hold non-ASCII, astral and empty strings.
UNICODE_DOCS = [
    Document("", "", "émigré fever cough"),
    Document("𝔘-1", "Fièvre 😀 𝔘𝔫𝔦", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 😀 malaria fever"),
    Document("ü", "ÉTÉ", "été 42 x_y"),
]


def index_file(directory, data: bytes):
    """``data`` written to an index file in ``directory``; its path."""
    path = directory / "index.npz"
    path.write_bytes(data)
    return path


class TestSerialization:
    def test_round_trip_preserves_retrieval(self, tmp_path):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
        index = build_index(docs)
        clone = load_index(index_file(tmp_path, serialize_index(index)))
        for query in ["methimazole graves", "pregnancy nitrofurantoin", "blunt chest trauma"]:
            assert retrieve(clone, query, 5) == retrieve(index, query, 5)

    def test_unknown_version_rejected(self, tmp_path):
        data = serialize_index(build_index(FIVE_DOCS))
        assert load_index(index_file(tmp_path, with_meta(data, lambda meta: None))).doc_count == 5
        path = index_file(tmp_path, with_meta(data, lambda meta: meta.update(format_version=99)))
        with pytest.raises(UnknownFormatVersion) as err:
            load_index(path)
        assert str(err.value) == f"{path}: {UnknownFormatVersion(99, INDEX_FORMAT_VERSION)}"

    def test_format_1_json_rejected(self, tmp_path):
        path = index_file(tmp_path, FORMAT_1_INDEX)
        with pytest.raises(UnknownFormatVersion) as err:
            load_index(path)
        assert str(err.value) == f"{path}: {UnknownFormatVersion(1, INDEX_FORMAT_VERSION)}"

    def test_other_tokenizer_rejected_naming_both(self, tmp_path):
        data = serialize_index(build_index(FIVE_DOCS))
        tampered = with_meta(
            data, lambda meta: meta["build_params"].update(tokenizer_version="stem-porter-9")
        )
        with pytest.raises(RadkitError) as err:
            load_index(index_file(tmp_path, tampered))
        assert "stem-porter-9" in str(err.value)
        assert TOKENIZER_VERSION in str(err.value)

    @pytest.mark.parametrize(
        "data, index_version",
        [
            *(
                (data, None)
                for data in (
                    b"",
                    b"not an index\n",
                    b"{broken",
                    b"[1, 2]",
                    bytes(range(256)),
                    b"PK\x03\x04 truncated",
                    npy_bytes(np.arange(3)),
                    npz_bytes(offsets=np.arange(3)),
                    serialize_index(build_index(FIVE_DOCS))[:600],
                )
            ),
            (
                with_meta(serialize_index(build_index(FIVE_DOCS)), lambda m: m.pop("build_params")),
                INDEX_FORMAT_VERSION,
            ),
            (npz_bytes(meta=np.frombuffer(b"[2]", dtype=np.uint8)), None),
        ],
        ids=[
            "empty", "text", "bad-json", "json-list", "binary", "bad-zip", "npy", "npz-no-meta",
            "truncated", "meta-without-params", "meta-not-an-object",
        ],
    )
    def test_neither_format_is_a_radkit_error(self, tmp_path, data, index_version):
        """``index_version``: the version an index file names, which the model loader reports."""
        path = tmp_path / "artifact"
        path.write_bytes(data)
        for load, found, version in (
            (load_index, None, INDEX_FORMAT_VERSION),
            (load_model, index_version, MODEL_FORMAT_VERSION),
        ):
            with pytest.raises(UnknownFormatVersion) as err:
                load(path)
            want = UnknownFormatVersion(found, version)
            assert str(err.value) == f"{path}: {want}", load.__name__

    @pytest.mark.parametrize(
        "change, arrays",
        [
            (lambda m: m.update(doc_ids=[]), {}),
            (lambda m: m["doc_ids"].pop(), {}),
            (lambda m: m["terms"].pop(), {}),
            (lambda m: m["terms"].append("zebra"), {}),
            (lambda m: m["terms"].__setitem__(1, m["terms"][0]), {}),
            (lambda m: m["doc_ids"].__setitem__(1, m["doc_ids"][0]), {}),
            (lambda m: m["build_params"].update(k1=-0.5), {}),
            (lambda m: m["build_params"].update(b=5.0), {}),
            (None, {"doc_lengths": _stored(lambda a: a[:-1])}),
            (None, {"offsets": _stored(lambda a: np.r_[1, a[1:]])}),
            (None, {"offsets": _stored(lambda a: np.r_[0, a[-1], a[2:]])}),
            (None, {"offsets": _stored(lambda a: np.r_[a[:-1], a[-1] - 1])}),
            (None, {"tfs": _stored(lambda a: a[:-1])}),
            (None, {"ordinals": _stored(lambda a: np.r_[a[:-1], 5])}),
            (None, {"ordinals": _signed(lambda a: np.r_[-1, a[1:]])}),
            (None, {"ordinals": lambda a: a.astype(np.int8)}),
            (None, {"tfs": _stored(lambda a: np.r_[0, a[1:]])}),
            (None, {"tfs": _signed(lambda a: np.r_[a[:-1], -1])}),
            (None, {"doc_lengths": _stored(lambda a: np.r_[a[:-1], 0])}),
            (None, {"doc_lengths": lambda a: 0 * a}),
            (None, {"ordinals": lambda a: a.astype(np.float64)}),
            (None, {"ordinals": lambda a: a.reshape(-1, 1)}),
            (None, {"offsets": lambda a: a.astype(np.int64)}),
            (None, {"doc_lengths": lambda a: a.reshape(-1, 1)}),
            (lambda m: m["titles"].pop(), {}),
            (None, {"texts": lambda a: a.astype(np.int8)}),
            (None, {"texts": lambda a: a.reshape(1, -1)}),
            (None, {"texts": lambda a: np.r_[a[:-1], 0xFF].astype(np.uint8)}),
            (None, {"text_offsets": lambda a: a.astype(np.int32)}),
            (None, {"text_offsets": lambda a: a.astype(np.float64)}),
            (None, {"ordinals": lambda a: a.astype(np.uint16)}),
            (None, {"tfs": lambda a: a.astype(np.uint64)}),
            (None, {"text_offsets": lambda a: a.astype(np.uint16)}),
            (None, {"text_offsets": _stored(lambda a: a[:-1])}),
            (None, {"text_offsets": _stored(lambda a: np.r_[1, a[1:]])}),
            (None, {"text_offsets": _stored(lambda a: np.r_[0, a[2], a[1], a[3:]])}),
            (None, {"text_offsets": _stored(lambda a: np.r_[a[:-1], a[-1] + 1])}),
            (None, {"text_offsets": _stored(lambda a: np.r_[a[:-1], a[-1] - 1])}),
            (None, {"tfs": _stored(lambda a: np.r_[a[0] + 1, a[1:]])}),
            (None, {"tfs": _stored(lambda a: np.r_[2**31 - 1, a[1:]])}),
            (None, {name: _stored(lambda a: 1000 * a) for name in ("tfs", "doc_lengths")}),
        ],
        ids=[
            "no-documents", "one-document-short", "one-term-short", "one-term-extra",
            "one-term-repeated", "one-doc-id-repeated",
            "k1-negative", "b-above-one", "lengths-short", "offsets-from-1", "offsets-decrease",
            "offsets-short-of-postings", "tfs-short", "ordinal-past-end", "ordinal-negative",
            "ordinals-signed", "tf-zero", "tf-negative", "length-zero", "lengths-all-zero",
            "ordinals-float64", "ordinals-2d", "offsets-int64", "lengths-2d", "one-title-short",
            "texts-int8", "texts-2d", "texts-not-utf8", "text-offsets-int32",
            "text-offsets-float64", "ordinals-one-width-wider", "tfs-uint64",
            "text-offsets-one-width-wider", "text-offsets-short", "text-offsets-from-1",
            "text-offsets-decrease", "text-offsets-past-text",
            "text-offsets-short-of-text", "tfs-above-length", "tf-2**31-1", "lengths-past-texts",
        ],
    )
    def test_arrays_that_do_not_fit_meta_are_rejected(self, tmp_path, change, arrays):
        data = serialize_index(build_index(FIVE_DOCS))
        with np.load(io.BytesIO(data)) as members:
            replaced = {name: edit(members[name]) for name, edit in arrays.items()}
        path = tmp_path / "index.npz"
        path.write_bytes(with_meta(data, change or (lambda m: None), **replaced))
        with pytest.raises(UnknownFormatVersion) as err:
            load_index(path)
        assert str(err.value) == f"{path}: {UnknownFormatVersion(None, INDEX_FORMAT_VERSION)}"

    @pytest.mark.parametrize(
        "name, cause",
        [
            ("offsets", "offsets must be non-decreasing"),
            ("text_offsets", "text_offsets must run non-decreasing from 0 to the text length"),
        ],
        ids=["offsets", "text_offsets"],
    )
    def test_decreasing_unsigned_offsets_are_refused_as_decreasing(self, tmp_path, name, cause):
        """``np.diff`` of unsigned offsets wraps a decrease round to a large step, so the check
        compares neighbours; a decrease is refused by it, not by a later check it upsets."""
        data = serialize_index(build_index(FIVE_DOCS))
        with np.load(io.BytesIO(data)) as members:
            offsets = members[name]
        swapped = decreasing(offsets)
        assert offsets.dtype.kind == "u" and swapped[2] < swapped[1]
        path = index_file(tmp_path, with_meta(data, lambda m: None, **{name: swapped}))
        with pytest.raises(UnknownFormatVersion) as err:
            load_index(path)
        assert str(err.value) == f"{path}: {UnknownFormatVersion(None, INDEX_FORMAT_VERSION)}"
        assert str(err.value.__cause__) == cause

    def test_index_of_the_test_corpus_is_pinned(self):
        """The bytes of the index of tests/data, so that a format change is made on purpose."""
        data = serialize_index(build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl")))
        assert hashlib.sha256(data).hexdigest() == (
            "c0f0019f6e89b554d1a6647ea437342e09051e2cb2dbda1b5002c2fffeb8c1ae"
        )

    def test_file_round_trip(self, tmp_path):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl") + UNICODE_DOCS
        index = build_index(docs, k1=1.3, b=0.65)
        path = tmp_path / "index.json"
        save_index(index, path)
        clone = load_index(path)
        for name in ("offsets", "ordinals", "tfs", "doc_lengths", "impacts"):
            want, got = getattr(index, name), getattr(clone, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert clone.vocabulary == index.vocabulary
        for name in ("doc_ids", "titles", "texts"):
            assert getattr(clone, name) == getattr(index, name), name
        assert [clone.document(d.doc_id) for d in docs] == docs
        assert (clone.k1, clone.b, clone.avg_doc_length) == (1.3, 0.65, index.avg_doc_length)
        for query in [
            "methimazole graves", "pregnancy nitrofurantoin", "malaria fever fever", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 été"
        ]:
            assert retrieve(clone, query, 100) == retrieve(index, query, 100)
            terms = tokenize(query)
            for ordinal in range(index.doc_count):
                assert bm25_score(clone, terms, ordinal) == bm25_score(index, terms, ordinal)
        assert serialize_index(clone) == path.read_bytes()


    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.builds(
                lambda words, tail: " ".join([*words, tail]),
                st.lists(st.sampled_from(["fever", "cough", "ÉTÉ", "x_y", "42", "𝔘𝔫𝔦"]), min_size=1),
                st.text(max_size=5),
            ),
            min_size=1,
            max_size=8,
        ),
        titles=st.lists(st.text(max_size=6), min_size=8, max_size=8),
        ids=st.lists(st.text(max_size=4), min_size=8, max_size=8, unique=True),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    def test_round_trip_on_random_corpora(self, tmp_path_factory, texts, titles, ids, k1, b):
        docs = [Document(i, t, text) for i, t, text in zip(ids, titles, texts)]
        index = build_index(docs, k1=k1, b=b)
        data = serialize_index(index)
        clone = load_index(index_file(tmp_path_factory.mktemp("random"), data))
        for name in ("offsets", "ordinals", "tfs", "doc_lengths", "impacts"):
            assert getattr(clone, name).tobytes() == getattr(index, name).tobytes(), name
        for name in ("doc_ids", "titles", "texts"):
            assert getattr(clone, name) == getattr(index, name), name
        assert clone.vocabulary == index.vocabulary
        assert (clone.k1, clone.b) == (k1, b)
        assert serialize_index(clone) == data
        for query in ("fever", "cough été 42", "x y zebra 𝔲𝔫𝔦"):
            assert retrieve(clone, query, 3) == retrieve(index, query, 3)


# Up to 8 documents of (term, tf) pairs, or the same ones 40 times: tfs, lengths and offsets
# above 255 and ordinals above 255 are drawn, so each member takes uint8 in some and uint16 in
# others.
NARROW_CORPORA = st.lists(
    st.lists(st.tuples(st.integers(0, 39), st.integers(1, 300)), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
).flatmap(lambda docs: st.sampled_from([docs, docs * 40]))


class TestNarrowArrays:
    @settings(max_examples=40, deadline=None)
    @given(docs=NARROW_CORPORA, k1=st.floats(0.0, 3.0), b=st.floats(0.0, 1.0))
    @example(docs=[[(0, 300), (1, 1)], [(1, 2)]] * 150, k1=0.9, b=0.4)
    def test_same_bits_as_int32_arrays(self, tmp_path_factory, docs, k1, b):
        """Each member at its narrowest unsigned width gives the impacts, BM25 scores and
        feature rows that the same values as int32, format 3's layout, give, bit for bit;
        and a save and a load give the same bytes and dtypes back."""
        corpus = [
            Document(f"d{i}", "", " ".join(f"w{t}" for t, tf in pairs for _ in range(tf)))
            for i, pairs in enumerate(docs)
        ]
        narrow = build_index(corpus, k1=k1, b=b)
        names = ("offsets", "ordinals", "tfs", "doc_lengths")
        wide_arrays = [getattr(narrow, name).astype(np.int32) for name in names]
        with mock.patch("radkit.corpus._check_fit"):  # it refuses int32 members
            wide = PostingsIndex(
                narrow.doc_ids, narrow.titles, narrow.texts, narrow.terms, *wide_arrays, k1, b
            )
        assert narrow.impacts.tobytes() == wide.impacts.tobytes()
        for query in (["w0"], ["w1", "w3", "w0"], [f"w{t}" for t in range(40)]):
            assert bm25_scores(narrow, query).tobytes() == bm25_scores(wide, query).tobytes()
        ordinals = np.arange(narrow.doc_count)[::-1]
        rows = [doc_rows(index, ordinals, 16, 7).tobytes() for index in (narrow, wide)]
        assert rows[0] == rows[1]
        data = serialize_index(narrow)
        clone = load_index(index_file(tmp_path_factory.mktemp("narrow"), data))
        for name in (*names, "impacts"):
            want, got = getattr(narrow, name), getattr(clone, name)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert serialize_index(clone) == data


class TestBlocks:
    """A load works through the postings block by block; the block size shows in no result."""

    def test_several_blocks_give_the_impacts_of_one(self, monkeypatch):
        docs = load_corpus_jsonl(DATA_DIR / "corpus.jsonl")
        whole = build_index(docs)
        monkeypatch.setattr("radkit.corpus._BLOCK", 3)
        blocked = build_index(docs)  # the tf sums are checked in blocks of len(docs) postings
        assert len(blocked.ordinals) > 3 * len(docs)
        assert blocked.impacts.tobytes() == whole.impacts.tobytes()

    def test_a_length_that_the_last_block_contradicts_is_refused(self, monkeypatch):
        index = build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl"))
        monkeypatch.setattr("radkit.corpus._BLOCK", 3)
        lengths = index.doc_lengths.copy()
        lengths[index.ordinals[-1]] -= 1  # every length is at least 2, and the widest stays
        assert lengths.min() >= 1 and lengths.max() == index.doc_lengths.max()
        arrays = index.offsets, index.ordinals, index.tfs, lengths
        with pytest.raises(ValueError, match="term frequencies must sum to its length"):
            PostingsIndex(index.doc_ids, index.titles, index.texts, index.terms, *arrays, 0.9, 0.4)


class TestCorpusIngestion:
    def test_bad_json_line_reports_number(self, tmp_path):
        from radkit.errors import ParseError

        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "title": "", "text": "ok"}\n{broken\n')
        with pytest.raises(ParseError) as err:
            load_corpus_jsonl(path)
        assert err.value.line_no == 2

    def test_missing_text_field_rejected(self, tmp_path):
        from radkit.errors import ParseError

        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "title": "t"}\n')
        with pytest.raises(ParseError):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize(
        "second, error, message",
        [
            ('{"id": "a", "text": "again"}', DuplicateDocId, "duplicate document id: 'a'"),
            ('{"id": "b", "text": "..!! --"}', EmptyDocument, "document 'b' has no tokens"),
        ],
        ids=["duplicate-id", "no-tokens"],
    )
    def test_bad_document_names_its_line_before_a_later_bad_line(
        self, tmp_path, second, error, message
    ):
        """The reader checks each document as it reads it, so the first bad line is named."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n' + second + "\n{broken\n")
        with pytest.raises(error) as err:
            load_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 2: {message}"
