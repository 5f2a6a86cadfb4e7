"""Exception types shared across the toolkit."""

# Each character that str.splitlines breaks a line at, mapped to its \uXXXX escape.
_LINE_BREAKS = {ord(c): f"\\u{ord(c):04x}" for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class RadkitError(Exception):
    """Base class for all toolkit errors."""


class DuplicateDocId(RadkitError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")


class EmptyDocument(RadkitError):
    def __init__(self, doc_id: str):
        super().__init__(f"document {doc_id!r} has no tokens")


class UnencodableDocument(RadkitError):
    def __init__(self, doc_id: str, name: str, exc: UnicodeEncodeError):
        super().__init__(f"document {doc_id!r}: {name} cannot be written as UTF-8: {exc.reason}")


class InvalidOrdinal(RadkitError):
    def __init__(self, ordinal: int, doc_count: int):
        super().__init__(f"ordinal {ordinal} out of range for {doc_count} documents")


class UnknownFormatVersion(RadkitError):
    def __init__(self, found, expected, what: str = "file format", path=None):
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}unknown {what} version {found!r} (expected {expected!r})")


class FieldTypeError(RadkitError, ValueError):
    """A field of another JSON type than its reader takes; ``read_jsonl`` makes it a ParseError."""


class ParseError(RadkitError):
    def __init__(self, path, line_no: int, message: str):
        # One line: the path and the message may echo input text that holds line breaks.
        super().__init__(f"{path}: line {line_no}: {message}".translate(_LINE_BREAKS))
        self.line_no = line_no


class AnswerNotInOptions(RadkitError):
    def __init__(self, example_id: str, answer: str, options):
        opts = ", ".join(sorted(options)) or "<none>"
        super().__init__(
            f"record {example_id!r}: answer {answer!r} is not among options {{{opts}}}"
        )


class NoKnowledge(RadkitError):
    def __init__(self, example_id: str, rationale_index: int):
        super().__init__(
            f"record {example_id!r} rationale {rationale_index}: "
            "knowledge-augmented template requires at least one passage"
        )


class DegenerateCandidateSet(RadkitError):
    def __init__(self, example_id: str, rationale_index: int, size: int):
        super().__init__(
            f"record {example_id!r} rationale {rationale_index}: "
            f"only {size} distinct candidate document(s), need at least 2"
        )


class NonPositiveTemperature(RadkitError):
    def __init__(self, tau: float):
        super().__init__(f"softmax temperature must be finite and > 0, got {tau}")


class EmptyCandidates(RadkitError):
    def __init__(self, query: str):
        super().__init__(f"no candidate documents retrieved for query: {query[:80]!r}")


class MissingSilver(RadkitError):
    def __init__(self, example_id: str):
        super().__init__(f"no silver set for example {example_id!r}")


class EmptyEvaluation(RadkitError):
    """Nothing to score: no prediction bundles, or every silver set is empty."""


class InvalidEpsilon(RadkitError):
    def __init__(self, eps: float):
        super().__init__(f"epsilon must lie in (0, 1), got {eps}")


class DegenerateBoundWarning(UserWarning):
    """Raised when the prefix-budget formula degenerates (fewer than 2 KB entries)."""
