"""Monte-Carlo study of memorization with and without a knowledge base.

The task: N reference bit-strings of length d are drawn uniformly. A
sample reveals a subpopulation index j and a prefix of its reference
string; the label is the next bit. Three learners are compared:

* a naive memorizer that stores every training sample verbatim,
* an optimal baseline that answers from a covering training prefix and
  otherwise guesses,
* a budgeted learner that stores at most one truncated prefix (at most m
  bits) per subpopulation and, when the stored prefix reaches the budget,
  resolves the full string by prefix lookup in an unlabeled KB containing
  all references plus R distractors.

The simulator measures error rates, the budgeted learner's suboptimality
gap, and stored-bit accountings, so the storage/accuracy trade-off can be
checked against its analytic bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DegenerateBoundWarning, InvalidEpsilon

Query = tuple[int, np.ndarray]  # (subpopulation index, observed prefix)

CASE_UNSEEN = "unseen"
CASE_KB_LOOKUP = "kb_lookup"
CASE_PREFIX_READ = "prefix_read"
CASE_GUESS = "guess"


def ceil_log2(x: int) -> int:
    """Smallest b with 2**b >= x, for x >= 1."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class SimConfig:
    N: int
    n: int
    d: int
    R: int
    eps: float
    trials: int = 200
    tests_per_trial: int = 500
    seed: int = 0

    def __post_init__(self):
        if min(self.N, self.n, self.d, self.trials, self.tests_per_trial) < 1:
            raise ValueError("N, n, d, trials, tests_per_trial must all be >= 1")
        if self.R < 0:
            raise ValueError("R must be >= 0")
        if not 0.0 < self.eps < 1.0:
            raise InvalidEpsilon(self.eps)


@dataclass(frozen=True)
class TaskInstance:
    """One sampled task: references, unlabeled KB, and training samples.

    The KB rows are shuffled and carry no subpopulation identifiers. A
    training sample i is (j, prefix of length l) with label the next bit;
    prefixes and labels are resolved through the accessors below.
    """

    references: np.ndarray  # (N, d) uint8
    kb: np.ndarray  # (N + R, d) uint8, randomized row order
    training_j: np.ndarray  # (n,) int
    training_len: np.ndarray  # (n,) int

    def training_prefix(self, i: int) -> np.ndarray:
        return self.references[self.training_j[i], : self.training_len[i]]

    def training_label(self, i: int) -> int:
        return int(self.references[self.training_j[i], self.training_len[i]])

    @cached_property
    def longest_prefix(self) -> np.ndarray:
        """(N,) longest training prefix length per subpopulation, -1 where none was drawn."""
        longest = np.full(self.references.shape[0], -1)
        np.maximum.at(longest, self.training_j, self.training_len)
        return longest


def sample_task(config: SimConfig, rng: np.random.Generator) -> TaskInstance:
    """Draw references, distractors, and training samples.

    Distractors equal to a reference are dropped and redrawn as a block, so
    the KB holds exactly N + R rows with every reference present.
    """
    refs = rng.integers(0, 2, size=(config.N, config.d), dtype=np.uint8)
    ref_keys = {row.tobytes() for row in refs}
    if config.R > (1 << config.d) - len(ref_keys):
        raise ValueError(
            f"cannot draw {config.R} distractors distinct from {len(ref_keys)} "
            f"references over {{0,1}}^{config.d}"
        )
    rows = [refs]
    missing = config.R
    while missing:
        block = rng.integers(0, 2, size=(missing, config.d), dtype=np.uint8)
        block = block[[row.tobytes() not in ref_keys for row in block]]
        rows.append(block)
        missing -= len(block)
    kb = np.concatenate(rows, axis=0)
    kb = kb[rng.permutation(kb.shape[0])]
    training_j = rng.integers(0, config.N, size=config.n)
    training_len = rng.integers(0, config.d, size=config.n)
    return TaskInstance(refs, kb, training_j, training_len)


def m_formula(N: int, n: int, R: int, eps: float) -> float:
    """Real-valued prefix budget; -inf when the KB has fewer than 2 rows."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(eps)
    pair_count = (N + R) ** 2 - (N + R)
    coverage = 1.0 - ((N - 1) / N) ** n
    if pair_count <= 0 or coverage <= 0.0:
        return float("-inf")
    return math.log2(coverage * pair_count / (2.0 * eps))


def compute_m(N: int, n: int, R: int, eps: float) -> int:
    """Ceiling of the prefix-budget formula, at least 1.

    Callers storing prefixes must additionally clamp to the string length
    d. Degenerate configurations (KB smaller than 2 rows) warn and fall
    back to 1.
    """
    value = m_formula(N, n, R, eps)
    if not math.isfinite(value):
        warnings.warn(
            "prefix-budget formula degenerates for fewer than 2 KB rows; using m=1",
            DegenerateBoundWarning,
            stacklevel=2,
        )
        return 1
    return max(1, math.ceil(value))


@dataclass
class MemorizedState:
    """Per-subpopulation stored prefixes (at most one entry each).

    ``total_bits`` charges ceil(log2 N) per entry for the subpopulation
    index; ``total_bits_plus_one`` is the alternative accounting that
    charges a single extra bit per entry.
    """

    m: int
    subpop_count: int
    entries: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        index_bits = ceil_log2(self.subpop_count) if self.subpop_count > 1 else 0
        return sum(len(p) + index_bits for p in self.entries.values())

    @property
    def total_bits_plus_one(self) -> int:
        return sum(len(p) + 1 for p in self.entries.values())


def learn_budgeted(task: TaskInstance, m: int) -> MemorizedState:
    """Store the first min(m, l) bits of the longest-prefix sample per subpopulation.

    A sample with an empty prefix still records its subpopulation as seen.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    longest = task.longest_prefix.tolist()
    entries = {j: task.references[j, : min(m, l)].copy() for j, l in enumerate(longest) if l >= 0}
    return MemorizedState(m=m, subpop_count=task.references.shape[0], entries=entries)


def build_prefix_index(kb: np.ndarray, m: int) -> dict[bytes, tuple[int, ...]]:
    """Map each KB row's first-m-bits key to the row indices sharing it."""
    index: dict[bytes, list[int]] = {}
    for i in range(kb.shape[0]):
        index.setdefault(kb[i, :m].tobytes(), []).append(i)
    return {key: tuple(rows) for key, rows in index.items()}


def infer_budgeted_traced(
    state: MemorizedState,
    kb: np.ndarray,
    query: Query,
    m: int,
    rng: np.random.Generator,
    prefix_index: Mapping[bytes, tuple[int, ...]],
) -> tuple[int, str, int]:
    """Predict the next bit; also report which case fired and the KB match count.

    Cases: no entry for the subpopulation -> random guess; entry of full
    budget length m -> uniform pick among KB rows sharing the stored
    prefix, answer read from the picked row; shorter entry covering the
    queried position -> direct read; otherwise random guess.
    ``prefix_index`` must be ``build_prefix_index(kb, m)``.
    """
    j, prefix = query
    l_t = len(prefix)
    stored = state.entries.get(j)
    if stored is None:
        return int(rng.integers(0, 2)), CASE_UNSEEN, 0
    if len(stored) == m:
        matches = prefix_index[stored.tobytes()]
        pick = matches[int(rng.integers(0, len(matches)))]
        return int(kb[pick, l_t]), CASE_KB_LOOKUP, len(matches)
    if l_t < len(stored):
        return int(stored[l_t]), CASE_PREFIX_READ, 0
    return int(rng.integers(0, 2)), CASE_GUESS, 0


def infer_budgeted(
    state: MemorizedState,
    kb: np.ndarray,
    query: Query,
    m: int,
    rng: np.random.Generator,
    prefix_index: Mapping[bytes, tuple[int, ...]],
) -> int:
    return infer_budgeted_traced(state, kb, query, m, rng, prefix_index)[0]


@dataclass
class OptMemory:
    """Longest observed prefix per subpopulation (unbounded storage)."""

    entries: dict[int, np.ndarray] = field(default_factory=dict)


def learn_opt(task: TaskInstance) -> OptMemory:
    longest = task.longest_prefix.tolist()
    return OptMemory({j: task.references[j, :l].copy() for j, l in enumerate(longest) if l >= 0})


def infer_opt(memory: OptMemory, query: Query, rng: np.random.Generator) -> int:
    """Answer from a training prefix strictly longer than the query; else guess.

    A strictly longer prefix contains the queried position, so the answer
    is certain; with no such sample the remaining bits are uniform given
    the observations and a coin flip is optimal.
    """
    j, prefix = query
    l_t = len(prefix)
    stored = memory.entries.get(j)
    if stored is not None and len(stored) > l_t:
        return int(stored[l_t])
    return int(rng.integers(0, 2))


def naive_bits(task: TaskInstance) -> int:
    """Verbatim storage cost of all training samples.

    Each sample costs its prefix length, one label bit, a subpopulation
    index, and a length field. Predictions of the naive memorizer follow
    the same rule as the optimal baseline (it holds the same information).
    """
    n = len(task.training_j)
    if n == 0:
        return 0
    N, d = task.references.shape
    index_bits = ceil_log2(N) if N > 1 else 0
    length_bits = ceil_log2(d) if d > 1 else 0
    return int(task.training_len.sum()) + n * (1 + index_bits + length_bits)


def answer_tests(
    task: TaskInstance,
    state: MemorizedState,
    memory: OptMemory,
    prefix_index: Mapping[bytes, tuple[int, ...]],
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` test queries; return the (3, count) answers and the true labels.

    Row 0 answers as ``infer_budgeted(state, ...)``, row 1 as
    ``infer_opt(memory, ...)`` and row 2, the naive memorizer, as ``infer_opt``
    with coins of its own, given the draws in this order: subpopulations,
    prefix lengths, a (3, count) block of coins (a row per learner), then one
    pick per KB lookup. Stored prefixes are the references', so a position a
    stored prefix covers is answered with its true label.
    """
    N, d = task.references.shape
    m = state.m
    j = rng.integers(0, N, size=count)
    l = rng.integers(0, d, size=count)
    coins = rng.integers(0, 2, size=(3, count))
    truth = task.references[j, l]
    lengths = np.full((2, N), -1)  # entry length per learner and subpopulation, -1 for none
    for row, entries in enumerate((state.entries, memory.entries)):
        lengths[row, list(entries)] = [len(p) for p in entries.values()]
    stored, known = lengths
    answers = np.where(known[j] > l, truth, coins)
    answers[0] = np.where(l < stored[j], truth, coins[0])
    full = np.flatnonzero(stored == m)
    matches = [prefix_index[state.entries[f].tobytes()] for f in full.tolist()]
    counts = np.zeros(N, dtype=np.int64)
    counts[full] = [len(group) for group in matches]
    rows = np.array([row for group in matches for row in group], dtype=np.int64)
    lookup = stored[j] == m
    picks = rng.integers(0, counts[j[lookup]])
    row_of = rows[(np.cumsum(counts) - counts)[j[lookup]] + picks]
    answers[0, lookup] = task.kb[row_of, l[lookup]]
    return answers, truth


@dataclass(frozen=True)
class SimReport:
    err_phi: float
    se_phi: float
    err_opt: float
    se_opt: float
    err_naive: float
    se_naive: float
    gap: float
    m: int
    mean_bits_phi: float
    max_bits_phi: int
    bits_budget: int
    mean_bits_phi_plus_one: float
    bits_naive: float
    test_count: int
    config: dict

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(asdict(self), indent=indent, sort_keys=True)


def _rate_and_se(errors: int, count: int) -> tuple[float, float]:
    p = errors / count
    return p, math.sqrt(p * (1.0 - p) / count)


def run_simulation(config: SimConfig) -> SimReport:
    """Run all three learners over fresh tasks and test draws.

    Deterministic given the seed: trial t uses the generator seeded with
    (seed, t). The budgeted learner's stored bits are hard-checked against
    min(N, n) * (m + ceil(log2 N)) on every trial.
    """
    m = min(compute_m(config.N, config.n, config.R, config.eps), config.d)
    index_bits = ceil_log2(config.N) if config.N > 1 else 0
    budget = min(config.N, config.n) * (m + index_bits)
    errors = np.zeros(3, dtype=np.int64)  # budgeted, optimal, naive
    bits = np.zeros((3, config.trials), dtype=np.int64)  # budgeted, its +1 accounting, naive
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        task = sample_task(config, rng)
        state = learn_budgeted(task, m)
        bits[:, trial] = state.total_bits, state.total_bits_plus_one, naive_bits(task)
        if bits[0, trial] > budget:
            raise AssertionError(
                f"stored bits {bits[0, trial]} exceed budget {budget} on trial {trial}"
            )
        opt_memory = learn_opt(task)
        prefix_index = build_prefix_index(task.kb, m)
        answers, truth = answer_tests(
            task, state, opt_memory, prefix_index, config.tests_per_trial, rng
        )
        errors += (answers != truth).sum(axis=1)
    count = config.trials * config.tests_per_trial
    (p_phi, se_phi), (p_opt, se_opt), (p_nv, se_nv) = (
        _rate_and_se(int(e), count) for e in errors
    )
    return SimReport(
        err_phi=p_phi,
        se_phi=se_phi,
        err_opt=p_opt,
        se_opt=se_opt,
        err_naive=p_nv,
        se_naive=se_nv,
        gap=p_phi - p_opt,
        m=m,
        mean_bits_phi=float(bits[0].mean()),
        max_bits_phi=int(bits[0].max()),
        bits_budget=budget,
        mean_bits_phi_plus_one=float(bits[1].mean()),
        bits_naive=float(bits[2].mean()),
        test_count=count,
        config=asdict(config),
    )
