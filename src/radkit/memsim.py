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

import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

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
    training sample i is (j, prefix of length l) with label the next bit:
    ``references[training_j[i], :training_len[i]]`` and the bit after it.
    """

    references: np.ndarray  # (N, d) uint8
    kb: np.ndarray  # (N + R, d) uint8, randomized row order
    training_j: np.ndarray  # (n,) int
    training_len: np.ndarray  # (n,) int

    @cached_property
    def longest_prefix(self) -> np.ndarray:
        """(N,) longest training prefix length per subpopulation, -1 where none was drawn."""
        longest = np.full(self.references.shape[0], -1)
        np.maximum.at(longest, self.training_j, self.training_len)
        return longest


def prefix_keys(bits: np.ndarray) -> np.ndarray:
    """One key per row of a 2-D 0/1 array, ordered as the row's packed bytes.

    A row that packs into at most 8 bytes is one big-endian uint64 of them; a
    wider row is its packed bytes viewed as one np.void. Rows of one width have
    equal keys exactly when their bits are equal.
    """
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] <= 8:
        wide = np.zeros((len(packed), 8), np.uint8)
        wide[:, : packed.shape[1]] = packed
        return wide.view(">u8")[:, 0].astype(np.uint64)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))[:, 0]


def sample_task(config: SimConfig, rng: np.random.Generator) -> TaskInstance:
    """Draw references, distractors, and training samples.

    Distractors equal to a reference are dropped and redrawn as a block, so
    the KB holds exactly N + R rows with every reference present.
    """
    refs = rng.integers(0, 2, size=(config.N, config.d), dtype=np.uint8)
    ref_keys = set(prefix_keys(refs).tolist())
    distinct = len(ref_keys)
    if config.R > (1 << config.d) - distinct:
        raise ValueError(
            f"cannot draw {config.R} distractors distinct from {distinct} "
            f"references over {{0,1}}^{config.d}"
        )
    rows = [refs]
    missing = config.R
    while missing:
        block = rng.integers(0, 2, size=(missing, config.d), dtype=np.uint8)
        block = block[[key not in ref_keys for key in prefix_keys(block).tolist()]]
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
    """Stored reference prefixes: subpopulation j's has length ``lengths[j]``, -1 for none.

    ``total_bits`` charges ceil(log2 N) per entry for the subpopulation index;
    ``total_bits_plus_one`` is the alternative accounting that charges a single
    extra bit per entry.
    """

    m: int
    lengths: np.ndarray  # (N,) int

    @property
    def total_bits(self) -> int:
        stored = self.lengths[self.lengths >= 0]
        return int(stored.sum()) + len(stored) * ceil_log2(len(self.lengths))

    @property
    def total_bits_plus_one(self) -> int:
        stored = self.lengths[self.lengths >= 0]
        return int(stored.sum()) + len(stored)


def learn_budgeted(task: TaskInstance, m: int) -> MemorizedState:
    """Store the first min(m, l) bits of the longest-prefix sample per subpopulation.

    A sample with an empty prefix still records its subpopulation as seen.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return MemorizedState(m, np.minimum(task.longest_prefix, m))


def build_prefix_index(kb: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The KB rows' first-m-bits keys, sorted, and the row of each; rows sharing a key ascend."""
    keys = prefix_keys(kb[:, :m])
    rows = np.argsort(keys, kind="stable")
    return keys[rows], rows


def infer_budgeted_traced(
    state: MemorizedState, task: TaskInstance, query: Query, rng: np.random.Generator
) -> tuple[int, str, int]:
    """Predict the next bit; also report which case fired and the KB match count.

    Cases: no entry for the subpopulation -> random guess; entry of full
    budget length m -> uniform pick among the KB rows (ascending) sharing the
    stored prefix, answer read from the picked row; shorter entry covering
    the queried position -> direct read; otherwise random guess. The
    reference for ``answer_tests``'s first row: it scans the whole KB.
    """
    j, prefix = query
    l_t, stored, m = len(prefix), state.lengths[j], state.m
    if stored < 0:
        return int(rng.integers(0, 2)), CASE_UNSEEN, 0
    if stored == m:
        matches = np.flatnonzero((task.kb[:, :m] == task.references[j, :m]).all(1))
        pick = matches[int(rng.integers(0, len(matches)))]
        return int(task.kb[pick, l_t]), CASE_KB_LOOKUP, len(matches)
    if l_t < stored:
        return int(task.references[j, l_t]), CASE_PREFIX_READ, 0
    return int(rng.integers(0, 2)), CASE_GUESS, 0


def infer_budgeted(
    state: MemorizedState, task: TaskInstance, query: Query, rng: np.random.Generator
) -> int:
    return infer_budgeted_traced(state, task, query, rng)[0]


def learn_opt(task: TaskInstance) -> np.ndarray:
    """(N,) longest observed prefix per subpopulation, -1 for none (unbounded storage)."""
    return task.longest_prefix


def infer_opt(
    task: TaskInstance, longest: np.ndarray, query: Query, rng: np.random.Generator
) -> int:
    """Answer from a training prefix strictly longer than the query; else guess.

    A strictly longer prefix contains the queried position, so the answer
    is certain; with no such sample the remaining bits are uniform given
    the observations and a coin flip is optimal. ``longest`` is ``learn_opt(task)``.
    """
    j, prefix = query
    if longest[j] > len(prefix):
        return int(task.references[j, len(prefix)])
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
    index_bits = ceil_log2(N)
    length_bits = ceil_log2(d)
    return int(task.training_len.sum()) + n * (1 + index_bits + length_bits)


def answer_tests(
    task: TaskInstance, state: MemorizedState, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` test queries; return the (3, count) answers and the true labels.

    Row 0 answers as ``infer_budgeted(state, ...)``, row 1 as
    ``infer_opt(task, learn_opt(task), ...)`` and row 2, the naive memorizer, as
    ``infer_opt`` with coins of its own, given the draws in this order:
    subpopulations, prefix lengths, a (3, count) block of coins (a row per
    learner), then one pick per KB lookup. Stored prefixes are the
    references', so a position a stored prefix covers is answered with its
    true label. KB lookups search ``build_prefix_index(task.kb, state.m)``.
    """
    N, d = task.references.shape
    m = state.m
    longest = learn_opt(task)
    keys, rows = build_prefix_index(task.kb, m)
    j = rng.integers(0, N, size=count)
    l = rng.integers(0, d, size=count)
    coins = rng.integers(0, 2, size=(3, count))
    truth = task.references[j, l]
    stored = state.lengths
    answers = np.where(longest[j] > l, truth, coins)
    answers[0] = np.where(l < stored[j], truth, coins[0])
    wanted = prefix_keys(task.references[:, :m])
    first = np.searchsorted(keys, wanted)  # each subpopulation's KB matches, as a range of rows
    counts = np.searchsorted(keys, wanted, side="right") - first
    lookup = stored[j] == m
    picks = rng.integers(0, counts[j[lookup]])
    answers[0, lookup] = task.kb[rows[first[j[lookup]] + picks], l[lookup]]
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


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
    index_bits = ceil_log2(config.N)
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
        answers, truth = answer_tests(task, state, config.tests_per_trial, rng)
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
