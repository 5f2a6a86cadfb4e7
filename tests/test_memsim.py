"""Memorization simulator: sampling, learners, budget formula, error gaps."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radkit import memsim
from radkit.errors import DegenerateBoundWarning, InvalidEpsilon
from radkit.memsim import (
    CASE_GUESS,
    CASE_KB_LOOKUP,
    CASE_PREFIX_READ,
    CASE_UNSEEN,
    MemorizedState,
    SimConfig,
    TaskInstance,
    answer_tests,
    build_prefix_index,
    ceil_log2,
    compute_m,
    infer_budgeted,
    infer_budgeted_traced,
    infer_opt,
    learn_budgeted,
    learn_opt,
    m_formula,
    naive_bits,
    prefix_keys,
    run_simulation,
    sample_task,
)


def err_opt_enumerated(N: int, n: int, d: int) -> float:
    """Exhaustive average error of the optimal baseline over all training
    multisets and test draws; a coin flip errs half the time exactly when
    no training sample in the test's subpopulation has a longer prefix."""
    options = [(j, l) for j in range(N) for l in range(d)]
    total = 0
    err = 0.0
    for training in itertools.product(options, repeat=n):
        for j_t in range(N):
            for l_t in range(d):
                covered = any(j == j_t and l > l_t for j, l in training)
                err += 0.0 if covered else 0.5
                total += 1
    return err / total


class TestSampleTask:
    def test_d_one_forces_empty_prefixes(self):
        config = SimConfig(N=3, n=10, d=1, R=0, eps=0.5, trials=1, tests_per_trial=1)
        task = sample_task(config, np.random.default_rng(0))
        assert set(task.training_len.tolist()) == {0}
        for i in range(10):
            j, l = task.training_j[i], task.training_len[i]
            assert task.references[j, :l].size == 0
            assert task.references[j, l] == task.references[j, 0]

    def test_zero_distractors_kb_equals_references(self):
        config = SimConfig(N=5, n=3, d=16, R=0, eps=0.2, trials=1, tests_per_trial=1)
        task = sample_task(config, np.random.default_rng(1))
        kb_rows = sorted(row.tobytes() for row in task.kb)
        ref_rows = sorted(row.tobytes() for row in task.references)
        assert kb_rows == ref_rows

    def test_kb_contains_references_plus_r_rows(self):
        config = SimConfig(N=4, n=2, d=12, R=7, eps=0.2, trials=1, tests_per_trial=1)
        task = sample_task(config, np.random.default_rng(2))
        assert task.kb.shape == (11, 12)
        kb_rows = {row.tobytes() for row in task.kb}
        for row in task.references:
            assert row.tobytes() in kb_rows

    def test_distractors_never_collide_with_references(self):
        config = SimConfig(N=6, n=2, d=3, R=2, eps=0.2, trials=1, tests_per_trial=1)
        for seed in range(30):
            task = sample_task(config, np.random.default_rng(seed))
            refs = {row.tobytes() for row in task.references}
            non_ref = [row for row in task.kb if row.tobytes() not in refs]
            # with d=3 only 8 strings exist; drawn distractors must avoid refs
            assert len(non_ref) <= 2
            assert task.kb.shape[0] == 8

    @pytest.mark.parametrize("N,d,R", [(10, 4, 5), (5, 8, 60), (100, 128, 100)])
    def test_block_draw_matches_row_by_row_draw_when_d_is_a_multiple_of_4(self, N, d, R):
        """uint8 draws come four to a 32-bit word, so with d % 4 == 0 one
        (k, d) block uses the generator as k draws of one row each."""
        config = SimConfig(N=N, n=6, d=d, R=R, eps=0.2, trials=1, tests_per_trial=1)
        redrawn = 0
        for seed in range(20):
            task = sample_task(config, np.random.default_rng([23, seed]))
            rng = np.random.default_rng([23, seed])
            refs = rng.integers(0, 2, size=(N, d), dtype=np.uint8)
            ref_keys = {row.tobytes() for row in refs}
            rows = [refs]
            while len(rows) <= R:
                row = rng.integers(0, 2, size=d, dtype=np.uint8)
                if row.tobytes() in ref_keys:
                    redrawn += 1
                else:
                    rows.append(row[None, :])
            kb = np.concatenate(rows)[rng.permutation(N + R)]
            assert np.array_equal(task.kb, kb)
            assert np.array_equal(task.training_j, rng.integers(0, N, size=6))
            assert np.array_equal(task.training_len, rng.integers(0, d, size=6))
        if d < 128:
            assert redrawn > 0

    def test_infeasible_distractor_count_rejected(self):
        config = SimConfig(N=4, n=2, d=1, R=3, eps=0.2, trials=1, tests_per_trial=1)
        with pytest.raises(ValueError):
            sample_task(config, np.random.default_rng(0))

    def test_reference_bits_uniform(self):
        """Empirical frequency of reference bits stays near one half."""
        config = SimConfig(N=10, n=1, d=10, R=0, eps=0.2, trials=1, tests_per_trial=1)
        bits = []
        for seed in range(100):
            task = sample_task(config, np.random.default_rng([17, seed]))
            bits.append(task.references.mean())
        assert abs(float(np.mean(bits)) - 0.5) <= 0.02


class TestComputeM:
    def test_pinned_value(self):
        """ceil(log2((1 - 0.99^100) * (200^2 - 200) / 0.2)) = 17."""
        assert compute_m(100, 100, 100, 0.1) == 17

    def test_degenerate_single_entry_kb(self):
        with pytest.warns(DegenerateBoundWarning):
            assert compute_m(1, 1, 0, 0.5) == 1

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            compute_m(10, 10, 0, 1.5)

    def test_upper_bound_holds(self):
        """The real-valued budget never exceeds log2((N+R)^2 / (2 eps))."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            N = int(rng.integers(1, 500))
            n = int(rng.integers(1, 500))
            R = int(rng.integers(0, 500))
            if N + R < 2:
                continue
            eps = float(rng.uniform(0.01, 0.99))
            assert m_formula(N, n, R, eps) <= math.log2((N + R) ** 2 / (2 * eps)) + 1e-12

    def test_monotone_in_r(self):
        values = [compute_m(50, 80, R, 0.1) for R in range(0, 400, 25)]
        assert values == sorted(values)


class TestLearnBudgeted:
    def _task(self):
        refs = np.array(
            [[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 1], [1, 1, 0, 0, 0, 1]], dtype=np.uint8
        )
        kb = refs.copy()
        return refs, kb

    def test_unseen_subpopulation_has_no_entry(self):
        refs, kb = self._task()
        task = TaskInstance(refs, kb, np.array([0, 0]), np.array([2, 4]))
        state = learn_budgeted(task, m=3)
        assert state.lengths.tolist() == [3, -1, -1]

    def test_longest_prefix_kept_and_truncated_to_budget(self):
        refs, kb = self._task()
        task = TaskInstance(refs, kb, np.array([1, 1]), np.array([2, 5]))
        state = learn_budgeted(task, m=3)
        assert state.lengths.tolist() == [-1, 3, -1]

    def test_zero_length_sample_still_marks_subpopulation(self):
        refs, kb = self._task()
        task = TaskInstance(refs, kb, np.array([2]), np.array([0]))
        state = learn_budgeted(task, m=4)
        assert state.lengths.tolist() == [-1, -1, 0]
        assert state.total_bits == ceil_log2(3)
        assert state.total_bits_plus_one == 1

    def test_one_entry_per_subpopulation(self):
        refs, kb = self._task()
        task = TaskInstance(refs, kb, np.array([0, 0, 0, 0]), np.array([1, 3, 2, 0]))
        state = learn_budgeted(task, m=6)
        assert state.lengths.tolist() == [3, -1, -1]
        assert state.total_bits == 3 + ceil_log2(3)

    def test_bit_budget_hard_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            config = SimConfig(
                N=int(rng.integers(1, 30)),
                n=int(rng.integers(1, 60)),
                d=int(rng.integers(8, 40)),
                R=int(rng.integers(0, 10)),
                eps=0.1,
                trials=1,
                tests_per_trial=1,
            )
            task = sample_task(config, rng)
            m = min(compute_m(config.N, config.n, config.R, config.eps), config.d)
            state = learn_budgeted(task, m)
            index_bits = ceil_log2(config.N) if config.N > 1 else 0
            assert state.total_bits <= min(config.N, config.n) * (m + index_bits)
            assert state.total_bits_plus_one <= min(config.N, config.n) * (m + 1)


class TestInferBudgeted:
    def test_prefix_read_case(self):
        """Stored prefix 101 with budget above its length answers position 2 directly."""
        refs = np.array([[1, 0, 1, 1, 0]], dtype=np.uint8)
        state = MemorizedState(m=4, lengths=np.array([3]))
        task = TaskInstance(refs, refs, np.array([0]), np.array([3]))
        rng = np.random.default_rng(0)
        bit, case, _ = infer_budgeted_traced(state, task, (0, refs[0, :1]), rng)
        assert case == CASE_PREFIX_READ
        assert bit == 0  # second stored bit

    def test_kb_lookup_unique_match_always_correct(self):
        rng = np.random.default_rng(44)
        config = SimConfig(N=6, n=40, d=24, R=6, eps=0.1, trials=1, tests_per_trial=1)
        checked = 0
        for seed in range(20):
            trial_rng = np.random.default_rng([5, seed])
            task = sample_task(config, trial_rng)
            m = min(compute_m(config.N, config.n, config.R, config.eps), config.d)
            state = learn_budgeted(task, m)
            for _ in range(60):
                j = int(trial_rng.integers(0, config.N))
                l_t = int(trial_rng.integers(0, config.d))
                bit, case, matches = infer_budgeted_traced(
                    state, task, (j, task.references[j, :l_t]), trial_rng
                )
                if case == CASE_KB_LOOKUP:
                    assert matches >= 1
                    if matches == 1:
                        assert bit == int(task.references[j, l_t])
                        checked += 1
        assert checked > 100

    def test_forced_collision_answers_half_the_time(self):
        """Two KB rows share the stored m-bit prefix and differ at the queried
        position, so the uniform pick is right with probability one half."""
        m = 6
        prefix = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        ref = np.concatenate([prefix, [0]]).astype(np.uint8)
        decoy = np.concatenate([prefix, [1]]).astype(np.uint8)
        refs = ref[None, :]
        kb = np.stack([decoy, ref])
        task = TaskInstance(refs, kb, np.array([0]), np.array([m]))
        state = learn_budgeted(task, m)
        assert state.lengths[0] == m
        rng = np.random.default_rng(123)
        draws = 4000
        correct = 0
        for _ in range(draws):
            bit, case, matches = infer_budgeted_traced(state, task, (0, ref[:m]), rng)
            assert case == CASE_KB_LOOKUP and matches == 2
            correct += bit == int(ref[m])
        assert abs(correct / draws - 0.5) <= 0.05

    def test_unseen_and_guess_cases_flip_coins(self):
        refs = np.array([[1, 1, 1, 1]], dtype=np.uint8)
        task = TaskInstance(refs, refs, np.array([0]), np.array([1]))
        rng = np.random.default_rng(7)
        empty = MemorizedState(m=3, lengths=np.array([-1]))
        seen = {int(infer_budgeted(empty, task, (0, refs[0, :2]), rng)) for _ in range(50)}
        assert seen == {0, 1}
        short = MemorizedState(m=3, lengths=np.array([1]))
        bits = {infer_budgeted_traced(short, task, (0, refs[0, :2]), rng)[1] for _ in range(20)}
        assert bits == {CASE_GUESS}


class TestInferOpt:
    def test_covered_position_is_deterministic(self):
        refs = np.array([[0, 1, 0, 1, 1]], dtype=np.uint8)
        task = TaskInstance(refs, refs, np.array([0]), np.array([4]))
        longest = learn_opt(task)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert infer_opt(task, longest, (0, refs[0, :3]), rng) == int(refs[0, 3])

    def test_uncovered_position_flips_coin(self):
        refs = np.array([[0, 1, 0, 1, 1]], dtype=np.uint8)
        task = TaskInstance(refs, refs, np.array([0]), np.array([2]))
        longest = learn_opt(task)
        rng = np.random.default_rng(1)
        seen = {infer_opt(task, longest, (0, refs[0, :3]), rng) for _ in range(50)}
        assert seen == {0, 1}

    @pytest.mark.parametrize("N,n,d", [(2, 3, 3), (3, 4, 4)])
    def test_error_matches_exhaustive_enumeration(self, N, n, d):
        want = err_opt_enumerated(N, n, d)
        config = SimConfig(
            N=N, n=n, d=d, R=0, eps=0.2, trials=400, tests_per_trial=150, seed=6
        )
        report = run_simulation(config)
        tolerance = 4 * math.sqrt(want * (1 - want) / report.test_count)
        assert abs(report.err_opt - want) <= tolerance


class TestNaiveBits:
    def test_accounting_example(self):
        """One sample of length d-1 costs (d-1) + 1 + log2(N) + log2(d) bits."""
        refs = np.zeros((2, 8), dtype=np.uint8)
        task = TaskInstance(refs, refs, np.array([1]), np.array([7]))
        assert naive_bits(task) == 7 + 1 + 1 + 3

    def test_grows_like_n_times_d(self):
        config = SimConfig(N=20, n=200, d=64, R=0, eps=0.1, trials=1, tests_per_trial=1)
        totals = []
        for seed in range(40):
            task = sample_task(config, np.random.default_rng([11, seed]))
            totals.append(naive_bits(task))
        expected = config.n * ((config.d - 1) / 2 + 1 + ceil_log2(config.N) + ceil_log2(config.d))
        assert abs(float(np.mean(totals)) - expected) <= 0.10 * expected

    def test_no_samples_no_bits(self):
        refs = np.zeros((2, 4), dtype=np.uint8)
        task = TaskInstance(refs, refs, np.array([], dtype=int), np.array([], dtype=int))
        assert naive_bits(task) == 0


class _Recording:
    """A generator that hands out a real generator's draws and keeps each one."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = []

    def integers(self, *args, **kwargs):
        self.draws.append(self.rng.integers(*args, **kwargs))
        return self.draws[-1]


class _Fixed:
    """A generator whose every draw is ``value``; checks that it lies in range."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, low, high):
        assert low <= self.value < high
        return self.value


class TestAnswerTests:
    @pytest.mark.parametrize(
        "N,n,d,R,m",
        [(4, 8, 6, 40, 3), (100, 100, 128, 100, 17), (3, 4, 4, 0, 2)],
        ids=["short-strings", "desk-scale", "no-distractors"],
    )
    def test_matches_per_query_reference_on_the_same_draws(self, N, n, d, R, m):
        """Each answer of the array pass equals infer_budgeted_traced's and
        infer_opt's when they are handed the pass's own draws, per query.
        The reference scans the whole KB, in ascending row order."""
        config = SimConfig(N=N, n=n, d=d, R=R, eps=0.1, trials=1, tests_per_trial=1)
        cases = Counter()
        multi_row_lookups = 0
        for trial in range(12):
            rng = np.random.default_rng([31, trial])
            task = sample_task(config, rng)
            state = learn_budgeted(task, m)
            longest = learn_opt(task)
            recording = _Recording(rng)
            answers, truth = answer_tests(task, state, 300, recording)
            j, l, coins, picks = recording.draws
            assert np.array_equal(truth, task.references[j, l])
            picks = iter(picks.tolist())
            for i in range(len(j)):
                query = (int(j[i]), task.references[j[i], : l[i]])
                lookup = state.lengths[j[i]] == m
                draw = _Fixed(next(picks) if lookup else int(coins[0, i]))
                bit, case, matches = infer_budgeted_traced(state, task, query, draw)
                assert (case == CASE_KB_LOOKUP) == lookup
                cases[case] += 1
                multi_row_lookups += matches > 1
                assert answers[0, i] == bit, (i, case)
                assert answers[1, i] == infer_opt(task, longest, query, _Fixed(int(coins[1, i])))
                assert answers[2, i] == infer_opt(task, longest, query, _Fixed(int(coins[2, i])))
            assert next(picks, None) is None  # one pick per KB lookup, no more
        assert set(cases) == {CASE_UNSEEN, CASE_KB_LOOKUP, CASE_PREFIX_READ, CASE_GUESS}, cases
        if d < 128:  # with 17-bit keys over 200 rows a shared key is rare
            assert multi_row_lookups > 0


class TestPrefixIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 40),
        d=st.integers(1, 8),
    )
    def test_searchsorted_range_is_the_brute_force_scan(self, data, rows, d):
        """With d <= 8 keys collide often. For every KB row's m-bit prefix
        (a full-length stored prefix is always one, since every reference is
        a KB row), its range in the sorted keys holds exactly the rows of the
        brute-force scan, ascending."""
        kb = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                               min_size=rows, max_size=rows)),
            dtype=np.uint8,
        )
        m = data.draw(st.integers(1, d))
        keys, order = build_prefix_index(kb, m)
        wanted = prefix_keys(kb[:, :m])
        first = np.searchsorted(keys, wanted)
        stop = np.searchsorted(keys, wanted, side="right")
        for i in range(rows):
            scan = np.flatnonzero((kb[:, :m] == kb[i, :m]).all(1))
            assert order[first[i] : stop[i]].tolist() == scan.tolist()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.sampled_from([1, 8, 9, 63, 64, 65, 72, 130]) | st.integers(1, 130))
    def test_keys_equal_exactly_when_bits_equal(self, data, width):
        """Keys are uint64 up to 64 bits and np.void above; either way they compare and
        sort like the rows' bits. Rows are copies of a few bases, some with one bit
        flipped in the last nine, so equal rows and rows that differ only in the last
        packed byte are both common. For every prefix width m, each row's
        ``searchsorted`` range holds exactly the rows of the brute-force scan."""
        row = st.lists(st.integers(0, 1), min_size=width, max_size=width)
        bases = data.draw(st.lists(row, min_size=1, max_size=3))
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            bits = list(data.draw(st.sampled_from(bases)))
            if data.draw(st.booleans()):
                bits[data.draw(st.integers(max(0, width - 9), width - 1))] ^= 1
            rows.append(bits)
        kb = np.array(rows, dtype=np.uint8)
        keys = prefix_keys(kb)
        assert keys.shape == (len(kb),)
        assert keys.dtype == (np.uint64 if width <= 64 else np.dtype((np.void, -(-width // 8))))
        assert [[a == b for b in keys] for a in keys] == [
            [bool((x == y).all()) for y in kb] for x in kb
        ]
        m = data.draw(st.integers(1, width))
        sorted_keys, order = build_prefix_index(kb, m)
        assert order.tolist() == sorted(range(len(kb)), key=lambda i: (rows[i][:m], i))
        wanted = prefix_keys(kb[:, :m])
        first = np.searchsorted(sorted_keys, wanted)
        stop = np.searchsorted(sorted_keys, wanted, side="right")
        for i in range(len(kb)):
            scan = np.flatnonzero((kb[:, :m] == kb[i, :m]).all(1))
            assert order[first[i] : stop[i]].tolist() == scan.tolist()


class TestRunSimulation:
    def test_same_seed_identical_report(self):
        config = SimConfig(N=8, n=16, d=16, R=4, eps=0.2, trials=10, tests_per_trial=50, seed=42)
        assert run_simulation(config) == run_simulation(config)

    def test_rates_in_unit_interval_and_naive_tracks_opt(self):
        config = SimConfig(N=10, n=30, d=32, R=10, eps=0.2, trials=60, tests_per_trial=200, seed=2)
        report = run_simulation(config)
        for rate in (report.err_phi, report.err_opt, report.err_naive):
            assert 0.0 <= rate <= 1.0
        assert abs(report.err_naive - report.err_opt) <= 3 * (report.se_naive + report.se_opt)

    def test_saturated_budget_matches_opt(self):
        """With no distractors and the budget clamped to the string length,
        the KB lookup can never fire and both learners follow the same rule."""
        config = SimConfig(N=8, n=200, d=8, R=0, eps=0.01, trials=80, tests_per_trial=100, seed=9)
        report = run_simulation(config)
        assert report.m == config.d
        assert abs(report.err_phi - report.err_opt) <= 3 * (report.se_phi + report.se_opt)

    def test_unique_prefixes_make_kb_lookup_exact(self):
        """Dense sampling with a sub-length budget: lookups fire and the
        budgeted learner stays within the allowed gap of the baseline."""
        config = SimConfig(N=6, n=120, d=32, R=2, eps=0.05, trials=60, tests_per_trial=150, seed=14)
        report = run_simulation(config)
        assert report.m < config.d
        assert report.gap <= config.eps + 3 * (report.se_phi + report.se_opt)
        # the KB route answers positions the baseline must guess, so here
        # the budgeted learner should do at least as well
        assert report.err_phi <= report.err_opt + 3 * (report.se_phi + report.se_opt)

    def test_bits_reported_and_bounded(self):
        config = SimConfig(N=12, n=40, d=24, R=6, eps=0.1, trials=30, tests_per_trial=50, seed=5)
        report = run_simulation(config)
        assert report.max_bits_phi <= report.bits_budget
        assert report.mean_bits_phi <= report.max_bits_phi
        assert report.bits_naive > report.mean_bits_phi

    @pytest.mark.parametrize(
        "config, m, redraws, digest",
        [
            (
                SimConfig(N=3, n=10, d=3, R=4, eps=0.1, trials=6, tests_per_trial=50, seed=2),
                3, 8, "15150aa4083ffe26330a43f95c009ed00387646a8f85be2ca60d10e161b4b545",
            ),
            (
                SimConfig(N=60, n=200, d=200, R=3000, eps=1e-15, trials=3, tests_per_trial=200,
                          seed=1),
                72, 0, "357ae7552c8c7ff490a2bbb76bb3b5c2f96bcd859dd1affddd6c46e7c9c9a802",
            ),
        ],
        ids=["distractor-redraws", "m-above-64"],
    )
    def test_report_is_pinned(self, monkeypatch, config, m, redraws, digest):
        """Reports, byte for byte: one config whose distractor blocks hit references
        and are redrawn, one whose 72-bit prefixes are wider than a uint64 key.

        ``prefix_keys`` runs four times a trial (references, the first distractor
        block, the prefix index, the test queries) and once more per redrawn block.
        As the bench pins, these hold for numpy's PCG64 ``Generator.integers`` stream.
        """
        calls = []
        keys = memsim.prefix_keys
        monkeypatch.setattr(memsim, "prefix_keys", lambda bits: calls.append(1) or keys(bits))
        report = run_simulation(config)
        assert (report.m, len(calls) - 4 * config.trials) == (m, redraws)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_report_serializes_to_json(self):
        import json

        config = SimConfig(N=4, n=8, d=8, R=2, eps=0.3, trials=3, tests_per_trial=10)
        payload = json.loads(run_simulation(config).to_json())
        assert payload["config"]["N"] == 4
        assert "err_phi" in payload and "bits_budget" in payload
