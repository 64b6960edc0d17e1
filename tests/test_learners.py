import dataclasses
import itertools

import numpy as np
import pytest
from oracles import bracketed_sample_complexity, per_trial_draws

from paritylab.bp import output_dimension_distribution, success_probability
from paritylab.config import BudgetExceeded
from paritylab.crypto import window_attacker
from paritylab.generators import learner_program_with_labels
from paritylab.gf2 import MAX_SUBSPACE_DIM, AffineSubspace, VectorSubspace, contains, parity
from paritylab.learners import (
    Learner,
    assert_state_size,
    estimate_sample_complexity,
    exhaustive_learner,
    exhaustive_success_curve,
    exhaustive_success_exact,
    gaussian_learner,
    prefix_pivot_learner,
    rank_success_probability,
    run_learner,
    simulate_success,
    wilson_interval,
)


def accepted_fraction(learner, state):
    """Fraction of the 2^{n+1} samples (a, b) that move the learner off
    `state`, by enumeration."""
    n = learner.n
    pairs = [(a, b) for a in range(1 << n) for b in (0, 1)]
    moved = sum(learner.step(state, a, b) != state for a, b in pairs)
    return moved / len(pairs)


class TestGaussian:
    def test_identity_samples_pin_key(self):
        for n in (2, 3, 4):
            L = gaussian_learner(n)
            for x in (0, (1 << n) - 1, 5 % (1 << n)):
                state = run_learner(L, x, [1 << i for i in range(n)])
                out = L.output(state)
                assert out.dim == 0 and out.offset == x

    def test_no_samples_full_space(self):
        L = gaussian_learner(3)
        assert L.output(L.initial_state) == AffineSubspace.full(3)

    def test_point_probability_three_eighths(self):
        # by explicit matrix count: 6 invertible 2x2 matrices of 16
        L = gaussian_learner(2)
        bp, _ = learner_program_with_labels(L, 2)
        dims = output_dimension_distribution(bp)
        assert dims[0] == pytest.approx(3 / 8, abs=1e-12)
        count = sum(
            VectorSubspace.from_rows(2, [a1, a2]).dim == 2
            for a1, a2 in itertools.product(range(4), repeat=2))
        assert count / 16 == 3 / 8

    def test_soundness_exhaustive(self):
        n, m = 2, 3
        L = gaussian_learner(n)
        for x in range(1 << n):
            for a_seq in itertools.product(range(1 << n), repeat=m):
                state = run_learner(L, x, list(a_seq))
                assert contains(L.output(state), x)

    def test_inconsistent_sample_discarded(self):
        # never arises on honest streams, but the step map must be total
        L = gaussian_learner(2)
        s1 = L.step(L.initial_state, 1, 0)
        s2 = L.step(s1, 1, 1)  # contradicts s1
        assert s2 == s1

    def test_rank_formula_n8(self):
        n, m, trials = 8, 12, 40_000
        L = gaussian_learner(n)
        hits = simulate_success(L, m, trials, np.random.default_rng(0))
        p = rank_success_probability(n, m)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= 3 * sigma


class TestPrefixPivot:
    def test_unit_samples_accepted_in_order(self):
        n = 4
        L = prefix_pivot_learner(n)
        x = 0b1010
        state = run_learner(L, x, [1, 2, 4, 8])
        out = L.output(state)
        assert out.dim == 0 and out.offset == x

    def test_out_of_order_pivot_discarded(self):
        n = 4
        L = prefix_pivot_learner(n)
        s1 = L.step(L.initial_state, 1, 0)   # accepts e1
        s2 = L.step(s1, 4, 1)  # leading coordinate 3, wanted 2
        assert s2 == s1

    def test_acceptance_probability_exactly_half(self):
        n = 4
        L = prefix_pivot_learner(n)
        x = 0b0110
        rng = np.random.default_rng(1)
        states = {L.initial_state}
        state = L.initial_state
        for _ in range(40):
            a = int(rng.integers(0, 1 << n))
            state = L.step(state, a, parity(a & x))
            states.add(state)
        for s in states:
            k = s & 0b111  # counter field
            if k < n:
                assert accepted_fraction(L, s) == 0.5

    def test_absorption_time_matches_chain(self):
        """Expected samples to full rank = sum over k of 1/p_accept = 2n,
        with p_accept enumerated exactly; measured mean within 3 sigma."""
        n, runs = 4, 10_000
        L = prefix_pivot_learner(n)
        rng = np.random.default_rng(2)
        expected = 2.0 * n
        per_run_var = n * 2.0  # each stage is geometric(1/2): variance 2
        times = []
        for _ in range(runs):
            x = int(rng.integers(0, 1 << n))
            state = L.initial_state
            t = 0
            while (state & 0b111) < n:
                a = int(rng.integers(0, 1 << n))
                state = L.step(state, a, parity(a & x))
                t += 1
            times.append(t)
        mean = float(np.mean(times))
        sigma = (per_run_var / runs) ** 0.5
        assert abs(mean - expected) <= 3 * sigma

    def test_memory_budget(self):
        for n in (3, 4, 6, 8):
            L = prefix_pivot_learner(n)
            assert L.memory_bits <= (n + 1) ** 2 // 4 + n.bit_length() + 1
            rng = np.random.default_rng(3)
            x = int(rng.integers(0, 1 << n))
            run_learner(L, x, [int(a) for a in rng.integers(0, 1 << n, 50)])


class TestExhaustive:
    def test_correct_candidate_commits(self):
        n, cap = 3, 4
        L = exhaustive_learner(n, cap)
        x = 0
        state = run_learner(L, x, [0] * cap)  # a=0 always consistent
        out = L.output(state)
        assert out.dim == 0 and out.offset == x

    def test_wrong_candidate_survival_half(self):
        # Pr_a[a.(cand ^ x) = 0] is exactly 1/2 for cand != x
        n = 3
        for diff in range(1, 1 << n):
            stays = sum(parity(a & diff) == 0 for a in range(1 << n))
            assert stays == (1 << n) // 2

    def test_chain_exact_vs_simulation(self):
        trials = 20_000
        # n=1 has candidate distances 0 and 1 only; n=3 at the default cap
        # T=3n and m=23, its exact 0.9-quantile (0.908), walks distances up
        # to 7 with counter resets along the way
        for n, cap, ms in ((1, 3, (3, 6, 10)), (3, 9, (23,))):
            L = exhaustive_learner(n, cap)
            for m in ms:
                exact = exhaustive_success_exact(n, cap, m)
                hits = simulate_success(L, m, trials, np.random.default_rng(m))
                sigma = max((exact * (1 - exact) / trials) ** 0.5, 1e-9)
                assert abs(hits / trials - exact) <= 3.5 * sigma, (n, m)

    def test_curve_is_every_prefix(self):
        # values of the per-m chain DP before it became one curve pass
        curve = exhaustive_success_curve(3, 9, 23)
        assert len(curve) == 24 and curve[0] == 0.0
        assert curve[23] == 0.908355712890625
        assert exhaustive_success_curve(8, 24, 483)[483] == 0.9002714555768596
        assert all(p <= q for p, q in zip(curve, curve[1:]))
        assert [exhaustive_success_exact(3, 9, m) for m in range(24)] == curve

    @pytest.mark.parametrize("n, confirmations", [(2, 0), (3, -1)])
    def test_curve_refuses_no_confirmations(self, n, confirmations):
        """Unchecked, a zero cap gave "probabilities" above 1 ([0.25,
        0.625, 1.4375, ...] at n = 2) and a negative one an IndexError."""
        with pytest.raises(ValueError, match="at least one confirmation"):
            exhaustive_success_curve(n, confirmations, 4)
        with pytest.raises(ValueError, match="at least one confirmation"):
            exhaustive_success_exact(n, confirmations, 2)

    def test_curve_refuses_negative_m(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            exhaustive_success_curve(3, 9, -1)
        with pytest.raises(ValueError, match="m must be nonnegative"):
            exhaustive_success_exact(3, 9, -1)

    def test_one_confirmation_curve_is_a_probability(self):
        curve = exhaustive_success_curve(2, 1, 6)
        assert curve[:3] == [0.0, 0.25, 0.375] and all(0.0 <= p <= 1.0 for p in curve)

    def test_default_cap(self):
        L = exhaustive_learner(5)
        assert L.memory_bits == 5 + 4  # counter cap 15 fits in 4 bits

    def test_counter_width(self):
        """The counter of 0..T takes T.bit_length() bits; float64's
        log2(T + 1) gave one bit short from T = 2^49 on.  The batch, whose
        bit lengths are exact below 2^53, is set exactly while the state
        fits 53 bits."""
        caps = [*range(1, 4097), *(2**k + d for k in range(1, 63) for d in (-1, 0, 1))]
        for n, cap in itertools.product((1, 2, 3), caps):
            L = exhaustive_learner(n, cap)
            assert L.memory_bits == n + max(1, cap.bit_length()), cap
            assert (L.batch is None) == (L.memory_bits > 53), (n, cap)

    def test_commits_at_a_large_cap(self):
        """A consistent step from count T - 1 commits: with a 49-bit
        counter, the count 2^49 spilled into the candidate."""
        n, cap, cand = 3, 1 << 49, 5
        L = exhaustive_learner(n, cap)
        state = L.step((cand << (L.memory_bits - n)) | (cap - 1), 0, 0)  # a = 0 fits every key
        assert_state_size(L, state)
        assert L.output(state) == AffineSubspace.point(n, cand)


class TestHarness:
    def test_state_size_hard_assert(self):
        tiny = Learner("tiny", 2, 1, 0,
                       step=lambda s, a, b: 7,
                       output=lambda s: AffineSubspace.full(2))
        with pytest.raises(AssertionError):
            run_learner(tiny, 0, [0])
        assert_state_size(gaussian_learner(2), 0)

    def test_learner_program_m0(self):
        for L in (gaussian_learner(2), exhaustive_learner(2, 3)):
            bp, _ = learner_program_with_labels(L, 0)
            assert bp.layer_sizes == (1,)
            assert bp.leaf_labels[(0, 0)] == AffineSubspace.full(2)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", "4")
        with pytest.raises(BudgetExceeded):
            learner_program_with_labels(gaussian_learner(2), 1)

    def test_mc_matches_bp_dp(self):
        n, m, trials = 2, 3, 50_000
        L = gaussian_learner(n)
        bp, _ = learner_program_with_labels(L, m)
        exact = output_dimension_distribution(bp).get(0, 0.0)
        hits = simulate_success(L, m, trials, np.random.default_rng(5))
        sigma = (exact * (1 - exact) / trials) ** 0.5
        assert abs(hits / trials - exact) <= 3 * sigma
        assert success_probability(bp) == 1.0  # output always contains x


def scalar_run(learner, xs, a):
    """Final states and per-step state bit lengths of run_learner's loop."""
    states, bits = [], []
    for x, row in zip(xs.tolist(), a.tolist()):
        state, lengths = learner.initial_state, []
        for v in row:
            state = learner.step(state, v, parity(v & x))
            lengths.append(state.bit_length())
        assert state == run_learner(learner, x, row)
        states.append(state)
        bits.append(lengths)
    return states, np.array(bits, dtype=np.int64).reshape(a.shape)


def point_of(out):
    return out.offset if not out.is_empty and out.dim == 0 else -1


FACTORIES = (gaussian_learner, prefix_pivot_learner, exhaustive_learner)


class TestBatch:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_matches_scalar_steps(self, factory):
        """Final states, every step's packed bit lengths and the output
        points equal the scalar step map's on shared streams, from n = 0
        (no rows) to MAX_SUBSPACE_DIM (pivot bits up to 2^23) and from
        one trial up."""
        rng = np.random.default_rng(21)
        # exhaustive_learner(0) refuses its default cap of 0
        learners = [exhaustive_learner(0, 1) if (factory, n) == (exhaustive_learner, 0) else factory(n)
                    for n in (*range(9), 16, MAX_SUBSPACE_DIM)]
        if factory is exhaustive_learner:
            learners.append(exhaustive_learner(3, 1 << 49))  # 53 bits, the batch's bound
        for L in learners:
            n = L.n
            for trials, m in itertools.product((1, 40), sorted({0, 1, n, 3 * n})):
                xs = rng.integers(0, 1 << n, trials)
                a = rng.integers(0, 1 << n, (trials, m))
                steps = []
                points, packed = L.batch(xs, a, lambda bits: steps.append(bits.copy()))
                states, bits = scalar_run(L, xs, a)
                assert packed() == states, (n, m)
                assert np.array_equal(np.array(steps, dtype=np.int64).T.reshape(a.shape), bits)
                assert points.tolist() == [point_of(L.output(s)) for s in states]

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_batch_and_loop_hit_counts(self, factory):
        for n, m, trials in ((3, 7, 300), (5, 12, 100)):
            L = factory(n)
            loop = dataclasses.replace(L, batch=None)
            assert (simulate_success(L, m, trials, np.random.default_rng(n))
                    == simulate_success(loop, m, trials, np.random.default_rng(n)))

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_shrunk_budget_raises_on_both_paths(self, factory):
        """With the budget at the run's true peak both paths finish; one
        bit less and both raise assert_state_size's AssertionError."""
        n, m, trials = 4, 12, 50
        L = factory(n)
        xs, a = per_trial_draws(np.random.default_rng(4), 1 << n, m, trials)
        peak = int(scalar_run(L, xs, a)[1].max())
        for budget, fits in ((peak, True), (peak - 1, False)):
            small = dataclasses.replace(L, memory_bits=budget)
            for learner in (small, dataclasses.replace(small, batch=None)):
                if fits:
                    simulate_success(learner, m, trials, np.random.default_rng(4))
                else:
                    with pytest.raises(AssertionError, match=f"declared {budget}"):
                        simulate_success(learner, m, trials, np.random.default_rng(4))

    @pytest.mark.parametrize("m", [0, 7, 40])
    def test_large_runs_drawn_in_pieces(self, monkeypatch, m):
        """More trials x samples than one batch holds (and m above the
        batch size): same draws, same hits as one trial at a time."""
        import paritylab.learners as learners
        monkeypatch.setattr(learners, "BATCH_CELLS", 20)
        L = exhaustive_learner(2, 2)
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(31):
            x = int(rng.integers(0, 4))
            state = run_learner(L, x, [int(a) for a in rng.integers(0, 4, m)])
            hits += point_of(L.output(state)) == x
        assert simulate_success(L, m, 31, np.random.default_rng(9)) == hits

    @pytest.mark.parametrize("m, trials", [(3, 0), (3, -2), (-1, 5)])
    def test_run_size_rejected(self, m, trials):
        with pytest.raises(ValueError):
            simulate_success(gaussian_learner(3), m, trials, np.random.default_rng(0))

    def test_dimension_cap(self):
        # batch states are int64 arrays and bit lengths go through float64
        with pytest.raises(ValueError, match="exceeds"):
            simulate_success(gaussian_learner(25), 1, 1, np.random.default_rng(0))

    def test_estimator_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimate_sample_complexity(gaussian_learner(3), 0.9, rng, trials=0)
        with pytest.raises(ValueError):
            estimate_sample_complexity(gaussian_learner(3), 0.9, rng, m_cap=0)


def small_window_attacker(n):
    """A learner without batch: the window of the last three samples."""
    return window_attacker(n, 3 * (n + 1))


class TestBlockDraw:
    """simulate_success draws each batch as one (trials, m + 1) block;
    the per-trial draws of tests/oracles.py are the reference."""

    @pytest.mark.parametrize("n", [1, 3, 8, 16, MAX_SUBSPACE_DIM])
    def test_block_equals_per_trial_draws(self, n):
        """The keys and samples a batch receives, and the generator's state
        after the run, equal the reference's."""
        for m in (0, 1, 12, 40):
            for count in (1, 7, 300):
                seen = []

                def record(xs, a, check):
                    seen.append((xs.copy(), a.copy()))
                    return np.full(len(xs), -1), None

                recorder = Learner("record", n, 0, 0, None, None, record)
                rng, ref = np.random.default_rng(count), np.random.default_rng(count)
                assert simulate_success(recorder, m, count, rng) == 0
                xs, a = per_trial_draws(ref, 1 << n, m, count)
                assert len(seen) == 1
                assert np.array_equal(seen[0][0], xs), (n, m, count)
                assert np.array_equal(seen[0][1], a), (n, m, count)
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("cells", [20, None])
    @pytest.mark.parametrize("factory", FACTORIES + (small_window_attacker,))
    def test_hits_equal_per_trial_reference(self, monkeypatch, factory, cells):
        """Hits and the generator's end state equal a run_learner loop over
        the reference's draws, with and without batch, in one batch and
        split into batches of BATCH_CELLS = 20 cells."""
        import paritylab.learners as learners
        if cells is not None:
            monkeypatch.setattr(learners, "BATCH_CELLS", cells)
        for n, m, trials in ((1, 0, 9), (3, 7, 60), (5, 12, 40)):
            L = factory(n)
            ref = np.random.default_rng(n + m)
            xs, a = per_trial_draws(ref, 1 << n, m, trials)
            hits = sum(point_of(L.output(run_learner(L, x, row))) == x
                       for x, row in zip(xs.tolist(), a.tolist()))
            for learner in (L, dataclasses.replace(L, batch=None)):
                rng = np.random.default_rng(n + m)
                assert simulate_success(learner, m, trials, rng) == hits, (n, m)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestSampleComplexity:
    def test_gaussian_n8(self):
        L = gaussian_learner(8)
        point = estimate_sample_complexity(L, 0.9, np.random.default_rng(6), trials=1200)
        assert 11 <= point.m <= 13
        assert not point.capped

    def test_cap_reported(self):
        L = exhaustive_learner(4)
        point = estimate_sample_complexity(L, 0.99, np.random.default_rng(7),
                                           trials=50, m_cap=4)
        assert point.capped and point.m == 4

    def test_monotone_in_memory(self):
        rng = np.random.default_rng(8)
        ms = []
        for L in (gaussian_learner(4), prefix_pivot_learner(4), exhaustive_learner(4)):
            ms.append(estimate_sample_complexity(L, 0.8, rng, trials=400).m)
        assert ms[0] <= ms[1] <= ms[2]

    @pytest.mark.parametrize("factory", [gaussian_learner, prefix_pivot_learner,
                                         exhaustive_learner])
    def test_matches_bracketed_oracle(self, factory):
        """The same TradeoffPoint and generator end state as the reference
        that carries each probe's figures by hand: n 1-4, three targets,
        m_cap 1, 3, 7 and 64 (capped answers among them), two trial
        counts and three seeds, 288 cases per learner."""
        capped = set()
        for n, target, m_cap, trials, seed in itertools.product(
                range(1, 5), (0.5, 0.9, 0.99), (1, 3, 7, 64), (20, 90), range(3)):
            learner = factory(n)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            point = estimate_sample_complexity(learner, target, rng, trials, m_cap, seed)
            want = bracketed_sample_complexity(learner, target, ref, trials, m_cap, seed)
            assert point == want, (n, target, m_cap, trials, seed)
            assert rng.bit_generator.state == ref.bit_generator.state
            capped.add(point.capped)
        assert capped == {False, True}

    def test_csv_row(self):
        from paritylab.learners import TradeoffPoint
        pt = TradeoffPoint("gaussian", 4, 20, 7, 0.9125, 0.01, 3)
        assert TradeoffPoint.CSV_HEADER.startswith("learner,")
        assert pt.csv_row() == "gaussian,4,20,7,0.912500,0.010000,3"


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.8 < lo < 0.9 < hi < 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo_all, hi_all = wilson_interval(100, 100)
        assert hi_all <= 1.0 and lo_all > 0.9

    def test_holds_the_proportion_inside_the_unit_interval(self):
        """Exact ends at 0 and 1 successes: the rounded closed form gave
        hi = 1 - 2^-53 at 6 of 6 and lo < 0 at 0 of 5."""
        assert wilson_interval(6, 6)[1] == 1.0 and wilson_interval(0, 5)[0] == 0.0
        for trials in range(1, 300):
            for hits in range(trials + 1):
                lo, hi = wilson_interval(hits, trials)
                assert 0.0 <= lo <= hits / trials <= hi <= 1.0, (hits, trials)
