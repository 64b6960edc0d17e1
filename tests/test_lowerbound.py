import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import scaled_power_reach_bound

from paritylab.bp import BranchingProgram, forward_tables, validate_affine
from paritylab.generators import (
    greedy_recorder_program,
    learner_program_with_labels,
    random_program,
    selective_recorder_program,
)
from paritylab.gf2 import AffineSubspace
from paritylab.learners import gaussian_learner
from paritylab.lowerbound import (
    reach_probability_bound,
    tradeoff_exponent,
    trim_to_min_dimension,
    verify_reach_bound,
)
from paritylab.reduction import reduce_to_affine


class TestBoundFormula:
    def test_spec_values(self):
        assert reach_probability_bound(4, 2, 3) == pytest.approx(0.5)
        assert reach_probability_bound(6, 3, 4) == pytest.approx(9 / 32)

    def test_beyond_float_range_is_inf(self):
        assert reach_probability_bound(200, 1_000_000, 0) == math.inf

    def test_overflowing_power_scaled_back_into_range(self):
        # m^t alone exceeds the float range; 2^exponent brings it back
        n, m, k = 400, 10 ** 8, 150
        t = n - k
        exact = Fraction(m ** t) * Fraction(2) ** (t * (n - 2 * k) - t * (t - 1) // 2)
        assert reach_probability_bound(n, m, k) == float(exact)

    def test_matches_scaled_power_oracle(self):
        """Equal, bit for bit, to building m^t and scaling it: every k up
        to n = 120, which reaches past both ends of the float range and
        into the subnormals."""
        seen = set()
        for m in (1, 2, 3, 7, 10 ** 6):
            for n in range(1, 121):
                for k in range(n):
                    want = scaled_power_reach_bound(n, m, k)
                    assert reach_probability_bound(n, m, k) == want, (n, m, k)
                    seen.add("inf" if want == math.inf else "zero" if want == 0.0
                             else "subnormal" if want < sys.float_info.min else "normal")
        assert seen == {"inf", "zero", "subnormal", "normal"}

    @pytest.mark.parametrize("k,want", [(0, math.inf), (15000, 0.0)])
    def test_out_of_range_without_the_power(self, k, want):
        """Far past the float range the answer comes without building
        2^30000 or shifting it by the exponent (57 and 14 MiB otherwise)."""
        tracemalloc.start()
        try:
            got = reach_probability_bound(30000, 2, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < 1 << 20

    def test_power_of_two_matches_scaled_power_oracle(self):
        """m = 2^j goes through ldexp alone, equal, bit for bit, to
        building m^t and scaling it: every k up to n = 150 for seven
        powers of two, through inf, 0.0, subnormal and normal results."""
        seen = set()
        for m in (1, 2, 4, 8, 1 << 10, 1 << 20, 1 << 64):
            for n in range(1, 151):
                for k in range(n):
                    want = scaled_power_reach_bound(n, m, k)
                    assert reach_probability_bound(n, m, k) == want, (n, m, k)
                    seen.add("inf" if want == math.inf else "zero" if want == 0.0
                             else "subnormal" if want < sys.float_info.min else "normal")
        assert seen == {"inf", "zero", "subnormal", "normal"}

    def test_power_of_two_in_range_without_the_power(self):
        """With m = 2 and n = 3k - 3 the bound is exactly 1.0: it comes
        without building 2^t (1.5 MiB at n = 3 * 10^6 otherwise)."""
        n = 3 * 10 ** 6
        tracemalloc.start()
        try:
            got = reach_probability_bound(n, 2, n // 3 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 1.0 and peak < 64 << 10

    def test_power_cap(self):
        """m not a power of two: m^t up to 2^23 bits is built, past that
        the bound is refused before it (31 MiB and 26 s at n = 3 * 10^6),
        while the answer is inside the float range."""
        m = 1_482_910
        assert 0.0 < reach_probability_bound(3 * 10 ** 5, m, 100014) < math.inf
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\^23-bit cap"):
                reach_probability_bound(3 * 10 ** 6, m, 1000014)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            reach_probability_bound(4, 2, 4)
        with pytest.raises(ValueError):
            reach_probability_bound(4, 0, 2)
        with pytest.raises(ValueError):
            reach_probability_bound(4, 2, -1)

    def test_matches_direct_product(self):
        for n, m, k in [(5, 2, 3), (6, 4, 2), (3, 1, 0)]:
            direct = float(m ** (n - k)) * 2.0 ** sum(n - 2 * k - j for j in range(n - k))
            assert reach_probability_bound(n, m, k) == pytest.approx(direct)


def _empty_labelled_program():
    """n = 2, m = 1, layer sizes (1, 3): the start row sends key id 0 to
    vertex 0, id 1 (a = 0, b = 1, which no key satisfies) to the
    Empty-labelled vertex 1 and every other id to vertex 2."""
    n = 2
    full = AffineSubspace.full(n)
    row = (0, 1) + (2,) * ((2 << n) - 2)
    bp = BranchingProgram(n, 1, (1, 3), ((row,),),
                          {(1, 0): full, (1, 1): AffineSubspace.empty(n), (1, 2): full})
    labels = ((full,), (full, AffineSubspace.empty(n), full))
    return bp, labels


def _reduction(seed: int):
    bp = random_program(3, 2, 3, np.random.default_rng(seed))
    red = reduce_to_affine(bp, 3.0)
    return red.program, red.labels


class TestVerifyReachBound:
    def test_selective_recorder(self):
        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        k = n - 1
        affine, rows = verify_reach_bound(bp, labels, k)
        assert affine
        # the dim-k vertices are the ones that recorded the constraint
        assert [vertex for vertex, _ in rows] == [
            (t, v) for t in range(m + 1) for v in range(bp.layer_sizes[t])
            if labels[t][v].dim == k]
        for (t, _), row in rows:
            assert row.ok
            # recording needs the trigger at some step: probability
            # 1 - (1 - 2^{-n})^t of having seen it
            expected = 0.0 if t == 0 else 1 - (1 - 2.0 ** (-n)) ** t
            assert row.measured <= expected + 1e-9

    def test_trim_cuts_below_k(self):
        n, m, k = 3, 3, 2
        bp, labels = greedy_recorder_program(n, m, 0)  # goes below dim 2
        target = None
        for t in range(m + 1):
            for v in range(bp.layer_sizes[t]):
                if labels[t][v].dim == k:
                    target = (t, v)
                    break
            if target:
                break
        affine, rows = verify_reach_bound(bp, labels, k)
        assert affine
        assert target in [vertex for vertex, _ in rows]
        assert all(row.ok for _, row in rows)

    def test_one_forced_step_near_start(self):
        n = 3
        bp, labels = greedy_recorder_program(n, 2, n - 1)
        affine, rows = verify_reach_bound(bp, labels, n - 1)
        assert affine
        found = 0
        for (t, _), row in rows:
            if t == 1:
                assert row.ok
                found += 1
        assert found > 0

    def test_soundness_fault_blocks_bound_check(self):
        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        broken_layers = [list(layer) for layer in labels]
        for v in range(bp.layer_sizes[1]):
            if labels[1][v].dim == n - 1:
                broken_layers[1][v] = AffineSubspace.point(n, 0)
                break
        broken = tuple(tuple(layer) for layer in broken_layers)
        affine, rows = verify_reach_bound(bp, broken, 0)
        assert not affine and rows == []

    def test_last_layer_row_has_room(self):
        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        _, rows = verify_reach_bound(bp, labels, n - 1)
        last = [row for (t, _), row in rows if t == m]
        assert last
        assert last[0].ok and last[0].margin >= 0
        assert last[0].margin == last[0].bound - last[0].measured

    def test_rows_bind_below_one(self):
        """A cap of 1 (n = 3, m = 2, k = 2) says nothing about a
        probability, so its rows are vacuous; the cap 0.5 at n = 4, m = 2,
        k = 3 binds."""
        for n, bound, binding in ((3, 1.0, False), (4, 0.5, True)):
            bp, labels = selective_recorder_program(n, 2, 1)
            affine, rows = verify_reach_bound(bp, labels, n - 1)
            assert affine and rows
            assert reach_probability_bound(n, 2, n - 1) == bound
            assert all(row.bound == bound and row.binding is binding and row.ok
                       for _, row in rows)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 2])
    def test_reports_name_vertices_of_the_program_passed_in(self, seed, k):
        """Each report's exact mass is the trimmed program's forward mass
        at the vertex it names, found by counting the retained vertices
        before it in its layer."""
        bp, labels = _reduction(seed)
        affine, rows = verify_reach_bound(bp, labels, k)
        assert affine
        trimmed, _, _ = trim_to_min_dimension(bp, labels, k)
        tables = forward_tables(trimmed)
        expected = []
        for t in range(bp.m + 1):
            i = 0
            for v in range(bp.layer_sizes[t]):
                lab = labels[t][v]
                if lab.is_empty or lab.dim < k:
                    continue
                if lab.dim == k:
                    expected.append(((t, v), float(tables[t][i].sum())))
                i += 1
        assert [(vertex, row.measured) for vertex, row in rows] == expected

    def test_vertex_past_the_trimmed_layer(self):
        """Layer 2 of the seed-3 reduction keeps 4 vertices at k = 2, so its
        vertex 4 exists only under its original index."""
        bp, labels = _reduction(3)
        k = labels[2][4].dim
        trimmed, _, _ = trim_to_min_dimension(bp, labels, k)
        assert trimmed.layer_sizes[2] <= 4
        affine, rows = verify_reach_bound(bp, labels, k)
        assert affine
        assert (2, 4) in [vertex for vertex, _ in rows]

    def test_empty_label(self):
        bp, labels = _empty_labelled_program()
        assert validate_affine(bp, labels).ok
        assert verify_reach_bound(bp, labels, 1) == (True, [])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gaussian_min_dimension(self, n):
        """The reach-bound suite checks the two-sample Gaussian program
        at k = max(n - 2, 0), its minimum label dimension."""
        _, labels = learner_program_with_labels(gaussian_learner(n), 2)
        assert min(lab.dim for layer in labels for lab in layer) == max(n - 2, 0)


class TestTradeoffExponent:
    def test_boundary_condition(self):
        rep = tradeoff_exponent(1 / 20, 0.01, 50)
        assert not rep["condition_holds"]
        assert rep["alpha_max"] == pytest.approx(0.0)

    def test_good_regime(self):
        rep = tradeoff_exponent(0.04, 0.01, 100)
        assert rep["condition_holds"]
        assert rep["alpha_max"] == pytest.approx((5 / 3) * 0.01)
        assert rep["exponent_negative"]
        assert rep["product_log2"] < 0

    def test_small_n_vacuous(self):
        rep = tradeoff_exponent(0.04, 0.01, 5)
        assert not rep["exponent_negative"]
        assert rep["vacuous"]

    @pytest.mark.parametrize("c,alpha", [(0.5, -1.0), (-0.01, 0.01), (-1e-300, 0.0),
                                         (0.0, -math.inf)])
    def test_negative_exponents_rejected(self, c, alpha):
        """A width 2^(c n^2) or a length 2^(alpha n) below 1 is no program:
        (0.5, -1) at n = 5 used to report r = -7.5 and a bound of 0.078
        that was not vacuous."""
        with pytest.raises(ValueError, match="must be at least 0"):
            tradeoff_exponent(c, alpha, 5)

    def test_zero_exponents_accepted(self):
        rep = tradeoff_exponent(0.0, 0.0, 5)
        assert (rep["log2_width"], rep["log2_length"]) == (0.0, 0.0)

    def test_chain_identity(self):
        # the closed form equals the explicit count x reach product
        for c, alpha, n in [(0.04, 0.01, 100), (0.02, 0.02, 60), (0.045, 0.005, 200)]:
            rep = tradeoff_exponent(c, alpha, n)
            assert rep["product_log2"] == pytest.approx(rep["closed_form_log2"], rel=1e-12)


class TestTrim:
    def test_gaussian_program_trim(self):
        n, m, k = 3, 2, 2
        bp, labels = learner_program_with_labels(gaussian_learner(n), m)
        trimmed, tlabels, keep = trim_to_min_dimension(bp, labels, k)
        assert validate_affine(trimmed, tlabels).ok
        dims = [tlabels[t][v].dim
                for t in range(m + 1) for v in range(trimmed.layer_sizes[t])]
        assert min(dims) >= k
        # dim-k vertices are leaves now
        for t in range(m):
            for v in range(trimmed.layer_sizes[t]):
                if tlabels[t][v].dim == k:
                    assert trimmed.transitions[t][v] is None
        # absorbed mass is conserved
        tables = forward_tables(trimmed)
        total = sum(float(tables[t][v].sum()) for t, v in trimmed.iter_leaves())
        assert total == pytest.approx(1.0)
        # keep names each retained vertex's original index
        for t in range(m + 1):
            assert [tlabels[t][i] for i in range(trimmed.layer_sizes[t])] == [
                labels[t][v] for v in keep[t]]

    @pytest.mark.parametrize("k", [0, 1])
    def test_empty_label_dropped(self, k):
        """Validation accepts an Empty label; trimming drops its vertex as
        lying below every k and reroutes the edge into it."""
        bp, labels = _empty_labelled_program()
        trimmed, tlabels, keep = trim_to_min_dimension(bp, labels, k)
        assert keep == [[0], [0, 2]]
        assert trimmed.layer_sizes == (1, 2)
        assert trimmed.transitions[0][0] == (0, 0) + (1,) * 6
        assert validate_affine(trimmed, tlabels).ok
        tables = forward_tables(trimmed)
        assert [float(tables[1][i].sum()) for i in range(2)] == [0.25, 0.75]
