import math
from fractions import Fraction

import numpy as np
import pytest

from paritylab.bp import forward_tables, validate_affine
from paritylab.generators import (
    greedy_recorder_program,
    learner_program_with_labels,
    selective_recorder_program,
)
from paritylab.learners import gaussian_learner
from paritylab.lowerbound import (
    reach_probability_bound,
    tradeoff_exponent,
    trim_to_min_dimension,
    verify_reach_bound,
)


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


class TestVerifyReachBound:
    def test_selective_recorder(self):
        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        k = n - 1
        # the dim-k vertices are the ones that recorded the constraint
        for t in range(m + 1):
            for v in range(bp.layer_sizes[t]):
                if labels.get(t, v).dim != k:
                    continue
                rep = verify_reach_bound(bp, labels, (t, v))
                assert rep.precondition_ok and rep.affine_ok
                assert rep.ok
                # recording needs the trigger at some step: probability
                # 1 - (1 - 2^{-n})^t of having seen it
                expected = 0.0 if t == 0 else 1 - (1 - 2.0 ** (-n)) ** t
                assert rep.exact <= expected + 1e-9

    def test_precondition_violation_reported_and_trim_fixes(self):
        n, m, k = 3, 3, 2
        bp, labels = greedy_recorder_program(n, m, 0)  # goes below dim 2
        target = None
        for t in range(m + 1):
            for v in range(bp.layer_sizes[t]):
                if labels.get(t, v).dim == k:
                    target = (t, v)
                    break
            if target:
                break
        rep = verify_reach_bound(bp, labels, target)
        assert not rep.precondition_ok
        rep2 = verify_reach_bound(bp, labels, target, trim=True)
        assert rep2.precondition_ok and rep2.ok

    def test_one_forced_step_near_start(self):
        n = 3
        bp, labels = greedy_recorder_program(n, 2, n - 1)
        found = 0
        for v in range(bp.layer_sizes[1]):
            if labels.get(1, v).dim == n - 1:
                rep = verify_reach_bound(bp, labels, (1, v))
                assert rep.ok
                found += 1
        assert found > 0

    def test_soundness_fault_blocks_bound_check(self):
        from paritylab.bp import AffineLabels
        from paritylab.gf2 import AffineSubspace

        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        broken_layers = [list(layer) for layer in labels.labels]
        for v in range(bp.layer_sizes[1]):
            if labels.get(1, v).dim == n - 1:
                broken_layers[1][v] = AffineSubspace.point(n, 0)
                target = (1, v)
                break
        broken = AffineLabels(tuple(tuple(layer) for layer in broken_layers))
        rep = verify_reach_bound(bp, broken, target)
        assert not rep.affine_ok and not rep.ok

    def test_report_dict(self):
        n, m = 3, 2
        bp, labels = selective_recorder_program(n, m, trigger=1)
        for v in range(bp.layer_sizes[m]):
            if labels.get(m, v).dim == n - 1:
                doc = verify_reach_bound(bp, labels, (m, v)).to_dict()
                assert doc["ok"] and doc["margin"] >= 0
                break


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

    def test_chain_identity(self):
        # the closed form equals the explicit count x reach product
        for c, alpha, n in [(0.04, 0.01, 100), (0.02, 0.02, 60), (0.045, 0.005, 200)]:
            rep = tradeoff_exponent(c, alpha, n)
            assert rep["product_log2"] == pytest.approx(rep["closed_form_log2"], rel=1e-12)

    def test_override_exponents(self):
        rep = tradeoff_exponent(0.04, 0.01, 100, m_exp=0.02, d_exp=0.03)
        assert rep["log2_length"] == pytest.approx(2.0)
        assert rep["log2_width"] == pytest.approx(300.0)


class TestTrim:
    def test_gaussian_program_trim(self):
        n, m, k = 3, 2, 2
        bp, labels = learner_program_with_labels(gaussian_learner(n), m)
        trimmed, tlabels = trim_to_min_dimension(bp, labels, k)
        assert validate_affine(trimmed, tlabels).ok
        dims = [tlabels.get(t, v).dim
                for t in range(m + 1) for v in range(trimmed.layer_sizes[t])]
        assert min(dims) >= k
        # dim-k vertices are leaves now
        for t in range(m):
            for v in range(trimmed.layer_sizes[t]):
                if tlabels.get(t, v).dim == k:
                    assert trimmed.transitions[t][v] is None
        # absorbed mass is conserved
        tables = forward_tables(trimmed)
        total = sum(float(tables[t][v].sum()) for t, v in trimmed.iter_leaves())
        assert total == pytest.approx(1.0)
