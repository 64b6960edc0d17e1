import json
import re

import numpy as np
import pytest
from dataclasses import replace

from oracles import (
    assert_same_reduction,
    object_reduce,
    per_edge_check_gamma,
    per_vertex_ideal_joint,
    per_vertex_layer_accuracy,
)

from paritylab.bp import (
    BranchingProgram,
    forward_tables,
    layer_accuracy,
    to_json_dict,
    validate_affine,
)
from paritylab.config import BudgetExceeded
from paritylab.distributions import uniform_row, uniform_rows
from paritylab.generators import random_program
from paritylab.gf2 import (
    AffineSubspace,
    intersect_hyperplane,
    mask_keys,
    mask_subspace,
    point_mask,
)
from paritylab.reduction import _check_gamma, _ideal_joint, reduce_to_affine, verify_reduction


def record_first_sample_program(n):
    full = AffineSubspace.full(n)
    deg = 1 << (n + 1)
    labels = {}
    for idx in range(deg):
        a, b = idx >> 1, idx & 1
        labels[(1, idx)] = intersect_hyperplane(full, a, b) if a else full
    return BranchingProgram(n, 1, (1, deg), ((tuple(range(deg)),),), labels)


class TestParams:
    def test_range_enforced(self):
        """r outside [n/2, n] is rejected, by the reduction and by its
        re-verification at the reduction's own r."""
        bp = random_program(4, 3, 2, np.random.default_rng(0))
        for r in (0.5, 5.0):
            with pytest.raises(ValueError, match=r"^r must lie in \[n/2, n\] = \[2.0, 4\]"):
                reduce_to_affine(bp, r)
        red = reduce_to_affine(bp, 3.0)
        assert red.r == 3.0 and red.report.r == 3.0
        for r in (0.5, 5.0):
            with pytest.raises(ValueError):
                verify_reduction(bp, replace(red, r=r))

    def test_epsilon(self):
        bp = random_program(4, 3, 2, np.random.default_rng(0))
        assert reduce_to_affine(bp, 4.0).report.epsilon == pytest.approx(12 * 2.0 ** (-2))

    def test_n_zero_rejected(self):
        """group_count_bound is 0 at n = 0, so a reduction there could
        never pass its count check: it is refused up front."""
        bp = BranchingProgram(0, 1, (1, 1), (((0, 0),),), {(1, 0): AffineSubspace.full(0)})
        with pytest.raises(ValueError, match=r"^reduction needs n >= 1, got n=0$"):
            reduce_to_affine(bp, 0.0)


class TestSmallTraces:
    def test_length_zero(self):
        n = 2
        bp = BranchingProgram(n, 0, (1,), (), {(0, 0): AffineSubspace.full(n)})
        red = reduce_to_affine(bp, 2.0)
        assert red.program.layer_sizes == (1,)
        assert red.labels[0][0] == AffineSubspace.full(n)
        assert red.report.all_ok
        assert all(c.measured == 0.0 for c in red.report.accuracy_checks)
        # with no layers the count cap is inf, so no count row binds
        assert all(c.bound == float("inf") and not c.binding
                   for c in red.report.dim_count_checks)

    def test_recorded_subspaces_become_labels(self):
        n = 2
        bp = record_first_sample_program(n)
        red = reduce_to_affine(bp, 2.0)
        rep = red.report
        assert rep.all_ok
        assert all(c.measured == pytest.approx(0.0, abs=1e-12)
                   for c in rep.accuracy_checks)
        # each consistent (a, b) edge lands on a vertex labeled by exactly
        # the recorded constraint
        row = red.program.transitions[0][0]
        for a_bits in range(1 << n):
            for b in (0, 1):
                w = intersect_hyperplane(AffineSubspace.full(n), a_bits, b)
                if w.is_empty:
                    continue
                target = row[(a_bits << 1) | b]
                assert red.labels[1][target] == w
        assert rep.output_dim_distribution == {1: pytest.approx(0.75),
                                               2: pytest.approx(0.25)}

    def test_vacuous_epsilon_at_minimum_r(self):
        n = 2
        bp = record_first_sample_program(n)
        red = reduce_to_affine(bp, n / 2)
        rep = red.report
        assert rep.epsilon >= 2.0
        assert all(not c.binding for c in rep.accuracy_checks)
        assert rep.all_ok


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_verification(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            width = int(rng.integers(2, 9))
            bp = random_program(n, m, width, rng)
            for r in (float(n), n / 2 + 1.0):
                red = reduce_to_affine(bp, r)
                rep = red.report
                assert rep.all_ok, rep.to_dict()
                assert validate_affine(red.program, red.labels).ok
                # re-verification from scratch reproduces the report
                again = verify_reduction(bp, red)
                assert again.to_dict() == rep.to_dict()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        bp = random_program(3, 2, 5, rng)
        red1 = reduce_to_affine(bp, 2.5)
        red2 = reduce_to_affine(bp, 2.5)
        assert to_json_dict(red1.program, red1.labels, red1.gamma) == \
            to_json_dict(red2.program, red2.labels, red2.gamma)

    def test_zero_mass_edges_take_the_assign_scan(self):
        """Edge subspaces outside a partition's support (zero idealized
        mass) fall back to SubspacePartition.assign in the reference loop,
        some onto a representative and some onto the catch-all vertex; the
        mask reduction routes every edge as the reference does, and as the
        reference does with sigma emptied, so that assign routes every edge."""
        bp = random_program(2, 2, 3, np.random.default_rng(4))
        red = reduce_to_affine(bp, 2.0)
        assert red.report.all_ok
        ref = object_reduce(bp, 2.0)
        reps = [rep for _, rep in ref.scanned]
        assert None in reps and any(rep is not None for rep in reps)
        assert_same_reduction(red, ref)
        all_scan = object_reduce(bp, 2.0, scan_all=True)
        assert len(all_scan.scanned) > len(ref.scanned)
        assert_same_reduction(red, all_scan)

    def test_width_expansion_bookkeeping(self):
        rng = np.random.default_rng(4)
        bp = random_program(3, 2, 4, rng)
        red = reduce_to_affine(bp, 3.0)
        for j in range(bp.m):
            assert red.program.layer_sizes[j + 1] == sum(
                c + 1 for c in red.group_counts[j])


def oracle_programs(n):
    """Random programs with random last-layer labels at n, drawn from
    one stream for n = 1-5, with the grouping strengths each runs at."""
    rng = np.random.default_rng(12)
    cases = [(random_program(k, 2 + i % 2, 3 + 2 * i, rng),
              sorted({k / 2, 0.75 * k, min(k / 2 + 1.0, k), float(k)}))
             for k in range(1, 6) for i in range(3)]
    return [(bp, rs) for bp, rs in cases if bp.n == n]


class TestMaskReductionOracle:
    """reduce_to_affine on point masks and key ids against the loop on
    AffineSubspace keys with the tuple partition: program, labels, gamma,
    ideal marginals (floats with ==) and group counts."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_programs(self, n):
        scans = 0
        for bp, rs in oracle_programs(n):
            for r in rs:
                ref = object_reduce(bp, r)
                assert_same_reduction(reduce_to_affine(bp, r), ref)
                scans += len(ref.scanned)
        assert scans > 0  # zero-mass edges take the representative scan

    def test_repeat_makes_no_memo_miss(self):
        """A second reduction of the same program gives the same document
        and report from the per-process label memos alone, at n = 3 and 4."""
        memos = (mask_keys, mask_subspace, point_mask, AffineSubspace.to_text, uniform_row)
        for n, m, width, seed, r in [(3, 3, 5, 4, 2.5), (4, 2, 4, 4, 3.0)]:
            bp = random_program(n, m, width, np.random.default_rng(seed))
            first = reduce_to_affine(bp, r)
            doc = to_json_dict(first.program, first.labels, first.gamma)
            misses = [memo.cache_info().misses for memo in memos]
            second = reduce_to_affine(bp, r)
            assert to_json_dict(second.program, second.labels, second.gamma) == doc
            assert second.report.to_dict() == first.report.to_dict()
            assert [memo.cache_info().misses for memo in memos] == misses


def assert_same_floats(got, want):
    assert got.shape == want.shape and (got == want).all()


class TestLabelLawOracles:
    """The layer-stacked ideal joint law and layer accuracy against the
    per-vertex loops, floats compared with ==."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reductions(self, n):
        for bp, rs in oracle_programs(n):
            for r in rs:
                red = reduce_to_affine(bp, r)
                tables = forward_tables(red.program)
                rows = [uniform_rows(layer) for layer in red.labels]
                assert (layer_accuracy(red.program, rows, tables)
                        == per_vertex_layer_accuracy(red.program, red.labels, tables))
                for t in range(bp.m + 1):
                    assert_same_floats(_ideal_joint(red.ideal_marginals[t], rows[t]),
                                       per_vertex_ideal_joint(red, t))

    def test_zero_and_negative_marginals(self):
        """A hand-built reduction whose marginals hold 0.0, -0.0, a
        negative value and non-dyadic masses: those rows stay zero."""
        rng = np.random.default_rng(9)
        red = reduce_to_affine(random_program(3, 2, 5, rng), 3.0)
        marginals = []
        for layer in red.ideal_marginals:
            q = [float(p) for p in rng.random(len(layer))]
            for v in range(0, len(q), 3):
                q[v] = (0.0, -0.0, -0.25)[v // 3 % 3]
            marginals.append(tuple(q))
        hand = replace(red, ideal_marginals=tuple(marginals))
        for t in range(hand.program.m + 1):
            got = _ideal_joint(hand.ideal_marginals[t], uniform_rows(hand.labels[t]))
            assert_same_floats(got, per_vertex_ideal_joint(hand, t))
            assert not got[::3].any()


class TestFaultInjection:
    def test_broken_functionality_detected(self):
        rng = np.random.default_rng(5)
        bp = random_program(2, 2, 3, rng)
        red = reduce_to_affine(bp, 2.0)
        # find two layer-1 vertices that simulate different originals and
        # reroute one edge between them
        gamma1 = red.gamma[1]
        by_orig = {}
        for idx, orig in enumerate(gamma1):
            by_orig.setdefault(orig, idx)
        if len(by_orig) < 2:
            pytest.skip("degenerate random program")
        a_idx, b_idx = sorted(by_orig.values())[:2]
        row = list(red.program.transitions[0][0])
        row[0] = b_idx if row[0] == a_idx else a_idx
        broken_transitions = (tuple([tuple(row)]),) + red.program.transitions[1:]
        broken = BranchingProgram(red.program.n, red.program.m,
                                  red.program.layer_sizes, broken_transitions,
                                  red.program.leaf_labels)
        bad = replace(red, program=broken)
        rep = verify_reduction(bp, bad)
        assert not rep.gamma_ok

    @pytest.mark.parametrize("fault", ["last layer dropped", "layer 1 short",
                                       "original out of range"])
    def test_malformed_gamma_detected(self, fault):
        bp = random_program(3, 2, 3, np.random.default_rng(3))
        red = reduce_to_affine(bp, 3.0)
        g = red.gamma
        gamma = {"last layer dropped": g[:-1],
                 "layer 1 short": (g[0], g[1][:-1]) + g[2:],
                 "original out of range": (g[0], (bp.layer_sizes[1],) + g[1][1:]) + g[2:]}[fault]
        rep = verify_reduction(bp, replace(red, gamma=gamma))
        assert not rep.gamma_ok and not rep.all_ok

    @pytest.mark.parametrize("seed", range(6))
    def test_gamma_per_edge_oracle(self, seed):
        """The per-row compare against the per-edge loop, on a reduction
        and on copies with one gamma entry per layer moved to another
        original vertex."""
        n = 2 + seed % 3
        bp = random_program(n, 1 + seed % 3, 2 + seed % 5, np.random.default_rng(200 + seed))
        red = reduce_to_affine(bp, float(n))
        cases = [red]
        for t in range(1, bp.m + 1):
            for u in (0, -1):
                layer = list(red.gamma[t])
                layer[u] = (layer[u] + 1) % bp.layer_sizes[t]
                cases.append(replace(red, gamma=red.gamma[:t] + (tuple(layer),)
                                     + red.gamma[t + 1:]))
        results = [_check_gamma(bp, case) for case in cases]
        assert results == [per_edge_check_gamma(bp, case) for case in cases]
        assert results[0]

    def test_leaf_mapped_to_inner_vertex_detected(self):
        """Against a copy of the original whose vertex gamma[1][0] is an
        early leaf, the reduction maps an inner vertex to a leaf."""
        bp = random_program(3, 2, 3, np.random.default_rng(3))
        red = reduce_to_affine(bp, 3.0)
        orig = red.gamma[1][0]
        layer1 = tuple(None if v == orig else row for v, row in enumerate(bp.transitions[1]))
        leaves = {**bp.leaf_labels, (1, orig): AffineSubspace.full(bp.n)}
        early = BranchingProgram(bp.n, bp.m, bp.layer_sizes,
                                 (bp.transitions[0], layer1) + bp.transitions[2:], leaves)
        rep = verify_reduction(early, red)
        assert rep.affine_ok and not rep.gamma_ok and not rep.all_ok

    def test_early_leaves_rejected(self):
        n = 2
        deg = 1 << (n + 1)
        bp = BranchingProgram(n, 2, (1, 1, 1), ((None,), ((0,) * deg,)),
                              {(0, 0): AffineSubspace.full(n),
                               (2, 0): AffineSubspace.full(n)})
        with pytest.raises(ValueError):
            reduce_to_affine(bp, 2.0)


class TestInductiveTracking:
    def test_bounds_hold_with_margin_recorded(self):
        rng = np.random.default_rng(6)
        bp = random_program(3, 3, 5, rng)
        red = reduce_to_affine(bp, 3.0)
        for t, check in enumerate(red.report.inductive_checks):
            assert check.ok
            assert check.bound == pytest.approx(
                min(2 * t * 2.0 ** (-(3.0 - 1.5)), 2.0))

    def test_output_dimension_margin_is_room_above_the_lower_bound(self):
        bp = random_program(3, 3, 5, np.random.default_rng(0))
        checks = reduce_to_affine(bp, 3.0).report.output_dim_checks
        assert checks
        for check in checks:
            assert check.ok
            assert check.margin == check.measured - check.bound
            assert check.margin >= 0

    def test_report_serializes(self):
        rng = np.random.default_rng(7)
        bp = random_program(2, 1, 3, rng)
        red = reduce_to_affine(bp, 2.0)
        doc = json.loads(json.dumps(red.report.to_dict()))
        assert doc["all_ok"] is True


# (n, m, width, seed, r) of light reductions whose reduced layers widen
# several-fold over the program's: widths (1, 6, 9, 20), (1, 19, 48, 22),
# (1, 17, 80), (1, 20, 104) and (1, 4, 15).  The last one's inner layer
# is too narrow to cross a state cap mid-layer.
BUDGET_CASES = [(2, 3, 3, 1, 2.0), (3, 3, 4, 2, 3.0), (4, 2, 3, 1, 4.0), (3, 2, 6, 5, 3.0),
                (3, 2, 4, 1, 3.0)]


def _crossings(bp, widths, last):
    """(layer j, cap) per reduced layer j <= last that some cap makes the
    first one past it, with the layer at least two vertices wider than the
    cap: the smallest such cap, the largest and one between."""
    out = []
    for j in range(1, last + 1):
        low = max(bp.width, *widths[:j])
        if widths[j] >= low + 2:
            out += [(j, cap) for cap in sorted({low, (low + widths[j] - 2) // 2, widths[j] - 2})]
    assert out
    return out


class TestRoundBudgets:
    """The budgets refuse a reduced layer in the partition round that takes
    it one vertex past them, before the rest of the layer is partitioned."""

    @pytest.mark.parametrize("n, m, width, seed, r", BUDGET_CASES)
    def test_dp_refusal_within_one_vertex(self, monkeypatch, n, m, width, seed, r):
        bp = random_program(n, m, width, np.random.default_rng(seed))
        widths = reduce_to_affine(bp, r).program.layer_sizes
        unit = 4 ** n * m
        for j, cap in _crossings(bp, widths, m):
            budget = cap * unit + unit // 2
            monkeypatch.setenv("PARITYLAB_DP_BUDGET", str(budget))
            with pytest.raises(BudgetExceeded) as info:
                reduce_to_affine(bp, r)
            cost = int(re.fullmatch(rf"exact DP cost (\d+) exceeds budget {budget}; "
                                    "set PARITYLAB_DP_BUDGET to override", str(info.value))[1])
            assert budget < cost <= budget + unit, (j, cap, cost)

    @pytest.mark.parametrize("n, m, width, seed, r", BUDGET_CASES[:-1])
    def test_state_refusal_within_one_vertex(self, monkeypatch, n, m, width, seed, r):
        bp = random_program(n, m, width, np.random.default_rng(seed))
        widths = reduce_to_affine(bp, r).program.layer_sizes
        degree = 2 << n
        for j, cap in _crossings(bp, widths, m - 1):
            monkeypatch.setenv("PARITYLAB_STATE_BUDGET", str(cap * degree + degree // 2))
            with pytest.raises(BudgetExceeded, match=rf"^{cap + 1} vertices x {degree} edges "
                               rf"in layer {j} exceeds the state budget; "):
                reduce_to_affine(bp, r)

    def test_state_refusal_at_the_start_vertex(self, monkeypatch):
        """Layer 0's one vertex and its 2^(n+1) out-edges are checked
        first; a program of length 0 has no out-edges to check."""
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", "4")
        bp = random_program(2, 2, 3, np.random.default_rng(0))
        with pytest.raises(BudgetExceeded, match="^1 vertices x 8 edges in layer 0 exceeds "):
            reduce_to_affine(bp, 2.0)
        start = BranchingProgram(2, 0, (1,), (), {(0, 0): AffineSubspace.full(2)})
        assert reduce_to_affine(start, 2.0).program.layer_sizes == (1,)

    @pytest.mark.parametrize("n, m, width, seed, r", BUDGET_CASES)
    def test_budgets_at_the_widest_layer_change_nothing(self, monkeypatch, n, m, width, seed, r):
        bp = random_program(n, m, width, np.random.default_rng(seed))
        red = reduce_to_affine(bp, r)
        widths = red.program.layer_sizes
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", str(max(widths) * 4 ** n * m))
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", str(max(widths[:m]) * (2 << n)))
        tight = reduce_to_affine(bp, r)
        assert tight == red
        assert tight.report.to_dict() == red.report.to_dict()


def test_builtin_sum_adds_in_order():
    """The goldens pin floats that builtin sum() totals in
    partition._partition_ids and reduce_to_affine; CPython 3.12 made
    sum() of floats compensated, which changes them."""
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        "builtin sum() of floats is not a left-to-right fold: the floats and reduce "
        "--out bytes pinned in tests/test_golden.py would change")
