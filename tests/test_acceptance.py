"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from paritylab.bp import success_probability, validate_affine
from paritylab.cli import dispatch
from paritylab.crypto import (
    decode_stream,
    encode_stream,
    keygen,
    run_attack,
    window_attacker,
)
from paritylab.generators import (
    greedy_recorder_program,
    learner_program_with_labels,
    random_program,
    selective_recorder_program,
)
from paritylab.gf2 import contains, parity
from paritylab.learners import (
    estimate_sample_complexity,
    exhaustive_learner,
    exhaustive_success_curve,
    gaussian_learner,
    rank_success_probability,
    simulate_success,
    wilson_interval,
)
from paritylab.bp import output_dimension_distribution
from paritylab.reduction import reduce_to_affine
from paritylab.suites import (
    fourier_suite,
    partition_suite,
    reach_bound_suite,
    reduction_suite,
)

SEED = 20240917


def report(idx, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {idx}: {status} — {detail}{timing}")


def test_criterion_1_fourier_closeness():
    start = time.time()
    rep = fourier_suite(200, SEED, ns=(3, 4, 5, 6), r_fracs=(0.5, 0.75, 1.0))
    elapsed = time.time() - start
    ok = rep["ok"] and rep["passed"] == 200 and elapsed < 10.0
    report(1, ok, f"{rep['passed']}/200 mixtures inside the l1 bound, "
                  f"min margin {rep['min_margin']:.3g}", elapsed)
    assert rep["passed"] == 200, rep["failures"][:3]
    assert elapsed < 10.0


def test_criterion_2_partition_properties():
    start = time.time()
    rep = partition_suite(100, SEED, ns=(2, 3, 4, 5), r_fracs=(0.5, 0.75, 1.0))
    elapsed = time.time() - start
    ok = rep["ok"] and rep["passed"] == 100 and elapsed < 30.0
    report(2, ok, f"{rep['passed']}/100 mixtures satisfy all four grouping "
                  f"properties, worst residual {rep['worst_residual']:.3g}", elapsed)
    assert rep["passed"] == 100, rep["failures"][:3]
    assert elapsed < 30.0


def test_criterion_3_reduction_bounds():
    start = time.time()
    rep = reduction_suite(50, SEED, ns=(2, 3, 4))
    elapsed = time.time() - start
    ok = rep["ok"] and rep["passed"] == 50 and elapsed < 120.0
    report(3, ok, f"{rep['passed']}/50 random programs reduce to verified "
                  f"affine programs", elapsed)
    assert rep["passed"] == 50, rep["failures"][:1]
    assert elapsed < 120.0


def test_criterion_4_reach_probability_bound():
    start = time.time()
    rep = reach_bound_suite(SEED, ns=(2, 3, 4))
    elapsed = time.time() - start
    ok = rep["ok"]
    report(4, ok, f"{rep['passed']}/{rep['count']} minimum-dimension vertices "
                  f"below the reach bound, min margin {rep['min_margin']:.3g}", elapsed)
    assert rep["ok"], rep["failures"][:3]


def test_criterion_5_soundness_exhaustive():
    start = time.time()
    n, m = 3, 3
    corpus = [
        greedy_recorder_program(n, m, 0),
        greedy_recorder_program(n, m, 1),
        greedy_recorder_program(n, m, 2),
        selective_recorder_program(n, m, trigger=1),
        learner_program_with_labels(gaussian_learner(n), m),
    ]
    red = reduce_to_affine(random_program(n, m, 4, np.random.default_rng(SEED)),
                           float(n))
    corpus.append((red.program, red.labels))

    paths_checked = 0
    for bp, labels in corpus:
        assert validate_affine(bp, labels).ok
        assert abs(success_probability(bp) - 1.0) <= 1e-12
        for x in range(1 << n):
            for a_seq in itertools.product(range(1 << n), repeat=m):
                t, v = 0, 0
                assert contains(labels[t][v], x)
                for a in a_seq:
                    if bp.is_leaf(t, v):
                        break
                    v = bp.transitions[t][v][(a << 1) | parity(a & x)]
                    t += 1
                    assert contains(labels[t][v], x)
                paths_checked += 1
    elapsed = time.time() - start
    report(5, True, f"{paths_checked} exhaustive paths stay inside their "
                    f"labels; affine success exactly 1 on {len(corpus)} programs",
           elapsed)


def test_criterion_6_learning_anchor():
    start = time.time()
    bp, _ = learner_program_with_labels(gaussian_learner(2), 2)
    point_prob = output_dimension_distribution(bp).get(0, 0.0)
    exact_ok = abs(point_prob - 3 / 8) <= 1e-12

    n, m, trials = 8, 12, 100_000
    hits = simulate_success(gaussian_learner(n), m, trials,
                            np.random.default_rng(SEED + 6))
    p = rank_success_probability(n, m)
    sigma = (p * (1 - p) / trials) ** 0.5
    mc_ok = abs(hits / trials - p) <= 3 * sigma
    elapsed = time.time() - start
    ok = exact_ok and mc_ok and elapsed < 60.0
    report(6, ok, f"exact point-recovery 3/8 at n=2,m=2 ({point_prob}); "
                  f"n=8 MC {hits / trials:.4f} vs formula {p:.4f} "
                  f"(3 sigma = {3 * sigma:.4f})", elapsed)
    assert exact_ok and mc_ok
    assert elapsed < 60.0


def _first_m(holds, m_cap):
    """Smallest m in [1, m_cap] at which `holds` is true, for a predicate
    that is false-then-true in m: doubling to bracket, then bisection."""
    m = 1
    while not holds(m):
        assert m < m_cap, f"predicate false up to m_cap={m_cap}"
        m = min(2 * m, m_cap)
    low, high = max(1, m // 2), m
    while low < high:
        mid = (low + high) // 2
        if holds(mid):
            high = mid
        else:
            low = mid + 1
    return high


def _estimator_band(success, target, trials, m_cap, k):
    """Range [lo, hi] of m that estimate_sample_complexity can return if the
    hit count of every probe it makes lies within k binomial standard
    deviations of trials * success(m).

    Below lo even the highest such count leaves the Wilson lower bound (the
    estimator's own decision rule) under the target, so no probe passes;
    from hi on even the lowest count passes.  The estimator answers with an
    m whose probe passed, so at least lo, and at most one above some probe
    that failed, which lies below hi, so at most hi.  Needs success(m)
    non-decreasing.
    """
    def wilson_lo(m, sign):
        p = success(m)
        hits = trials * p + sign * k * math.sqrt(trials * p * (1 - p))
        hits = math.floor(hits) if sign > 0 else math.ceil(hits)
        return wilson_interval(min(max(hits, 0), trials), trials)[0]
    return (_first_m(lambda m: wilson_lo(m, +1) >= target, m_cap),
            _first_m(lambda m: wilson_lo(m, -1) >= target, m_cap))


def test_criterion_7_tradeoff_anchor():
    """Exhaustive-vs-Gaussian sample complexity at n=8, T=24, target 0.9.

    Every expected value comes from the exact oracles: the rank formula
    for row reduction, the (candidate distance, counter) chain DP for
    candidate cycling, and the Wilson rule the estimator decides by.  Each
    measured m must lie in its learner's 5-sigma band (see
    _estimator_band); a two-sided 5-sigma tail is about 6e-7 per probe,
    so over the ~20 probes of one search a correct learner leaves its band
    with probability near 1e-5.  The ratio must reach the band floor
    exhaustive lo / gaussian hi (about 36).

    The exact 0.9-quantiles are 483 (256 candidates, about two samples per
    rejected candidate, plus 24 confirmations) and 12, so the true ratio
    is near 40.  An earlier fixed threshold of 50 was out of reach: the
    bands are [469, 507] and [11, 13], so a run whose probes all stay
    within 5 sigma gives at most 507/11 ~ 46; 50 needs exhaustive
    m >= 550, where the exact success is already 0.994.
    """
    start = time.time()
    n, cap, target, trials, m_cap = 8, 24, 0.9, 1500, 1 << 12
    gauss = estimate_sample_complexity(
        gaussian_learner(n), target, np.random.default_rng(SEED + 7),
        trials=trials, seed=SEED)
    exhaustive = estimate_sample_complexity(
        exhaustive_learner(n, cap), target, np.random.default_rng(SEED + 8),
        trials=trials, m_cap=m_cap, seed=SEED)
    ratio = exhaustive.m / gauss.m

    # success is non-decreasing in m: rank can only grow, and the chain's
    # committed state (key, T) is absorbing
    exact = {"gaussian": lambda m: rank_success_probability(n, m),
             "exhaustive": exhaustive_success_curve(n, cap, m_cap).__getitem__}
    quantile = {name: _first_m(lambda m: f(m) >= target, m_cap)
                for name, f in exact.items()}
    band = {name: _estimator_band(f, target, trials, m_cap, k=5)
            for name, f in exact.items()}
    floor = band["exhaustive"][0] / band["gaussian"][1]
    measured = {"gaussian": gauss.m, "exhaustive": exhaustive.m}
    outside = {name: (m, band[name]) for name, m in measured.items()
               if not band[name][0] <= m <= band[name][1]}
    elapsed = time.time() - start
    ok = not outside and ratio >= floor and elapsed < 300.0
    report(7, ok, f"measured m: exhaustive {exhaustive.m}, gaussian {gauss.m}; "
                  f"5-sigma bands {list(band['exhaustive'])} and "
                  f"{list(band['gaussian'])}; ratio {ratio:.1f}, floor "
                  f"{floor:.1f} (exact 0.9-quantiles {quantile['exhaustive']} "
                  f"and {quantile['gaussian']})", elapsed)
    assert elapsed < 300.0
    assert not outside, f"measured m outside its 5-sigma band: {outside}"
    assert ratio >= floor, (
        f"ratio {ratio:.1f} = {exhaustive.m}/{gauss.m} below the band floor "
        f"{floor:.1f}; exact 0.9-quantiles {quantile['exhaustive']}/"
        f"{quantile['gaussian']}")


def test_criterion_8_crypto():
    start = time.time()
    rng = np.random.default_rng(SEED + 9)
    key = keygen(9, rng)
    for i in range(1000):
        size = int(rng.integers(0, 64)) if i else 4096
        payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
        assert decode_stream(key, encode_stream(key, payload, rng)) == payload

    n = 6
    wide = window_attacker(n, 3 * n * (n + 1))       # capacity 18 >= n
    trials = 3000
    rep = run_attack(wide, m=3 * n, trials=trials, rng=np.random.default_rng(SEED + 10))
    p = rank_success_probability(n, 3 * n)
    sigma_wide = max((p * (1 - p) / trials) ** 0.5, 1e-9)
    wide_ok = abs(rep.key_guess_rate - p) <= 3 * sigma_wide

    blind = window_attacker(n, 0)
    trials0 = 30_000
    rep0 = run_attack(blind, m=4, trials=trials0, rng=np.random.default_rng(SEED + 11))
    p0 = 2.0 ** (-n)
    sigma0 = (p0 * (1 - p0) / trials0) ** 0.5
    blind_ok = abs(rep0.key_guess_rate - p0) <= 3 * sigma0

    elapsed = time.time() - start
    ok = wide_ok and blind_ok and elapsed < 120.0
    report(8, ok, f"1000 payload round-trips; capacity-18 rate "
                  f"{rep.key_guess_rate:.5f} vs rank formula {p:.5f}; "
                  f"capacity-0 rate {rep0.key_guess_rate:.5f} vs {p0:.5f}; "
                  f"memory assertions never tripped", elapsed)
    assert wide_ok and blind_ok
    assert elapsed < 120.0


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    cases = [
        ("verify-lemmas", "--n", "4", "--r", "3", "--seed", "7", "--trials", "20"),
        ("tradeoff", "--n", "4", "--learners", "gaussian,prefix",
         "--target", "0.8", "--trials", "300", "--seed", "7"),
        ("crypto", "keygen", "--n", "16", "--seed", "7"),
        ("crypto", "attack", "--n", "5", "--memory-bits", "30", "--m", "8",
         "--trials", "400", "--seed", "7"),
        ("bounds", "--n", "6", "--k", "4", "--m", "3"),
    ]
    identical = 0
    for idx, case in enumerate(cases):
        out1 = tmp_path / f"run_a_{idx}.out"
        out2 = tmp_path / f"run_b_{idx}.out"
        assert dispatch(list(case) + ["--out", str(out1)]) == 0
        assert dispatch(list(case) + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        identical += 1
    elapsed = time.time() - start
    report(9, True, f"{identical}/{len(cases)} repeated CLI runs produced "
                    f"byte-identical outputs", elapsed)
