"""Streaming memory-bounded learners for parity learning.

A learner is a finite-state value machine: the state is a single integer
whose bit length never exceeds the declared memory budget (hard-asserted
on every step by the simulation harness), the step map
step(state, a, b) consumes one sample, a packed n-bit vector a and a bit
b, and the output map turns a state into the affine subspace of keys the
learner currently believes in.

The three learners also carry a batch run that steps a whole Monte Carlo
batch at once over (trials, ...) numpy arrays.  It computes the same
final states as the scalar step map and reports every trial's packed
state bit length after every step, so the budget is still checked per
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bp import unroll
from .gf2 import (
    MAX_SUBSPACE_DIM,
    AffineSubspace,
    _insert,
    _reduce,
    lowest_set_bit,
    parity,
    solve_affine_system,
)


# (trials,) keys, (trials, m) sample vectors, per-step check of the
# (trials,) packed-state bit lengths -> (the key point each final output
# names or -1, a function packing the final states into step's ints)
BatchRun = Callable[[np.ndarray, np.ndarray, Callable[[np.ndarray], None]],
                    tuple[np.ndarray, Callable[[], list[int]]]]


@dataclass(frozen=True)
class Learner:
    """A streaming learner; `batch`, when set, must agree with `step` and
    `output` on every stream (simulate_success falls back to them
    otherwise), and `successors`, when set, with `step` on every state
    and sample (bp.unroll's array form of step; learner_state_layers
    falls back to step otherwise)."""

    name: str
    n: int
    memory_bits: int
    initial_state: int
    step: Callable[[int, int, int], int]
    output: Callable[[int], AffineSubspace]
    batch: BatchRun | None = None
    successors: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class TradeoffPoint:
    learner: str
    n: int
    memory_bits: int
    m: int
    success: float
    ci_halfwidth: float
    seed: int
    capped: bool = False

    CSV_HEADER = "learner,n,memory_bits,m,success,ci_halfwidth,seed"

    def csv_row(self) -> str:
        return (f"{self.learner},{self.n},{self.memory_bits},{self.m},"
                f"{self.success:.6f},{self.ci_halfwidth:.6f},{self.seed}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.  It ends at
    exactly 0 with no successes and at exactly 1 with no failures, as the
    closed form does: its rounded value can fall either side of the end,
    outside [0, 1] or short of the proportion itself."""
    z = 1.96
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (0.0 if successes == 0 else center - half,
            1.0 if successes == trials else center + half)


def _decode_rows(state: int, width: int) -> list[int]:
    rows = []
    mask = (1 << width) - 1
    while state:
        rows.append(state & mask)
        state >>= width
    return rows


def _encode_rows(rows: list[int], width: int) -> int:
    state = 0
    for i, row in enumerate(rows):
        state |= row << (i * width)
    return state


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Elementwise int.bit_length of nonnegative integers below 2^53."""
    return np.frexp(v)[1]


def _parity(v: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(v) & 1).astype(np.int64)


def _honest_rows(xs: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Augmented samples a | (a.x) << n, shape (trials, m)."""
    return a | (_parity(a & xs[:, None]) << n)


def _reduce_batch(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reduce each v by its trial's rows, where rows[:, p] is the row with
    pivot column p (0 if none) and no row has a bit at another row's
    pivot, so one XOR of the selected rows equals sequential reduction."""
    cols = np.arange(rows.shape[1])
    return v ^ np.bitwise_xor.reduce(np.where((v[:, None] >> cols) & 1, rows, 0), axis=1)


def _insert_batch(rows: np.ndarray, v: np.ndarray, p: np.ndarray, take: np.ndarray) -> None:
    """For the trials in `take`, clear column p from the other rows with
    the reduced row v, then store v as the row with pivot p."""
    p = np.where(take, p, 0)
    hit = take[:, None] & (((rows >> p[:, None]) & 1) == 1)
    rows ^= np.where(hit, v[:, None], 0)
    t = np.flatnonzero(take)
    rows[t, p[t]] = v[t]


def _solved_points(rows: np.ndarray, full: np.ndarray, n: int) -> np.ndarray:
    """Key point of full-rank reduced rows (the b bits, coordinate by
    coordinate), -1 for the other trials."""
    point = (((rows >> n) & 1) << np.arange(n)).sum(axis=1)
    return np.where(full, point, -1)


def gaussian_learner(n: int) -> Learner:
    """Keeps the full row-reduced system of every sample seen.

    State: up to n augmented rows of n+1 bits in RREF (pivots in the
    coefficient part only); inconsistent samples, which cannot occur when
    b = a.x, are discarded so the step map stays total.
    """
    width = n + 1
    b_bit = 1 << n

    def step(state: int, a: int, b: int) -> int:
        rows = _decode_rows(state, width)
        v = _reduce(rows, a | (b << n))
        if v & ~b_bit == 0:
            return state  # redundant, or inconsistent (impossible on honest streams)
        _insert(rows, v)
        rows.sort(key=lowest_set_bit)
        return _encode_rows(rows, width)

    def output(state: int) -> AffineSubspace:
        return solve_affine_system(n, _decode_rows(state, width))

    def batch(xs, a, check):
        trials = len(xs)
        rows = np.zeros((trials, n), np.int64)
        count = np.zeros(trials, np.int64)
        top = np.zeros(trials, np.int64)      # highest pivot column held
        cols = np.arange(n)
        samples = _honest_rows(xs, a, n)
        for j in range(samples.shape[1]):
            v = _reduce_batch(rows, samples[:, j])
            coeff = v & (b_bit - 1)
            take = coeff != 0
            pivot = _bit_length(coeff & -coeff) - 1
            _insert_batch(rows, v, pivot, take)
            count += take
            top = np.where(take, np.maximum(top, pivot), top)
            # packed rows sorted by pivot: the highest-pivot row is last
            top_row = np.where(cols == top[:, None], rows, 0).max(axis=1, initial=0)
            check(np.where(count > 0, (count - 1) * width + _bit_length(top_row), 0))
        return _solved_points(rows, count == n, n), lambda: [
            _encode_rows([r for r in row if r], width) for row in rows.tolist()]

    def successors(states):
        # rows[:, i] is each state's row i, sorted by pivot (0 past its
        # rank); the sample at edge (a << 1) | b is a | b << n
        rows = (states[:, None] >> (np.arange(n) * width)) & ((1 << width) - 1)
        pivots = rows & -rows
        edges = np.arange(2 << n, dtype=np.int64)
        samples = (edges >> 1) | ((edges & 1) << n)
        # _reduce: one XOR of the rows whose pivot bit the sample holds
        v = np.repeat(samples[None, :], len(states), axis=0)
        for i in range(n):
            v ^= np.where(samples & pivots[:, i:i + 1], rows[:, i:i + 1], 0)
        new = v & (b_bit - 1)
        new &= -new  # the reduced sample's pivot bit, 0 when step keeps the state
        # _insert, then the pivot sort: the rows of lower pivot keep their
        # slots, v takes the next one and the others move up one
        out = np.zeros_like(v)
        slot = np.zeros_like(v)
        for i in range(n):
            r, p = rows[:, i:i + 1], pivots[:, i:i + 1]
            below = (p != 0) & (p < new)
            slot += below
            out |= (r ^ np.where(r & new, v, 0)) << np.where(below, i * width, (i + 1) * width)
        out |= v << (slot * width)
        return np.where(new != 0, out, states[:, None])

    # array successors while the n(n+1)-bit state fits int64: n <= 7
    return Learner("gaussian", n, n * width, 0, step, output, batch,
                   successors if n * width < 64 else None)


def prefix_pivot_learner(n: int) -> Learner:
    """Row-reduced system whose accepted rows form an identity prefix.

    Keeps k rows whose first k coefficient columns are the identity; an
    incoming sample is reduced by the current rows and accepted only when
    its leading coordinate is exactly column k+1, otherwise dropped.
    State: k plus the k x (n-k) trailing block plus the k right-hand
    bits, packed row by row at the current k's widths.
    """
    counter_bits = max(1, n.bit_length())

    def unpack(state: int) -> tuple[int, list[int]]:
        """k and the full augmented rows e_i | tail << k, i < k."""
        k = state & ((1 << counter_bits) - 1)
        state >>= counter_bits
        width = (n - k) + 1  # trailing block plus the b bit
        rows = []
        for i in range(k):
            rows.append((1 << i) | (state & ((1 << width) - 1)) << k)
            state >>= width
        return k, rows

    def pack(k: int, rows: list[int]) -> int:
        width = (n - k) + 1
        state = 0
        for i, row in enumerate(rows):
            state |= (row >> k) << (i * width)
        return (state << counter_bits) | k

    def step(state: int, a: int, b: int) -> int:
        k, rows = unpack(state)
        if k == n:
            return state
        v = _reduce(rows, a | (b << n))
        if not (v >> k) & 1:
            return state  # leading coordinate is not column k+1
        _insert(rows, v)
        return pack(k + 1, rows)

    def output(state: int) -> AffineSubspace:
        return solve_affine_system(n, unpack(state)[1])

    def batch(xs, a, check):
        # rows[:, i] for i < k is the full augmented row e_i + tail << k;
        # its packed tail at the current k is row >> k
        trials = len(xs)
        rows = np.zeros((trials, n), np.int64)
        k = np.zeros(trials, np.int64)
        offsets = np.arange(n)
        samples = _honest_rows(xs, a, n)
        for j in range(samples.shape[1]):
            v = _reduce_batch(rows, samples[:, j])
            take = (k < n) & (((v >> k) & 1) == 1)
            _insert_batch(rows, v, k, take)
            k += take
            tails = rows >> k[:, None]
            ends = np.where(tails != 0, offsets * (n - k + 1)[:, None] + _bit_length(tails), 0)
            packed = ends.max(axis=1, initial=0)    # bit length of the packed tails
            check(np.where(packed > 0, counter_bits + packed, _bit_length(k)))
        return _solved_points(rows, k == n, n), lambda: [
            pack(kt, row[:kt]) for kt, row in zip(k.tolist(), rows.tolist())]

    memory = counter_bits + max((k * ((n - k) + 1) for k in range(n + 1)), default=0)
    return Learner("prefix_pivot", n, memory, pack(0, []), step, output, batch)


def exhaustive_learner(n: int, confirmations: int | None = None) -> Learner:
    """Cycles through candidate keys, committing after enough consecutive
    consistent samples.

    State: (candidate, consecutive-pass counter), n + ceil(log2(T+1))
    bits.  The counter saturates at the cap T (default 3n); the output is
    the candidate point once the counter reaches T and the full space
    before that.
    """
    cap = 3 * n if confirmations is None else confirmations
    if cap < 1:
        raise ValueError("need at least one confirmation")
    counter_bits = max(1, math.ceil(math.log2(cap + 1)))
    mask = (1 << n) - 1

    def step(state: int, a: int, b: int) -> int:
        cand = state >> counter_bits
        count = state & ((1 << counter_bits) - 1)
        if parity(a & cand) != b:
            cand = (cand + 1) & mask
            count = 0
        else:
            count = min(count + 1, cap)
        return (cand << counter_bits) | count

    def output(state: int) -> AffineSubspace:
        cand = state >> counter_bits
        count = state & ((1 << counter_bits) - 1)
        if count >= cap:
            return AffineSubspace.point(n, cand)
        return AffineSubspace.full(n)

    def batch(xs, a, check):
        cand = np.zeros(len(xs), np.int64)
        count = np.zeros(len(xs), np.int64)
        b = _parity(a & xs[:, None])
        for j in range(a.shape[1]):
            bad = _parity(a[:, j] & cand) ^ b[:, j]  # 1 where the sample rejects cand
            cand = (cand + bad) & mask
            count = np.minimum(count + 1, cap) * (1 - bad)
            check(_bit_length((cand << counter_bits) | count))
        return (np.where(count >= cap, cand, -1),
                lambda: ((cand << counter_bits) | count).tolist())

    return Learner("exhaustive", n, n + counter_bits, 0, step, output, batch)


def assert_state_size(learner: Learner, state: int) -> None:
    _assert_bits(learner, state.bit_length())


def _assert_bits(learner: Learner, bits: int) -> None:
    if bits > learner.memory_bits:
        raise AssertionError(
            f"{learner.name} state needs {bits} bits, declared {learner.memory_bits}")


def run_learner(learner: Learner, x: int, a_stream: list[int]) -> int:
    """Feed the honest sample stream (a, a.x); returns the final state."""
    state = learner.initial_state
    assert_state_size(learner, state)
    for a in a_stream:
        state = learner.step(state, a, parity(a & x))
        assert_state_size(learner, state)
    return state


# Most samples per simulate_success batch (8 MiB of int64, drawn with the
# keys as one (trials, m + 1) block).  A batch step costs about as much as
# four one-sample steps, so batches need a few trials each (16 at m = 2^16).
BATCH_CELLS = 1 << 20


def _check_run(learner: Learner, m: int, trials: int) -> None:
    """The run check of simulate_success and crypto.run_attack: a trial
    or more, m >= 0, and n within gf2's MAX_SUBSPACE_DIM."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if learner.n > MAX_SUBSPACE_DIM:
        raise ValueError(f"dimension {learner.n} exceeds the Monte Carlo harnesses' "
                         f"n <= {MAX_SUBSPACE_DIM}")


def _point(out: AffineSubspace) -> int:
    return out.offset if not out.is_empty and out.dim == 0 else -1


def simulate_success(learner: Learner, m: int, trials: int,
                     rng: np.random.Generator) -> int:
    """Number of trials whose output is exactly the key point.

    Trials run in batches of at most BATCH_CELLS samples, each drawn in
    one call as a (trials, m + 1) block whose rows, in trial order, hold a
    trial's key, then its m samples, and run through learner.batch if set.
    """
    _check_run(learner, m, trials)
    size = 1 << learner.n
    per_batch = max(1, BATCH_CELLS // max(m, 1))
    hits = 0
    for start in range(0, trials, per_batch):
        count = min(per_batch, trials - start)
        draws = rng.integers(0, size, (count, m + 1))
        xs, a = draws[:, 0], draws[:, 1:]
        if learner.batch is None:
            points = [_point(learner.output(run_learner(learner, x, row)))
                      for x, row in zip(xs.tolist(), a.tolist())]
        else:
            points, _ = learner.batch(
                xs, a, lambda bits: _assert_bits(learner, int(bits.max())))
        hits += int(np.count_nonzero(np.asarray(points) == xs))
    return hits


def learner_state_layers(learner: Learner, m: int,
                         stop: Callable[[int], bool] | None = None,
                         ) -> tuple[list[list[int]], list[tuple[tuple[int, ...] | None, ...]]]:
    """Breadth-first reachable states per layer plus the transition rows;
    states with stop(state) become early leaves (see bp.unroll)."""
    return unroll(learner.n, m, learner.initial_state, learner.step, stop, learner.successors)


def estimate_sample_complexity(learner: Learner, target: float,
                               rng: np.random.Generator,
                               trials: int = 2000, m_cap: int = 1 << 16,
                               seed: int = 0) -> TradeoffPoint:
    """Smallest m whose Wilson lower confidence bound reaches the target.

    Doubling search to bracket, then bisection; each probe is a fresh
    Monte Carlo estimate.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0,1), got {target}")
    if m_cap < 1:
        raise ValueError(f"m_cap must be at least 1, got {m_cap}")

    probes: dict[int, tuple[float, float]] = {}  # m -> (success, CI half-width), last probe

    def reaches(m: int) -> bool:
        hits = simulate_success(learner, m, trials, rng)
        lo, hi = wilson_interval(hits, trials)
        probes[m] = hits / trials, (hi - lo) / 2
        return lo >= target

    m = 1
    while not reaches(m):
        if m >= m_cap:
            return TradeoffPoint(learner.name, learner.n, learner.memory_bits,
                                 m, *probes[m], seed, capped=True)
        m = min(m * 2, m_cap)
    low, high = max(1, m // 2), m
    while low < high:  # every probe here is below high, so probes[high] is its last
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid + 1
    return TradeoffPoint(learner.name, learner.n, learner.memory_bits, high, *probes[high], seed)


def rank_success_probability(n: int, m: int) -> float:
    """Pr[m uniform vectors span {0,1}^n] = prod_{i<n} (1 - 2^{i-m})."""
    out = 1.0
    for i in range(n):
        out *= 1.0 - 2.0 ** (i - m)
    return max(out, 0.0)


def exhaustive_success_curve(n: int, confirmations: int, m: int) -> list[float]:
    """Exact commitment-success probability of the candidate-cycling
    learner after 0, 1, ..., m samples, by one dynamic-programming pass
    over (candidate distance to the key, counter).  Raises ValueError
    unless confirmations >= 1 and m >= 0."""
    if confirmations < 1:
        raise ValueError("need at least one confirmation")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    size = 1 << n
    cap = confirmations
    p = np.zeros((size, cap + 1))
    p[:, 0] = 1.0 / size
    curve = [float(p[0, cap])]
    for _ in range(m):
        q = np.zeros_like(p)
        q[0, 1:cap] += p[0, 0:cap - 1]
        q[0, cap] += p[0, cap - 1] + p[0, cap]
        q[1:, 1:cap] += 0.5 * p[1:, 0:cap - 1]
        q[1:, cap] += 0.5 * (p[1:, cap - 1] + p[1:, cap])
        q[0:size - 1, 0] += 0.5 * p[1:, :].sum(axis=1)
        p = q
        curve.append(float(p[0, cap]))
    return curve


def exhaustive_success_exact(n: int, confirmations: int, m: int) -> float:
    """Exact commitment-success probability after m samples (the last
    point of exhaustive_success_curve)."""
    return exhaustive_success_curve(n, confirmations, m)[m]
