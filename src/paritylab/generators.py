"""Seeded random instances: subspaces, mixtures and programs, plus the
self-labelled affine programs of unrolled learners (among them the
greedy and selective recorders) used across the test suites."""

from __future__ import annotations

import functools
import threading
from array import array
from dataclasses import replace
from typing import Callable

import numpy as np

from .bp import BranchingProgram, Labels, labelled_program
from .distributions import SubspaceMixture, check_r, key_table
from .gf2 import (
    AffineSubspace,
    VectorSubspace,
    _insert,
    _reduce,
    _null_space_cached,
    _span,
    coset_keys,
    lowest_set_bit,
)
from .learners import Learner, _decode_rows, gaussian_learner, learner_state_layers


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator number `stream` under one user seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


# Most raw words a reader holds at once.
_MAX_BLOCK = 1 << 10


class _Words:
    """numpy's Generator.integers(lo, hi), 1 <= hi - lo <= 2^32, and
    Generator.random(k), bit for bit, from a PCG64's raw words fetched in
    blocks: Lemire's multiply-shift with its rejection loop on next_uint32,
    which hands out a word's low half and buffers its high half (handing
    the buffer out clears only has_uint32), and random() as
    (next_uint64 >> 11) * 2^-53; bits() serves integers(0, 2^k) calls of
    any size.  The reader holds one block of at most _MAX_BLOCK words, so
    its memory grows with no count of draws.  On exit, also by an
    exception, the unused words are rewound and the buffer is set: the
    generator stands where the direct calls leave it.  Nothing else may
    draw meanwhile."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.bg = rng.bit_generator
        if not isinstance(self.bg, np.random.PCG64):
            raise TypeError(f"raw draws need a PCG64 bit generator, got {type(self.bg).__name__}")
        state = self.bg.state
        self.has, self.uinteger = state["has_uint32"], state["uinteger"]
        self.fetched = 0  # words fetched since the start or the last jump
        self._fill()

    def __enter__(self) -> "_Words":
        return self

    def __exit__(self, *exc) -> None:
        self.bg.advance(self.used - len(self.block))
        state = self.bg.state  # advance zeroed the buffer
        state["has_uint32"], state["uinteger"] = self.has, self.uinteger
        self.bg.state = state

    def _fill(self) -> None:
        """Fetch the next block in place of the current one.  Blocks double
        (16 words, then as many as fetched so far) up to _MAX_BLOCK."""
        size = min(max(16, self.fetched), _MAX_BLOCK)
        self.block = self.bg.random_raw(size)
        self.used = 0  # words of the block drawn
        self.fetched += size
        self.words: list[int] | None = None  # the block as ints, made on first use
        self.halves: dict[int, list[int]] = {}  # s -> its half-words >> s, likewise

    def _word_list(self) -> list[int]:
        if self.words is None:
            self.words = self.block.tolist()
        return self.words

    def _halves(self, shift: int) -> list[int]:
        """The block's half-words >> shift, each word's low half first."""
        halves = self.halves.get(shift)
        if halves is None:
            halves = self.block.astype("<u8", copy=False).view("<u4")
            # shift 0, the walker's, skips the no-op >> 0 and its copy
            halves = self.halves[shift] = (halves >> shift if shift else halves).tolist()
        return halves

    def _next_halves(self) -> tuple[list[int], int, int]:
        """The block's half-words, the index of its next word's low half
        and their count, fetching the next block if this one is drawn.
        Their words count as drawn: the caller sets used back."""
        if self.used == len(self.block):
            self._fill()
        i, self.used = 2 * self.used, len(self.block)
        return self._halves(0), i, 2 * self.used

    def _take(self, count: int) -> list[int]:
        """The next count words."""
        out: list[int] = []
        while len(out) < count:
            if self.used == len(self.block):
                self._fill()
            end = min(self.used + count - len(out), len(self.block))
            out += self._word_list()[self.used:end]
            self.used = end
        return out

    def _take_halves(self, count: int, shift: int) -> list[int]:
        """The next count half-words, shifted right by shift."""
        out: list[int] = []
        words = (count + 1) // 2
        while words:
            if self.used == len(self.block):
                self._fill()
            end = min(self.used + words, len(self.block))
            out += self._halves(shift)[2 * self.used:2 * end]
            words -= end - self.used
            self.used = end
        if count & 1:
            out.pop()
        self._split(count)
        return out

    def _skip(self, count: int) -> None:
        """Draw count half-words unread.  Past the block the generator
        jumps (PCG64.advance) and blocks double again from 16 words."""
        words = (count + 1) // 2
        left = len(self.block) - self.used
        if words <= left:
            self.used += words
        else:  # jump to the last word, whose high half is kept
            self.bg.advance(words - left - 1)
            self.fetched = 0
            self._fill()
            self.used = 1
        self._split(count)

    def _split(self, count: int) -> None:
        """After count half-words from a word boundary: numpy keeps the
        last word's high half, buffered when count is odd."""
        self.has, self.uinteger = count & 1, int(self.block[self.used - 1]) >> 32

    def integers(self, lo: int, hi: int) -> int:
        span = hi - lo
        if not 0 < span <= 1 << 32:
            raise ValueError(f"raw draws need 1 <= hi - lo <= 2^32, got {span}")
        if span == 1:
            return lo
        threshold = (1 << 32) % span  # < span: numpy's low-half < span pre-test is implied
        while True:
            if self.has:
                self.has = 0
                m = self.uinteger * span
            else:
                if self.used == len(self.block):
                    self._fill()
                word = (self.words or self._word_list())[self.used]
                self.used += 1
                self.has, self.uinteger = 1, word >> 32
                m = (word & 0xFFFFFFFF) * span
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)

    def bits(self, k: int, count: int, skip: int = 0) -> list[int]:
        """count draws of integers(0, 2^k), 0 <= k <= 32, after skip more
        that are drawn unread.  Lemire's multiply-shift never rejects a
        power-of-two span, so each draw is one next_uint32 half-word
        shifted right by 32 - k: the buffered half, then each word's low
        and high halves.  k = 0 draws nothing."""
        if not 0 < k <= 32:
            if k == 0:
                return [0] * count
            raise ValueError(f"raw bit draws need 0 <= k <= 32, got {k}")
        if self.has and skip:
            self.has, skip = 0, skip - 1
        if skip:
            self._skip(skip)
        shift = 32 - k
        out = []
        if self.has and count:
            self.has, count = 0, count - 1
            out.append(self.uinteger >> shift)
        if count:
            out += self._take_halves(count, shift)
        return out

    def random(self, k: int) -> np.ndarray:
        return np.array([(w >> 11) * 2.0 ** -53 for w in self._take(k)])


# The largest n with a span lattice: F_2^6 has 2,825 subspaces, a successor
# table of 2,825 x 64 two-byte entries (353 KiB); F_2^7's 29,212 would
# take 7.1 MiB.
_LATTICE_MAX_N = 6
_UNSEEN = 0xFFFF  # a successor not computed yet


class _Lattice:
    """The subspaces of F_2^n that the generators' draws have reached,
    numbered in the order first reached (0 is {0}), each with its RREF
    rows sorted by pivot and one VectorSubspace, built on first use.
    succ[s << n | v] is the id of span(s ∪ {v}), or _UNSEEN until step
    computes it."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[tuple[int, ...]] = []
        self.dims = bytearray()
        self.spaces: list[VectorSubspace | None] = []
        self.ids: dict[tuple[int, ...], int] = {}  # rows -> span id
        self.succ = array("H")
        self.unseen = array("H", [_UNSEEN]) * (1 << n)  # a new span's row of succ
        self.lock = threading.Lock()  # one miss at a time: it may add a span
        self._add(())

    def _add(self, rows: tuple[int, ...]) -> int:
        s = self.ids[rows] = len(self.rows)
        self.rows.append(rows)
        self.dims.append(len(rows))
        self.spaces.append(None)
        self.succ.extend(self.unseen)
        return s

    def step(self, s: int, v: int) -> int:
        """succ[s << n | v].  A miss computes it with _reduce and _insert
        and stores it for the whole coset v + s, which has the same span
        with s."""
        t = self.succ[s << self.n | v]
        if t != _UNSEEN:
            return t
        with self.lock:
            rows = self.rows[s]
            w = _reduce(rows, v)
            t = s
            if w:
                basis = list(rows)
                _insert(basis, w)
                basis.sort(key=lowest_set_bit)
                grown = tuple(basis)
                t = self.ids.get(grown)
                if t is None:
                    t = self._add(grown)
            succ, row = self.succ, s << self.n
            for u in _span(w, rows):
                succ[row | u] = t
        return t

    def space(self, rows: tuple[int, ...]) -> VectorSubspace:
        """The VectorSubspace of a reached span's rows."""
        s = self.ids[rows]
        space = self.spaces[s]
        if space is None:
            space = self.spaces[s] = VectorSubspace(self.n, rows)
        return space


@functools.cache
def _lattice(n: int) -> _Lattice | None:
    """The process-wide lattice of F_2^n, filled lazily; None past
    _LATTICE_MAX_N and at n = 0."""
    return _Lattice(n) if 1 <= n <= _LATTICE_MAX_N else None


def _subspace(n: int, pair: tuple[tuple[int, ...], int]) -> AffineSubspace:
    """The AffineSubspace of a canonical (rows, offset) pair, sharing the
    lattice's VectorSubspace when a draw has reached the span."""
    rows, offset = pair
    lattice = _lattice(n)
    reached = lattice is not None and rows in lattice.ids
    return AffineSubspace(n, lattice.space(rows) if reached else VectorSubspace(n, rows), offset)


def random_subspace(n: int, rng: np.random.Generator) -> AffineSubspace:
    with _Words(rng) as words:
        return _subspace(n, _draw_members(n, words, 1)[0])


def _draw_members(n: int, words: _Words, count: int,
                  min_dim: int = 0) -> list[tuple[tuple[int, ...], int]]:
    """Up to count distinct subspaces as canonical pairs (rows, offset),
    the RREF rows sorted by pivot and the offset reduced by them, in order
    of first appearance, from at most 20 * count draws: small n may not
    have count distinct subspaces (n = 1 has 3).  Each is drawn as
    random_subspace draws it (a dimension, here uniform on [min_dim, n],
    vectors until the span reaches it, an offset); a vector is one lattice
    step, or a _reduce and an _insert past _LATTICE_MAX_N.  Equal pairs are
    equal subspaces, so callers dedup and test members on the pairs.

    The half-words of those words.integers calls are read in place, any
    buffered half first and Lemire rejections included, and the reader is
    left where the calls leave it (used, has and a stale uinteger)."""
    if n == 0:
        return [((), 0)]
    lattice = _lattice(n)
    if lattice is not None:
        succ, dims, rows_of, step = lattice.succ, lattice.dims, lattice.rows, lattice.step
    dim_span, vec_span = n + 1 - min_dim, (1 << n) - 1
    dim_floor, vec_floor = (1 << 32) % dim_span, (1 << 32) % vec_span
    shift = 32 - n
    members: dict[tuple[tuple[int, ...], int], None] = {}
    # the next half-word is halves[i], of end: first the buffer's, at odd i
    # as a word's high half, then the block's from its next word
    halves, i, end = [0, words.uinteger], 2 - words.has, 2
    try:
        for _ in range(20 * count):
            dim = min_dim
            if dim_span > 1:  # integers(lo, lo + 1) draws nothing
                while True:
                    if i == end:
                        halves, i, end = words._next_halves()
                    m = halves[i] * dim_span
                    i += 1
                    if m & 0xFFFFFFFF >= dim_floor:
                        break
                dim += m >> 32
            basis: list[int] = []
            s = rank = 0
            while rank < dim:
                v = 1  # n = 1: integers(1, 2) draws nothing
                if vec_span > 1:
                    while True:
                        if i == end:
                            halves, i, end = words._next_halves()
                        m = halves[i] * vec_span
                        i += 1
                        if m & 0xFFFFFFFF >= vec_floor:
                            break
                    v += m >> 32
                if lattice is None:
                    v = _reduce(basis, v)
                    if v:
                        _insert(basis, v)
                        rank += 1
                else:
                    t = succ[s << n | v]
                    s = step(s, v) if t == _UNSEEN else t
                    rank = dims[s]
            if lattice is None:
                basis.sort(key=lowest_set_bit)
                rows = tuple(basis)
            else:
                rows = rows_of[s]
            if i == end:
                halves, i, end = words._next_halves()
            members.setdefault((rows, _reduce(rows, halves[i] >> shift)))
            i += 1
            if len(members) >= count:
                break
    finally:  # halves[i - 1] was drawn last; a word's high half stays buffered
        if end > 2:  # in the block, whose words _next_halves marked drawn
            words.used = (i + 1) >> 1
        words.has, words.uinteger = i & 1, halves[(i - 1) | 1]
    return list(members)


def _weights(words: _Words, k: int) -> list[float]:
    """words.random(k) + 0.05 divided by its numpy sum, as floats, bit for
    bit.  numpy sums fewer than 8 terms as a left fold from 0.0 and exactly
    8 as ((w0+w1)+(w2+w3))+((w4+w5)+(w6+w7)); both are written out, since
    builtin sum() is compensated from Python 3.12 on.  Past 8 terms (only
    when max_members > 8) numpy sums them itself."""
    if k > 8:
        weights = words.random(k) + 0.05
        weights /= weights.sum()
        return weights.tolist()
    w = [(x >> 11) * 2.0 ** -53 + 0.05 for x in words._take(k)]
    if k == 8:
        total = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
    else:
        total = 0.0
        for x in w:
            total += x
    return [x / total for x in w]


_Pairs = list[tuple[tuple[int, ...], int]]  # canonical (rows, offset) pairs, see _draw_members


def _mixture(n: int, pairs: _Pairs, weights: list[float]) -> SubspaceMixture:
    """The SubspaceMixture of a drawn mixture's pairs and weights."""
    return SubspaceMixture(n, tuple((_subspace(n, pair), p) for pair, p in zip(pairs, weights)))


def _mixture_pairs(n: int, words: _Words, max_members: int = 8) -> tuple[_Pairs, list[float]]:
    """random_mixture on a reader, as its members' canonical pairs
    (distinct, in support order) and their float weights."""
    members = _draw_members(n, words, words.integers(1, max_members + 1))
    return members, _weights(words, len(members))


def random_mixture(n: int, rng: np.random.Generator,
                   max_members: int = 8) -> SubspaceMixture:
    with _Words(rng) as words:
        return _mixture(n, *_mixture_pairs(n, words, max_members))


def _full_heavy_mixture(n: int, threshold: float, words: _Words) -> tuple[_Pairs, list[float]]:
    # full-space dominated: the non-full members' total weight stays below
    # the threshold, so no hyperplane can accumulate more
    delta = threshold * (0.4 + 0.5 * float(words.random(1)[0]))
    extras = words.integers(1, 5)
    pool: dict[tuple[tuple[int, ...], int], float] = {}
    for _ in range(extras):
        pair = _draw_members(n, words, 1)[0]
        if len(pair[0]) < n:  # not the full space
            pool[pair] = pool.get(pair, 0.0) + delta / extras
    # the full space first, normalized as SubspaceMixture.from_pairs would
    # (no zero weight or duplicate to merge): each divided by the builtin sum
    weights = [1.0 - sum(pool.values()), *pool.values()]
    total = sum(weights)
    return [(tuple(1 << i for i in range(n)), 0), *pool], [p / total for p in weights]


def _hyperplane_pair(n: int, a: int, b: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair of {x : a.x = b}, a != 0: the null space of a,
    and the point (a & -a) b (a.x = b there) reduced by it."""
    rows = _null_space_cached(n, (a,)).rows
    return rows, _reduce(rows, (a & -a) * b)


def _hyperplane_family_mixture(n: int, threshold: float,
                               words: _Words) -> tuple[_Pairs, list[float]] | None:
    # near-even weights over many hyperplanes, each lying inside exactly
    # one constraint, so per-hyperplane mass ~ 1/count
    count = min(int(np.ceil(1.5 / threshold)), 2 * (2 ** n - 1))
    if 1.0 / count > threshold:
        return None
    chosen: dict[tuple[int, int], None] = {}  # distinct (a, b), a != 0: distinct hyperplanes
    while len(chosen) < count:
        chosen.setdefault((words.integers(1, 1 << n), words.integers(0, 2)))
    weights = 1.0 + 0.1 * words.random(count)
    weights /= weights.sum()
    if weights.max() > threshold:
        weights = np.full(count, 1.0 / count)
    return [_hyperplane_pair(n, a, b) for a, b in chosen], weights.tolist()


def _rejection_mixture(n: int, threshold: float,
                       words: _Words) -> tuple[_Pairs, list[float]] | None:
    """Up to 200 attempts at 2-8 members of dimension at least n - 2 with
    random weights, kept when no hyperplane holds more than threshold;
    None when every attempt fails.

    Some cells never accept.  An attempt holds at most 8 members, at most
    one of them the full space, with weights (u + 0.05) / S for uniform
    u, so its heaviest non-full member weighs at least
    0.05 / (1.05 + 7 * 0.05) = 1/28.  Where 2^r > 28 (n = r = 5 and
    n = r = 6), every attempt fails the weight test below, and the call
    spends all 200 attempts before it returns None.  Returning None at
    once would change the draws that follow."""
    for _ in range(200):
        members = _draw_members(n, words, words.integers(2, 9), max(0, n - 2))
        weights = _weights(words, len(members))
        # a non-full member lies in some hyperplane, whose mass (a float
        # sum of positive terms) is at least the member's own weight
        if any(p > threshold and len(rows) < n for (rows, _), p in zip(members, weights)):
            continue
        if max(key_table(n, [coset_keys(n, *pair) for pair in members], weights)) <= threshold:
            return members, weights
    return None


def _hypothesis_mixture(n: int, r: float, words: _Words) -> tuple[_Pairs, list[float]]:
    """random_hypothesis_mixture on a reader, as canonical pairs and float
    weights."""
    check_r(n, r)
    threshold = 2.0 ** (-r)
    style = words.integers(0, 3)
    mix = None
    if style == 1:
        mix = _hyperplane_family_mixture(n, threshold, words)
    elif style == 2:
        mix = _rejection_mixture(n, threshold, words)
    return mix if mix is not None else _full_heavy_mixture(n, threshold, words)


def random_hypothesis_mixture(n: int, r: float,
                              rng: np.random.Generator) -> SubspaceMixture:
    """A mixture guaranteed to satisfy the flatness hypothesis: no
    hyperplane holds the random subspace with probability above 2^{-r}."""
    with _Words(rng) as words:
        return _mixture(n, *_hypothesis_mixture(n, r, words))


def random_program(n: int, m: int, width: int, rng: np.random.Generator) -> BranchingProgram:
    """Random layered program with all leaves in the last layer.

    Each layer's targets are one row-major (sizes[j], 2^(n+1)) block draw,
    which gives the values and generator end state of one draw per row."""
    sizes = [1] + [int(rng.integers(1, width + 1)) for _ in range(m)]
    degree = 1 << (n + 1)
    transitions = tuple(
        tuple(map(tuple, rng.integers(0, sizes[j + 1], (sizes[j], degree)).tolist()))
        for j in range(m)
    )
    with _Words(rng) as words:
        leaf_labels = {(m, v): _subspace(n, _draw_members(n, words, 1)[0]) for v in range(sizes[m])}
    return BranchingProgram(n, m, tuple(sizes), transitions, leaf_labels)


def learner_program_with_labels(learner: Learner, m: int,
                                stop: Callable[[int], bool] | None = None,
                                ) -> tuple[BranchingProgram, Labels]:
    """Unrolled learner whose affine labels are its per-state outputs;
    stopped states (None rows) and the last layer's states are the leaves.

    Sound when every step keeps label(u) ∩ {x : a.x = b} inside the next
    state's label: the row-reduction learners qualify, and so does the
    window attacker, since evicting an equation only enlarges the label.
    The output is computed once per distinct state, which the vertices of
    different layers can share.
    """
    layers, transitions = learner_state_layers(learner, m, stop)
    output = functools.cache(learner.output)
    labels = tuple(tuple(output(state) for state in layer) for layer in layers)
    return labelled_program(learner.n, transitions, labels), labels


def greedy_recorder_program(n: int, m: int, k: int) -> tuple[BranchingProgram, Labels]:
    """Affine program that intersects every consistent constraint into its
    label, stopping (leaf) once the dimension hits k: the Gaussian
    learner, stopped once its rank reaches n - k."""
    return learner_program_with_labels(
        gaussian_learner(n), m, stop=lambda state: len(_decode_rows(state, n + 1)) >= n - k)


def selective_recorder_program(n: int, m: int,
                               trigger: int) -> tuple[BranchingProgram, Labels]:
    """Affine program that records the constraint only when a equals the
    trigger vector; everything else passes through: the Gaussian learner
    stepped on the trigger's samples only."""
    return learner_program_with_labels(_selective_learner(n, trigger), m)


def _selective_learner(n: int, trigger: int) -> Learner:
    """The Gaussian learner stepped only on samples whose a is the
    trigger."""
    learner = gaussian_learner(n)

    def step(state: int, a: int, b: int) -> int:
        return learner.step(state, a, b) if a == trigger else state

    return replace(learner, step=step, batch=None, successors=None)
