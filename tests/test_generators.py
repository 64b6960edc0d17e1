"""The instance generators against their object-building references.

The package's generators draw, dedup and test members as the canonical
int pairs that generators._draw_members returns, every mixture style
returns pairs and weights, and only the public functions build objects,
through generators._mixture; the references in oracles.py build an
AffineSubspace and a SubspaceMixture for every draw and attempt.  Both
consume the same stream, so every mixture and every generator state must
match after every call.
"""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    object_full_heavy_mixture,
    object_hyperplane_family_mixture,
    object_random_hypothesis_mixture,
    object_random_mixture,
    object_random_subspace,
    object_rejection_mixture,
    per_row_random_program,
)
from paritylab import generators
from paritylab.gf2 import AffineSubspace, _reduce, _rref_ints, intersect_hyperplane

# (n, r / n, seed): r up to n at every n <= 6 (the span lattice), up to
# 2n (check_r's ceiling) where n <= 2, and r = n / 2 at n = 7 and 8 (the
# loop).  From n = 4 on, r = n makes nearly every rejection attempt
# fail, and the references' 200 failed attempts cost 0.1 s each.
CELLS = ([(n, frac, seed) for n in range(1, 7) for frac in (0.5, 0.75, 1.0)
          for seed in ((0, 1) if n <= 3 else (0,))]
         + [(n, frac, seed) for n in (1, 2) for frac in (1.5, 2.0) for seed in (0, 1)]
         + [(n, 0.5, 0) for n in (7, 8)])


def _text(x):
    """A generator's result as text: to_text and repr(p) of each member."""
    if x is None or isinstance(x, AffineSubspace):
        return x if x is None else x.to_text()
    return [(w.to_text(), repr(p)) for w, p in x.support]


def _on_reader(style, n, t, rng):
    """A style called on a reader over rng, synced on return, and its
    pairs and weights (or None) made a SubspaceMixture."""
    with generators._Words(rng) as words:
        out = style(n, t, words)
    return out if out is None else generators._mixture(n, *out)


def _calls(n, r):
    """(name, package call, reference call) in the order a cell makes them;
    random_hypothesis_mixture draws its style, so every style is also
    called directly."""
    t = 2.0 ** (-r)
    g = generators
    return [
        ("random_hypothesis_mixture", lambda rng: g.random_hypothesis_mixture(n, r, rng),
         lambda rng, paths: object_random_hypothesis_mixture(n, r, rng, paths)),
        ("random_hypothesis_mixture", lambda rng: g.random_hypothesis_mixture(n, r, rng),
         lambda rng, paths: object_random_hypothesis_mixture(n, r, rng, paths)),
        ("_rejection_mixture", lambda rng: _on_reader(g._rejection_mixture, n, t, rng),
         lambda rng, paths: object_rejection_mixture(n, t, rng, paths)),
        ("_hyperplane_family_mixture",
         lambda rng: _on_reader(g._hyperplane_family_mixture, n, t, rng),
         lambda rng, paths: object_hyperplane_family_mixture(n, t, rng, paths)),
        ("_full_heavy_mixture", lambda rng: _on_reader(g._full_heavy_mixture, n, t, rng),
         lambda rng, paths: object_full_heavy_mixture(n, t, rng, paths)),
        ("random_mixture", lambda rng: g.random_mixture(n, rng),
         lambda rng, paths: object_random_mixture(n, rng, paths=paths)),
        ("random_mixture", lambda rng: g.random_mixture(n, rng, max_members=16),
         lambda rng, paths: object_random_mixture(n, rng, max_members=16, paths=paths)),
        ("random_subspace", lambda rng: g.random_subspace(n, rng),
         lambda rng, paths: object_random_subspace(n, rng)),
    ]


@pytest.fixture(scope="module")
def corpus():
    """Every call of every cell of CELLS: its label, both results as text,
    both generator states after it; and the references' path counts over
    the whole corpus."""
    paths = Counter()
    records = []
    for n, frac, seed in CELLS:
        rng, ref_rng = (np.random.default_rng([n, int(4 * frac), seed]) for _ in range(2))
        for name, call, ref in _calls(n, frac * n):
            got, want = _text(call(rng)), _text(ref(ref_rng, paths))
            records.append(((name, n, frac * n, seed), got, want,
                            rng.bit_generator.state, ref_rng.bit_generator.state))
    return records, paths


def test_equal_to_object_references(corpus):
    records, _ = corpus
    for label, got, want, state, ref_state in records:
        assert got == want, label
        assert state == ref_state, label


def test_corpus_reaches_every_path(corpus):
    """The corpus takes each branch of the references at least once; the
    counts are in the failure message."""
    _, paths = corpus
    required = (
        "rejection first test", "rejection hyperplane mass", "rejection accepted",
        "rejection None after 200", "rejection n=1", "rejection 20*count cap",
        "rejection merged dim-n duplicate",
        "family None", "family merged duplicate", "family even weights",
        "full-heavy drew the full space", "mixture 20*count cap", "mixture merged duplicate",
        "style 0", "style 1", "style 2", "full-heavy",
    )
    assert all(paths[p] > 0 for p in required), dict(paths)


@pytest.mark.parametrize("n", [*range(9), 24])
def test_one_member_is_random_subspace(n):
    """_draw_members at count 1, at every dimension floor, gives the rows
    and reduced offset of random_subspace's draws at a dimension drawn on
    [floor, n] (floor n draws none), with the same generator state after
    every call.  Each call has a reader of its own, which enters with the
    last call's buffered half or none; every third call draws a float
    first, which leaves that half behind the block's next word."""
    rng, ref = (np.random.default_rng([n, 42]) for _ in range(2))
    for i in range(200 if n < 9 else 50):
        min_dim = i % (n + 1)
        with generators._Words(rng) as words:
            if i % 3 == 0:
                assert words.random(1).tolist() == ref.random(1).tolist()
            pair = generators._draw_members(n, words, 1, min_dim)[0]
        w = object_random_subspace(n, ref, int(ref.integers(min_dim, n + 1)))
        assert pair == (w.direction.rows, w.offset), (i, min_dim)
        assert rng.bit_generator.state == ref.bit_generator.state, (i, min_dim)


@pytest.mark.parametrize("n", range(8))
def test_mixture_pairs_are_random_mixture(n):
    """_mixture_pairs, on a reader, gives random_mixture's members as
    canonical pairs and its weights as floats, from the same draws."""
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    for max_members in (1, 8, 16):
        with generators._Words(rng) as words:
            pairs, weights = generators._mixture_pairs(n, words, max_members)
        mix = generators.random_mixture(n, ref_rng, max_members)
        assert pairs == [(w.direction.rows, w.offset) for w, _ in mix.support]
        assert [repr(p) for p in weights] == [repr(p) for _, p in mix.support]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", range(1, 7))
def test_hyperplane_pairs(n):
    """The hyperplane family's pair of each (a, b) is the canonical form
    of intersect_hyperplane on the full space."""
    full = AffineSubspace.full(n)
    for a in range(1, 1 << n):
        for b in (0, 1):
            w = intersect_hyperplane(full, a, b)
            assert generators._hyperplane_pair(n, a, b) == (w.direction.rows, w.offset), (a, b)


@pytest.mark.parametrize("n", range(9))
def test_full_heavy_leads_with_the_full_space(n):
    """The full-heavy style's first pair is AffineSubspace.full(n)'s."""
    full = AffineSubspace.full(n)
    with generators._Words(np.random.default_rng(n)) as words:
        pairs, _ = generators._full_heavy_mixture(n, 2.0 ** (-n / 2), words)
    assert pairs[0] == (full.direction.rows, full.offset)


@pytest.mark.parametrize("n", [5, 6])
def test_rejection_style_never_accepts_where_2_to_the_r_exceeds_28(monkeypatch, n):
    """At r = n = 5 and 6, 2^-r < 1/28: every attempt's heaviest non-full
    member weighs at least 1/28, so every attempt fails the weight test,
    the hyperplane-mass test never runs, and the call returns None after
    200 attempts."""
    draws = []

    def draw_members(*args):
        draws.append(out := draw(*args))
        return out

    def weights(words, k):
        out = weigh(words, k)
        members = draws[-1]
        assert max(p for (rows, _), p in zip(members, out) if len(rows) < n) >= 1 / 28
        return out

    def refuse(*args):
        raise AssertionError("an attempt passed the weight test")

    draw, weigh = generators._draw_members, generators._weights
    monkeypatch.setattr(generators, "_draw_members", draw_members)
    monkeypatch.setattr(generators, "_weights", weights)
    monkeypatch.setattr(generators, "key_table", refuse)
    assert 2.0 ** n > 28
    for seed in range(3):
        draws.clear()
        with generators._Words(np.random.default_rng([n, seed])) as words:
            assert generators._rejection_mixture(n, 2.0 ** -n, words) is None
        assert len(draws) == 200


# Ranges hi - lo of 1 (no draw), small, 2^k - 1, 2^k, 2^31 + 1 (about
# half of its multiply-shift draws are rejected) and 2^32 (the raw half).
RANGES = [(0, 1), (5, 6), (0, 2), (0, 3), (-3, 4), (0, 7), (1, 2 ** 5), (0, 2 ** 5),
          (0, 2 ** 31 + 1), (0, 2 ** 32), (7, 2 ** 32 + 7)]

# Bit draws ("bits", k, count, skip): k = 0 (no draw) up to 32 (the raw
# half), counts of none, one, odd and even, skips of none, odd and even.
BITS_K = [0, 1, 6, 24, 31, 32]
BITS_COUNTS = [0, 1, 2, 7, 40]
BITS_SKIPS = [0, 0, 1, 6]


def _script(seed, length):
    """A mixed sequence of ranges (lo, hi), ("random", k) and
    ("bits", k, count, skip) steps."""
    pick = np.random.default_rng([seed, length])
    steps = []
    for _ in range(length):
        i = int(pick.integers(0, len(RANGES) + 4))
        if i < len(RANGES):
            steps.append(RANGES[i])
        elif i < len(RANGES) + 2:
            steps.append(("random", int(pick.integers(0, 4))))
        else:
            steps.append(("bits", *(int(pick.choice(c)) for c in (BITS_K, BITS_COUNTS, BITS_SKIPS))))
    return steps


def _serve(source, steps):
    """The steps drawn from a Generator or a reader, as plain values; a
    Generator serves a bit step as integers(0, 2^k) calls of skip and of
    count draws."""
    out = []
    for step in steps:
        if step[0] == "random":
            out.append(source.random(step[1]).tolist())
        elif step[0] != "bits":
            out.append(int(source.integers(*step)))
        elif isinstance(source, generators._Words):
            out.append(source.bits(*step[1:]))
        else:
            _, k, count, skip = step
            source.integers(0, 1 << k, skip)
            out.append(source.integers(0, 1 << k, count).tolist())
    return out


class TestWords:
    """generators._Words against direct Generator calls: the same values,
    and the same bit generator state (words, has_uint32 and uinteger)
    once the reader is closed."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("length", [0, 1, 7, 400])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_direct_calls(self, seed, length, buffered):
        rng, ref = (np.random.default_rng(seed) for _ in range(2))
        if buffered:  # start with the high half of a word in the buffer
            assert int(rng.integers(0, 2)) == int(ref.integers(0, 2))
            assert rng.bit_generator.state["has_uint32"] == 1
        steps = _script(seed, length)
        with generators._Words(rng) as words:
            got = _serve(words, steps)
        assert got == _serve(ref, steps)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert length < 400 or words.fetched > 16  # more than one block
        assert rng.integers(0, 2 ** 31 + 1, 9).tolist() == ref.integers(0, 2 ** 31 + 1, 9).tolist()

    @pytest.mark.parametrize("buffered", [False, True])
    def test_bits_across_blocks(self, buffered):
        """Bit draws and skips longer than the largest block, and skips
        past the block (a jump), odd and even, between other draws; the
        reader never holds more than one block."""
        big = 2 * generators._MAX_BLOCK  # half-words in the largest block
        steps = [("bits", 6, 3 * big + 1, 0), ("bits", 31, 5, 1), (0, 7),
                 ("bits", 24, 2, 10 ** 6 + 1), ("random", 3), ("bits", 32, big - 3, 2 * big + 5),
                 ("bits", 1, 1, 0), ("bits", 6, 3, 10 ** 5), (0, 2 ** 31 + 1), ("bits", 0, 4, 9)]
        for end in range(1, len(steps) + 1):  # the state after every step
            rng, ref = (np.random.default_rng(8) for _ in range(2))
            if buffered:
                assert int(rng.integers(0, 2)) == int(ref.integers(0, 2))
            with generators._Words(rng) as words:
                got = []
                for step in steps[:end]:
                    got += _serve(words, [step])
                    assert len(words.block) <= generators._MAX_BLOCK
            assert got == _serve(ref, steps[:end])
            assert rng.bit_generator.state == ref.bit_generator.state, steps[end - 1]

    @pytest.mark.parametrize("k", [32, 27])  # _halves at shift 0 and at shift 5
    def test_half_words_across_a_refill(self, k):
        """_halves on a fresh 16-word block and on the block a refill
        fetches: each word's low then high half, shifted right by 32 - k,
        as bits(k) hands them out; the same values and generator state as
        direct calls."""
        rng, ref, twin = (np.random.default_rng(9) for _ in range(3))
        halves = [h >> (32 - k) for h in ref.integers(0, 1 << 32, 64).tolist()]
        with generators._Words(rng) as words:
            assert words._halves(32 - k) == halves[:32]
            got = [words.bits(k, 32), words.bits(k, 7)]  # the whole block, then a refill
            assert words.fetched == 32
            assert words._halves(32 - k) == halves[32:]
        assert got == [twin.integers(0, 1 << k, count).tolist() for count in (32, 7)]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_lemire_rejections(self):
        rng, ref = (np.random.default_rng(3) for _ in range(2))
        with generators._Words(rng) as words:
            got = [words.integers(0, 2 ** 31 + 1) for _ in range(200)]
        assert got == [int(ref.integers(0, 2 ** 31 + 1)) for _ in range(200)]
        assert rng.bit_generator.state == ref.bit_generator.state
        drawn = words.fetched - len(words.block) + words.used
        assert drawn > 150  # 100 words would serve 200 halves without rejection

    def test_no_draw_keeps_the_state(self):
        rng = np.random.default_rng(4)
        rng.integers(0, 2, 3)  # leaves a half-word in the buffer
        before = rng.bit_generator.state
        with generators._Words(rng) as words:
            assert [words.integers(9, 10), words.random(0).tolist()] == [9, []]
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_exception_syncs_the_draws_made(self, error):
        rng, ref = (np.random.default_rng(5) for _ in range(2))
        steps = _script(5, 30)
        with pytest.raises(error):
            with generators._Words(rng) as words:
                got = _serve(words, steps)
                if error is ValueError:
                    words.integers(0, 2 ** 32 + 1)  # beyond next_uint32's ranges
                raise error
        assert got == _serve(ref, steps)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_bad_bit_read_syncs_the_draws_made(self, seed):
        rng, ref = (np.random.default_rng(seed) for _ in range(2))
        steps = _script(seed, 30)
        with pytest.raises(ValueError):
            with generators._Words(rng) as words:
                got = _serve(words, steps)
                words.bits(33, 2, 1)  # beyond next_uint32's widths
        assert got == _serve(ref, steps)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                               np.random.SFC64, np.random.PCG64DXSM])
    def test_refuses_other_bit_generators(self, bit_generator):
        rng = np.random.Generator(bit_generator(0))
        with pytest.raises(TypeError, match="PCG64 bit generator, got"):
            generators.random_subspace(3, rng)


@pytest.mark.parametrize("k", range(1, 17))
def test_weights_are_numpy_weights(k):
    """_weights(words, k) gives words.random(k) + 0.05 divided by its numpy
    sum as the same floats, for the written-out folds (k <= 8) and numpy's
    own sum (k > 8), and leaves the generator where the numpy calls do,
    with a buffered half kept."""
    rng, ref = (np.random.default_rng([k, 3]) for _ in range(2))
    for source in (rng, ref):
        source.integers(0, 2)  # buffers a half-word
    with generators._Words(rng) as words:
        got = [generators._weights(words, k) for _ in range(300)]
    want = []
    for _ in range(300):
        weights = ref.random(k) + 0.05
        weights /= weights.sum()
        want.append(weights.tolist())
    assert got == want
    assert rng.bit_generator.state == ref.bit_generator.state


def _direct_members(n, rng, count, min_dim=0):
    """generators._draw_members from direct Generator calls: members drawn
    by object_random_subspace and deduplicated as AffineSubspaces."""
    members = {}
    for _ in range(20 * count):
        members.setdefault(object_random_subspace(n, rng, int(rng.integers(min_dim, n + 1))))
        if len(members) >= count:
            break
    return [(w.direction.rows, w.offset) for w in members]


# PCG64's multiplier: a step takes the state s to s * MULTIPLIER + inc mod
# 2^128, then outputs the new state's high XOR low 64 bits rotated right
# by the state's top 6 bits.
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _next_word_is(word, seed=0):
    """A PCG64 Generator whose next raw word is word: the state one step
    before a state of high half 0, whose output is its low half."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (word - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    rng.bit_generator.state = state
    return rng


class TestWalkMembers:
    """_draw_members, which reads the reader's half-words in place and
    takes lattice steps (1 <= n <= 6) or reduces on a basis (n >= 7),
    against direct Generator calls: the same pairs, and the same bit
    generator state (words, has_uint32 and a stale uinteger) once the
    reader is closed."""

    @staticmethod
    def _compare(n, rng, ref, calls):
        with generators._Words(rng) as words:
            got = [generators._draw_members(n, words, count, min_dim) for count, min_dim in calls]
        assert got == [_direct_members(n, ref, count, min_dim) for count, min_dim in calls]
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_direct_calls(self, n, buffered):
        """Both of the callers' dimension floors and several counts, on
        the lattice and, from n = 7, on the basis; the first call enters
        with or without a buffered half."""
        rng, ref = (np.random.default_rng([n, buffered]) for _ in range(2))
        if buffered:
            assert int(rng.integers(0, 2)) == int(ref.integers(0, 2))
            assert rng.bit_generator.state["has_uint32"] == 1
        calls = [(count, min_dim) for count in (1, 3, 8) for min_dim in (0, max(0, n - 2))]
        self._compare(n, rng, ref, 3 * calls)

    @pytest.mark.parametrize("n", [*range(1, 9), 24])
    def test_odd_and_even_final_half(self, n):
        """A call ends with a word's high half buffered or handed out
        (the stale uinteger); both occur over the seeds, which enter with
        a buffered half or not (at n = 1 every member takes two halves)."""
        ends = set()
        for seed in range(12):
            rng, ref = (np.random.default_rng([seed, n]) for _ in range(2))
            rng.integers(0, 2, seed & 1), ref.integers(0, 2, seed & 1)
            self._compare(n, rng, ref, [(3, 0)])
            ends.add(rng.bit_generator.state["has_uint32"])
        assert ends == {0, 1}

    @pytest.mark.parametrize("prefix", [29, 30, 31, 32])
    def test_block_boundary_inside_a_subspace(self, prefix):
        """prefix half-words leave the first 16-word block with 3 to 0
        halves, one of them maybe buffered: the dimension draw takes at
        most the buffered one, so the block ends among the n - 2 to n
        vector draws of the first member (dimension at least n - 2), on
        the lattice (n = 6) and on the basis (n = 8)."""
        for n in (6, 8):
            rng, ref = (np.random.default_rng(prefix) for _ in range(2))
            with generators._Words(rng) as words:
                assert words.bits(32, prefix) == ref.integers(0, 1 << 32, prefix).tolist()
                assert words.fetched == 16
                got = generators._draw_members(n, words, 1, n - 2)
                assert words.fetched > 16
            assert got == _direct_members(n, ref, 1, n - 2), n
            assert rng.bit_generator.state == ref.bit_generator.state, n

    @pytest.mark.parametrize("buffered", [False, True])
    def test_n0_draws_nothing(self, buffered):
        """F_2^0 has one subspace, the point 0: a call returns it and, like
        integers(0, 1), draws nothing, buffered half included."""
        rng = np.random.default_rng(13)
        rng.integers(0, 2, int(buffered))
        before = rng.bit_generator.state
        assert before["has_uint32"] == buffered
        with generators._Words(rng) as words:
            got = [generators._draw_members(0, words, count) for count in (1, 3)]
        assert got == [[((), 0)]] * 2
        assert rng.bit_generator.state == before

    def test_n1_draws_no_vector(self):
        """At n = 1, integers(1, 2) draws nothing: a member takes its
        dimension and offset draws only, and a vector draw that took a
        half would shift every later value."""
        rng, ref = (np.random.default_rng(11) for _ in range(2))
        self._compare(1, rng, ref, [(count, 0) for count in (1, 2, 3, 5)] * 4)

    @pytest.mark.parametrize("n", [*range(2, 9), 24])
    def test_lemire_rejection_on_a_vector(self, n):
        """The first word's low half, 2^32 - 1, draws dimension n; its high
        half, 0, is below Lemire's threshold 2^32 mod (2^n - 1) (256 at
        n = 24), so the first vector draw rejects it."""
        assert (1 << 32) % ((1 << n) - 1)
        rng, ref = (_next_word_is(0xFFFFFFFF, n) for _ in range(2))
        with generators._Words(rng) as words:
            got = generators._draw_members(n, words, 1)
            assert words.used >= 2  # the rejected half costs a second word
        assert got == _direct_members(n, ref, 1)
        assert len(got[0][0]) == n
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_steps_are_spans(n):
    """Every entry of both tables of F_2^n's lattice: succ is the span of
    a span's rows and v, red is v reduced by those rows.  Span 0 is {0},
    the spans are distinct and numbered by dimension, and each one's
    VectorSubspace is built once."""
    lattice = generators._Lattice(n)
    assert lattice.rows[0] == () and len(set(lattice.rows)) == len(lattice.rows)
    assert list(lattice.dims) == sorted(map(len, lattice.rows))
    assert len(lattice.succ) == len(lattice.red) == len(lattice.rows) << n
    for s, rows in enumerate(lattice.rows):
        assert lattice.space(rows).rows == rows and lattice.space(rows) is lattice.space(rows)
        for v in range(1 << n):
            assert lattice.rows[lattice.succ[s << n | v]] == tuple(_rref_ints(rows + (v,))), (s, v)
            assert lattice.red[s << n | v] == _reduce(rows, v), (s, v)


def test_lattice_of_f2_6_stays_small():
    """All 2,825 subspaces of F_2^6 leave a successor table of 2,825 x 64
    two-byte entries and a reduction table of as many one-byte entries;
    the build takes well under 0.5 s, and allocates under 1 MiB."""
    began = time.perf_counter()
    lattice = generators._Lattice(6)
    elapsed = time.perf_counter() - began
    # the Gaussian binomials [6 choose k]_2
    assert Counter(lattice.dims) == {0: 1, 1: 63, 2: 651, 3: 1395, 4: 651, 5: 63, 6: 1}
    assert len(lattice.rows) == 2825
    assert lattice.succ.itemsize == 2 and len(lattice.succ) == 2825 * 64
    assert lattice.red.itemsize == 1 and len(lattice.red) == 2825 * 64
    assert elapsed < 0.5, elapsed
    tracemalloc.start()
    try:
        generators._Lattice(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


class TestRandomProgram:
    """random_program draws each layer's transitions as one row-major
    block; the per-row loop of tests/oracles.py is the reference."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_per_row_reference(self, n):
        """Transitions (as repr, so plain ints), layer sizes, leaf labels
        and the generator state, after the call and after one more draw.
        Width 1 draws nothing for its targets in either form."""
        for m in range(4):
            for width in (1, 2, 5, 64):
                for seed in range(5):
                    label = (n, m, width, seed)
                    rng, ref = (np.random.default_rng([n, m, width, seed]) for _ in range(2))
                    got = generators.random_program(n, m, width, rng)
                    want = per_row_random_program(n, m, width, ref)
                    assert repr(got.transitions) == repr(want.transitions), label
                    assert got.layer_sizes == want.layer_sizes, label
                    assert ({k: w.to_text() for k, w in got.leaf_labels.items()}
                            == {k: w.to_text() for k, w in want.leaf_labels.items()}), label
                    assert rng.bit_generator.state == ref.bit_generator.state, label
                    assert int(rng.integers(0, 3)) == int(ref.integers(0, 3)), label
                    assert rng.bit_generator.state == ref.bit_generator.state, label
