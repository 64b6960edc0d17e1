import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_mask_keys, uncached_point_mask, uncached_to_text
from paritylab.distributions import uniform_row, uniform_rows, uniform_weights
from paritylab.gf2 import (
    LABEL_MEMO,
    AffineSubspace,
    BitVector,
    DimensionMismatch,
    EmptySubspaceError,
    VectorSubspace,
    _sample_coset,
    _span,
    contains,
    edge_masks,
    hyperplane_keys,
    hyperplane_masks,
    intersect_hyperplane,
    is_subset,
    keys_mask,
    keys_subspace,
    lowest_set_bit,
    mask_keys,
    mask_subspace,
    orthogonal_space,
    parity,
    parse_subspace,
    point_mask,
    solve_affine_system,
)
from paritylab.generators import random_subspace


def bv(text):
    """The packed int of a 0/1 string, coordinate 1 leftmost."""
    return BitVector.from_string(text).bits


def span_points(rows, n):
    pts = {0}
    for r in rows:
        pts |= {p ^ r for p in pts}
    return pts


def all_vector_subspaces(n):
    """Every linear subspace of {0,1}^n, as canonical VectorSubspace."""
    seen = {}
    for gens in itertools.product(range(1 << n), repeat=min(n, 4)):
        vs = VectorSubspace.from_rows(n, gens)
        seen[vs.rows] = vs
    return list(seen.values())


def all_affine_subspaces(n):
    out = []
    for vs in all_vector_subspaces(n):
        reps = set()
        for off in range(1 << n):
            w = AffineSubspace(n, vs, off)
            if w.offset not in reps:
                reps.add(w.offset)
                out.append(w)
    return out


class TestBitVectorText:
    def test_every_value_against_join(self):
        """Character i is coordinate i+1, for every value at n = 0-10."""
        for n in range(11):
            for bits in range(1 << n):
                text = "".join("1" if (bits >> i) & 1 else "0" for i in range(n))
                assert str(BitVector(n, bits)) == text
                assert BitVector.from_string(text) == BitVector(n, bits)
        assert str(BitVector(0, 0)) == ""


def loop_to_bytes(v):
    """Reference BitVector.to_bytes, one bit per step: coordinate i+1 is
    bit 7 - (i mod 8) of byte i // 8, padding bits zero."""
    out = bytearray((v.n + 7) // 8)
    for i in range(v.n):
        if (v.bits >> i) & 1:
            out[i // 8] |= 1 << (7 - i % 8)
    return bytes(out)


class TestBitVectorBytes:
    def test_against_loop(self):
        """Every n <= 17 and 64 random n <= 300; zero, all-ones and
        random values, each round-tripped through from_bytes."""
        rng = np.random.default_rng(17)
        for n in [*range(18), *(int(k) for k in rng.integers(0, 301, 64))]:
            mask = (1 << n) - 1
            for bits in (0, mask, int.from_bytes(rng.bytes(n // 8 + 1), "big") & mask):
                v = BitVector(n, bits)
                raw = v.to_bytes()
                assert raw == loop_to_bytes(v), (n, bits)
                assert BitVector.from_bytes(raw, n) == v, (n, bits)
        assert BitVector(0, 0).to_bytes() == b"" and BitVector.from_bytes(b"", 0) == BitVector(0, 0)

    def test_padding_bits_ignored(self):
        """Each set padding bit is dropped on read."""
        rng = np.random.default_rng(18)
        for n in range(1, 18):
            v = BitVector(n, int(rng.integers(0, 1 << n)))
            for pad in range(-n % 8):
                raw = bytearray(v.to_bytes())
                raw[-1] |= 1 << pad
                assert BitVector.from_bytes(bytes(raw), n) == v, (n, pad)

    @pytest.mark.parametrize("text,n", [("", 1), ("00", 9), ("0000", 8), ("00", 0)])
    def test_wrong_length(self, text, n):
        data = bytes.fromhex(text)
        with pytest.raises(ValueError, match=f"^expected {(n + 7) // 8} bytes for n={n}, got {len(data)}$"):
            BitVector.from_bytes(data, n)


class TestRref:
    def test_empty_rows(self):
        basis = VectorSubspace.from_rows(3, [])
        assert basis.dim == 0 and basis.rows == ()

    def test_dependent_rows(self):
        basis = VectorSubspace.from_rows(3, [bv("110"), bv("011"), bv("101")])
        assert basis.dim == 2

    def test_identity(self):
        for n in (1, 3, 5):
            assert VectorSubspace.from_rows(n, [1 << i for i in range(n)]).dim == n

    def test_idempotent_and_span_preserving(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(50):
                rows = [int(r) for r in rng.integers(0, 1 << n, size=4)]
                basis = VectorSubspace.from_rows(n, rows)
                again = VectorSubspace.from_rows(n, basis.rows)
                assert again == basis
                assert span_points(rows, n) == span_points(basis.rows, n)


def mask_loop_enumerate(vs):
    """Reference _span(0, vs.rows): element number mask is the XOR of
    the rows picked by mask's set bits, in mask order."""
    for mask in range(1 << len(vs.rows)):
        v = 0
        m = mask
        while m:
            i = lowest_set_bit(m)
            v ^= vs.rows[i]
            m &= m - 1
        yield v


class TestEnumerate:
    @pytest.mark.parametrize("n", range(5))
    def test_against_mask_loop(self, n):
        """The same points in the same order, for every subspace with n <= 4."""
        for vs in all_vector_subspaces(n):
            assert _span(0, vs.rows) == list(mask_loop_enumerate(vs))

    @pytest.mark.parametrize("n", range(5))
    def test_points_in_enumerate_order(self, n):
        """The one coset order: _sample_coset's point number mask is
        points()[mask], for every affine subspace with n <= 4 and every
        mask; [] for Empty."""
        for w in all_affine_subspaces(n):
            points = w.points()
            assert len(points) == 1 << w.dim
            for mask, p in enumerate(points):
                assert _sample_coset(w.offset, w.direction.rows, mask) == p
        assert AffineSubspace.empty(n).points() == []


class TestInnerProduct:
    def test_spec_values(self):
        assert parity(bv("000") & bv("101")) == 0
        assert parity(bv("101") & bv("110")) == 1
        assert parity(bv("1111") & bv("1111")) == 0


class TestCanonicalForm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unique_per_coset(self, n):
        """Any generating description of the same coset canonicalizes
        identically: group all (offset, generators) by point set."""
        rng = np.random.default_rng(1)
        by_points = {}
        for w in all_affine_subspaces(n):
            pts = frozenset(w.points())
            by_points.setdefault(pts, w)
            # random regeneration from its own points
            pts_list = sorted(pts)
            for _ in range(3):
                base = pts_list[rng.integers(0, len(pts_list))]
                rebuilt = AffineSubspace(n, VectorSubspace(n, tuple(base ^ p for p in pts_list)), base)
                assert rebuilt == by_points[pts]

    def test_direct_construction_canonicalizes(self):
        """The constructors put any description in canonical form:
        dependent, zero and non-RREF rows, and unreduced offsets."""
        assert VectorSubspace(3, (0b011, 0, 0b001, 0b010)).rows == (0b001, 0b010)
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            for _ in range(40):
                rows = tuple(int(r) for r in rng.integers(0, 1 << n, int(rng.integers(0, n + 3))))
                direct = VectorSubspace(n, rows)
                assert direct == VectorSubspace.from_rows(n, rows)
                assert span_points(direct.rows, n) == span_points(rows, n)
                pivots = [lowest_set_bit(r) for r in direct.rows]
                assert pivots == sorted(set(pivots)) and 0 not in direct.rows
                assert all((r >> p) & 1 == (r == q)
                           for r in direct.rows for q, p in zip(direct.rows, pivots))
                off = int(rng.integers(0, 1 << n))
                w = AffineSubspace(n, direct, off)
                assert w == AffineSubspace(n, VectorSubspace(n, rows), off)
                assert all((w.offset >> p) & 1 == 0 for p in pivots)
                assert set(w.points()) == {off ^ p for p in span_points(rows, n)}
        for bad in ((0b1000,), (-1,)):
            with pytest.raises(ValueError):
                VectorSubspace(3, bad)
        for bad in (0b1000, -1):
            with pytest.raises(DimensionMismatch):
                AffineSubspace(3, VectorSubspace(3, ()), bad)

    def test_offset_reduced(self):
        for n in (2, 3):
            for w in all_affine_subspaces(n):
                for r in w.direction.rows:
                    assert (w.offset >> lowest_set_bit(r)) & 1 == 0

    def test_text_round_trip(self):
        """Every subspace at n = 0-4, and random ones up to n = 10."""
        rng = np.random.default_rng(8)
        for n in range(11):
            cases = all_affine_subspaces(n) if n <= 4 else [random_subspace(n, rng)
                                                             for _ in range(50)]
            for w in cases + [AffineSubspace.empty(n)]:
                assert parse_subspace(w.to_text(), n) == w
        assert AffineSubspace.full(0).to_text() == "|"
        assert AffineSubspace.empty(3).to_text() == "EMPTY"
        assert AffineSubspace.full(3).to_text() == "000|100,010,001"

    @pytest.mark.parametrize("text", ["000|1", "000|10", "000|1000", "000|100,01", "00|100"])
    def test_parse_rejects_wrong_length(self, text):
        with pytest.raises(DimensionMismatch, match="expected n=3"):
            parse_subspace(text, 3)


class TestIntersectHyperplane:
    def test_spec_examples(self):
        full = AffineSubspace.full(3)
        h = intersect_hyperplane(full, bv("100"), 0)
        assert h.dim == 2 and all(p & 1 == 0 for p in h.points())
        assert intersect_hyperplane(h, bv("100"), 1).is_empty
        assert intersect_hyperplane(h, bv("100"), 0) == h
        assert intersect_hyperplane(AffineSubspace.empty(3), bv("100"), 0).is_empty

    def test_vector_wider_than_n_rejected(self):
        for w in (AffineSubspace.full(3), AffineSubspace.empty(3)):
            for a in (0b1000, -1):
                with pytest.raises(DimensionMismatch):
                    intersect_hyperplane(w, a, 0)
                with pytest.raises(DimensionMismatch):
                    contains(w, a)

    def test_zero_vector(self):
        full = AffineSubspace.full(2)
        assert intersect_hyperplane(full, bv("00"), 0) == full
        assert intersect_hyperplane(full, bv("00"), 1).is_empty

    @pytest.mark.parametrize("n", [2, 3])
    def test_pointwise_exhaustive(self, n):
        for w in all_affine_subspaces(n):
            pts = set(w.points())
            for a in range(1 << n):
                for b in (0, 1):
                    got = intersect_hyperplane(w, a, b)
                    expected = {p for p in pts
                                if bin(p & a).count("1") % 2 == b}
                    assert set(got.points()) == expected
                    if expected:
                        base = min(expected)
                        hull = AffineSubspace(
                            n, VectorSubspace.from_rows(n, [p ^ base for p in expected]), base)
                        assert got == hull


class TestOrthogonalSpace:
    def test_trivial_cases(self):
        n = 3
        assert orthogonal_space(AffineSubspace.full(n)).dim == 0
        assert orthogonal_space(AffineSubspace.point(n, bv("101"))).dim == n

    def test_spec_example(self):
        w = intersect_hyperplane(AffineSubspace.full(3), bv("110"), 1)
        o = orthogonal_space(w)
        assert o.rows == (bv("110"),)

    def test_empty_raises(self):
        with pytest.raises(EmptySubspaceError):
            orthogonal_space(AffineSubspace.empty(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dim_complement_and_constancy(self, n):
        for w in all_affine_subspaces(n):
            o = orthogonal_space(w)
            assert o.dim + w.dim == n
            pts = w.points()
            for a in _span(0, o.rows):
                values = {bin(a & p).count("1") % 2 for p in pts}
                assert len(values) == 1


class TestContainsSubset:
    def test_examples(self):
        full = AffineSubspace.full(3)
        h0 = intersect_hyperplane(full, bv("100"), 0)
        h1 = intersect_hyperplane(full, bv("100"), 1)
        assert contains(full, bv("110"))
        assert not contains(h0, bv("100"))
        assert not contains(AffineSubspace.empty(3), bv("000"))
        assert is_subset(h0, full) and is_subset(h1, full)
        assert not is_subset(h0, h1)
        assert is_subset(AffineSubspace.empty(3), AffineSubspace.empty(3))
        assert is_subset(AffineSubspace.empty(3), h0)
        assert not is_subset(h0, AffineSubspace.empty(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_subset_matches_pointsets(self, n):
        subs = all_affine_subspaces(n)[:40]
        for w1 in subs:
            p1 = set(w1.points())
            for w2 in subs:
                assert is_subset(w1, w2) == (p1 <= set(w2.points()))


class TestSolveSystem:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_enumeration(self, n):
        rng = np.random.default_rng(3)
        for _ in range(60):
            eqs = [(int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)))
                   for _ in range(rng.integers(0, n + 2))]
            got = solve_affine_system(n, [a | b << n for a, b in eqs])
            expected = {x for x in range(1 << n)
                        if all(bin(x & a).count("1") % 2 == b for a, b in eqs)}
            assert set(got.points()) == expected


# Property tests: random subspaces up to n = 6 against point sets built
# from the same offset and generators, without canonical forms.
# Derandomized, so every run draws the same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def dot(a, x):
    return bin(a & x).count("1") & 1


@st.composite
def described_subspace(draw, n):
    """(w, its point set) for an affine subspace of {0,1}^n."""
    off = draw(st.integers(0, (1 << n) - 1))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    w = AffineSubspace(n, VectorSubspace.from_rows(n, gens), off)
    return w, {off ^ p for p in span_points(gens, n)}


@st.composite
def described_pair(draw):
    """Two subspaces of one {0,1}^n; half the time the first is built
    from points of the second, so containment is common."""
    n = draw(st.integers(1, 6))
    w2, pts2 = draw(described_subspace(n))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(sorted(pts2)), min_size=1, max_size=n + 1))
        base, gens = chosen[0], [p ^ chosen[0] for p in chosen[1:]]
        w1 = AffineSubspace(n, VectorSubspace.from_rows(n, gens), base)
        pts1 = {base ^ p for p in span_points(gens, n)}
    else:
        w1, pts1 = draw(described_subspace(n))
    return n, (w1, pts1), (w2, pts2)


class TestAgainstPointSets:
    @PROPERTY
    @given(st.data())
    def test_intersect_hyperplane(self, data):
        n = data.draw(st.integers(1, 6))
        w, pts = data.draw(described_subspace(n))
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, 1))
        got = intersect_hyperplane(w, a, b)
        expected = {x for x in pts if dot(a, x) == b}
        assert got.is_empty == (not expected)
        assert {x for x in range(1 << n) if contains(got, x)} == expected

    @PROPERTY
    @given(described_pair())
    def test_is_subset(self, pair):
        _, (w1, pts1), (w2, pts2) = pair
        assert is_subset(w1, w2) == (pts1 <= pts2)

    @PROPERTY
    @given(st.data())
    def test_orthogonal_space(self, data):
        n = data.draw(st.integers(1, 6))
        w, pts = data.draw(described_subspace(n))
        constant = {a for a in range(1 << n) if len({dot(a, x) for x in pts}) == 1}
        assert set(_span(0, orthogonal_space(w).rows)) == constant

    @PROPERTY
    @given(st.data())
    def test_text_round_trip(self, data):
        n = data.draw(st.integers(1, 6))
        w, pts = data.draw(described_subspace(n))
        back = parse_subspace(w.to_text(), n)
        assert back == w and back.to_text() == w.to_text()
        assert set(back.points()) == pts

    @PROPERTY
    @given(st.data())
    def test_hyperplane_keys(self, data):
        """2a + b is a key id of w exactly when w ⊆ {x : a.x = b}, a != 0."""
        n = data.draw(st.integers(1, 6))
        w, pts = data.draw(described_subspace(n))
        assert hyperplane_keys(w) == {(a << 1) | b for a in range(1, 1 << n) for b in (0, 1)
                                      if all(dot(a, x) == b for x in pts)}

    def test_hyperplane_keys_of_empty_raises(self):
        with pytest.raises(EmptySubspaceError):
            hyperplane_keys(AffineSubspace.empty(3))

    @PROPERTY
    @given(described_pair())
    def test_subset_is_key_inclusion(self, pair):
        _, (w1, pts1), (w2, pts2) = pair
        assert (hyperplane_keys(w2) <= hyperplane_keys(w1)) == (pts1 <= pts2)


@st.composite
def maybe_empty_subspace(draw, n):
    """An affine subspace of {0,1}^n, Empty one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return AffineSubspace.empty(n)
    return draw(described_subspace(n))[0]


class TestPointMasks:
    def test_hyperplane_masks_enumerated(self):
        for n in range(7):
            table = hyperplane_masks(n)
            assert len(table) == 1 << n
            for a, mask in enumerate(table):
                assert mask == sum(1 << x for x in range(1 << n) if dot(a, x) == 0)

    @PROPERTY
    @given(st.data())
    def test_against_subspace_operations(self, data):
        """The mask bit is contains; the mask of w ∩ {a.x = b} is the
        mask of w cut by the b side of hyperplane_masks[a]; and is_subset
        is mask inclusion, for a cut of w inside w and for a random pair."""
        n = data.draw(st.integers(0, 6))
        w = data.draw(maybe_empty_subspace(n))
        mask = point_mask(w)
        assert 0 <= mask < 1 << (1 << n)
        assert all((mask >> x) & 1 == contains(w, x) for x in range(1 << n))
        a = data.draw(st.integers(0, (1 << n) - 1))
        even = hyperplane_masks(n)[a]
        cuts = [intersect_hyperplane(w, a, b) for b in (0, 1)]
        assert [point_mask(cut) for cut in cuts] == [mask & even, mask & ~even]
        for w1, w2 in [(cuts[1], w), (w, cuts[0]), (w, data.draw(maybe_empty_subspace(n)))]:
            assert is_subset(w1, w2) == (point_mask(w1) & ~point_mask(w2) == 0)

    @PROPERTY
    @given(st.data())
    def test_key_id_conversions(self, data):
        """mask_keys, keys_mask and keys_subspace agree with
        hyperplane_keys and point_mask on non-empty subspaces, and
        edge_masks at id 2a + b is the mask of w ∩ {a.x = b}, Empty
        included."""
        n = data.draw(st.integers(0, 6))
        w = data.draw(maybe_empty_subspace(n))
        even = hyperplane_masks(n)
        mask = point_mask(w)
        assert edge_masks(mask, even) == [point_mask(intersect_hyperplane(w, a, b))
                                          for a in range(1 << n) for b in (0, 1)]
        if not w.is_empty:
            ids = hyperplane_keys(w)
            assert mask_keys(n, mask) == ids
            assert keys_mask(even, ids) == mask
            assert keys_subspace(n, ids) == w


# The per-process memos of label conversions, every one an lru_cache.
LABEL_MEMOS = (mask_keys, mask_subspace, point_mask, AffineSubspace.to_text, uniform_row)


def _memo_cosets(n):
    """Every non-empty coset of {0,1}^n up to n = 4, then 500 drawn ones."""
    if n <= 4:
        return all_affine_subspaces(n)
    rng = np.random.default_rng(n)
    return [random_subspace(n, rng) for _ in range(500)]


class TestLabelMemos:
    """The per-process memos of gf2 and distributions against their
    uncached references in oracles.py and the package's keys_subspace
    and uniform_weights."""

    def test_equal_to_references(self):
        """From empty tables, n = 1…6 in one process: a memo keyed on the
        mask alone would hand one n's value to another (the mask 0b11 is
        the full space at n = 1 and a line at n = 2)."""
        for memo in LABEL_MEMOS:
            memo.cache_clear()
        for n in range(1, 7):
            for w in [*_memo_cosets(n), AffineSubspace.empty(n)]:
                mask = uncached_point_mask(w)
                assert point_mask(w) == mask
                assert w.to_text() == uncached_to_text(w)
                assert uniform_row(w).tolist() == uniform_weights(w).tolist()
                if not w.is_empty:
                    ids = loop_mask_keys(n, mask)
                    assert mask_keys(n, mask) == ids
                    assert mask_subspace(n, mask) == keys_subspace(n, ids) == w

    def test_values_are_immutable(self):
        w = AffineSubspace(4, VectorSubspace.from_rows(4, [0b0011, 0b0110]), 0b1000)
        mask = point_mask(w)
        assert type(mask) is int
        assert type(mask_keys(4, mask)) is frozenset
        assert type(w.to_text()) is str
        rep = mask_subspace(4, mask)
        assert type(rep.direction.rows) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.offset = 0
        row = uniform_row(w)
        assert row.flags.writeable is False
        with pytest.raises(ValueError):
            row[0] = 1.0
        assert uniform_rows([w, w]).flags.writeable  # a fresh stack of the rows

    def test_filled_n4_tables_stay_small(self):
        """All five tables holding every subspace of {0,1}^4 at once take
        under 1 MiB (gf2.LABEL_MEMO states the bound)."""
        cosets = [*all_affine_subspaces(4), AffineSubspace.empty(4)]
        masks = [uncached_point_mask(w) for w in cosets]
        for memo in LABEL_MEMOS:
            memo.cache_clear()
        tracemalloc.start()
        try:
            for w, mask in zip(cosets, masks):
                point_mask(w)
                w.to_text()
                uniform_row(w)
                if mask:
                    mask_keys(4, mask)
                    mask_subspace(4, mask)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cosets) == 308 <= LABEL_MEMO
        assert [memo.cache_info().currsize for memo in LABEL_MEMOS] == [307, 307, 308, 308, 308]
        assert size < 1 << 20
