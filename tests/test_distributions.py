import numpy as np
import pytest

from paritylab.distributions import (
    SLACK,
    BoundCheck,
    SubspaceMixture,
    check_fourier_closeness,
    hyperplane_mass,
    l1_distance,
    mixture_distribution,
    uniform_weights,
    walsh_transform,
)
from paritylab.generators import random_hypothesis_mixture, random_mixture
from paritylab.gf2 import (
    AffineSubspace,
    BitVector,
    DimensionMismatch,
    EmptySubspaceError,
    intersect_hyperplane,
    is_subset,
)
from paritylab.suites import fourier_suite

from oracles import block_walsh_transform


def bv(text):
    """The packed int of a 0/1 string, coordinate 1 leftmost."""
    return BitVector.from_string(text).bits


def half_space(n, a_text, b):
    return intersect_hyperplane(AffineSubspace.full(n), bv(a_text), b)


class TestUniformWeights:
    def test_full(self):
        assert np.allclose(uniform_weights(AffineSubspace.full(2)), 0.25)

    def test_point(self):
        u = uniform_weights(AffineSubspace.point(2, bv("01")))
        assert u[2] == 1.0 and u.sum() == 1.0

    def test_half(self):
        u = uniform_weights(half_space(2, "10", 1))
        assert list(u) == [0.0, 0.5, 0.0, 0.5]

    def test_empty_is_zero(self):
        assert list(uniform_weights(AffineSubspace.empty(2))) == [0.0] * 4


class TestMixture:
    def test_single_element(self):
        w = half_space(2, "11", 0)
        mix = SubspaceMixture(2, ((w, 1.0),))
        assert np.allclose(mixture_distribution(mix), uniform_weights(w))

    def test_complementary_halves(self):
        mix = SubspaceMixture(1, ((half_space(1, "1", 0), 0.5),
                                  (half_space(1, "1", 1), 0.5)))
        assert np.allclose(mixture_distribution(mix), 0.5)

    def test_point_plus_full(self):
        mix = SubspaceMixture(2, ((AffineSubspace.point(2, bv("00")), 0.5),
                                  (AffineSubspace.full(2), 0.5)))
        assert list(mixture_distribution(mix)) == [0.625, 0.125, 0.125, 0.125]

    def test_validation(self):
        with pytest.raises(ValueError):
            SubspaceMixture(2, ((AffineSubspace.full(2), 0.5),))  # mass != 1
        with pytest.raises(ValueError):
            SubspaceMixture(2, ((AffineSubspace.full(2), 0.5),
                                (AffineSubspace.full(2), 0.5)))  # duplicate
        with pytest.raises(EmptySubspaceError):
            SubspaceMixture(2, ((AffineSubspace.empty(2), 1.0),))

    @pytest.mark.parametrize("support, error, message", [
        ((), ValueError, "mixture support must be non-empty"),
        (((AffineSubspace.full(3), 1.0),), DimensionMismatch, "3 != 2"),
        (((AffineSubspace.full(2), 1.0), (AffineSubspace.point(2, 0), 0.0)), ValueError,
         "probabilities must be positive, got 0.0"),
        (((AffineSubspace.full(2), 1.5), (AffineSubspace.point(2, 0), -0.5)), ValueError,
         r"probabilities must be positive, got -0\.5"),
    ], ids=["empty", "n-mismatch", "zero", "negative"])
    def test_validation_messages(self, support, error, message):
        with pytest.raises(error, match=message):
            SubspaceMixture(2, support)

    def test_from_pairs_skips_zero_weights(self):
        """A zero weight is dropped before duplicates merge and the rest
        is normalized: it leaves no member behind."""
        full, point = AffineSubspace.full(2), AffineSubspace.point(2, 0)
        mix = SubspaceMixture.from_pairs(2, [(point, 0.0), (full, 1.0), (point, 1.0),
                                             (full, 2.0)])
        assert mix.support == ((full, 0.75), (point, 0.25))

    @pytest.mark.parametrize("pairs", [[], [(AffineSubspace.full(2), 0.0)]], ids=["none", "zero"])
    def test_from_pairs_without_mass(self, pairs):
        with pytest.raises(ValueError, match="mixture has no mass"):
            SubspaceMixture.from_pairs(2, pairs)


class TestL1:
    def test_identical(self):
        u = uniform_weights(AffineSubspace.full(3))
        assert l1_distance(u, u) == 0.0

    def test_disjoint_points(self):
        p = uniform_weights(AffineSubspace.point(2, bv("00")))
        q = uniform_weights(AffineSubspace.point(2, bv("11")))
        assert l1_distance(p, q) == 2.0

    def test_half_vs_uniform(self):
        assert l1_distance(uniform_weights(half_space(2, "10", 0)),
                           uniform_weights(AffineSubspace.full(2))) == 1.0

    def test_triangle_and_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ps = []
            for _ in range(3):
                w = rng.random(8) + 0.01
                ps.append(w / w.sum())
            a, b, c = ps
            assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))
            assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        """Tables of different n would broadcast; they are refused."""
        with pytest.raises(DimensionMismatch):
            l1_distance(uniform_weights(AffineSubspace.full(1)),
                        uniform_weights(AffineSubspace.full(2)))


class TestWalsh:
    def test_uniform_is_delta(self):
        for n in (1, 3, 5):
            f = walsh_transform(uniform_weights(AffineSubspace.full(n)))
            assert f[0] == pytest.approx(2.0 ** (-n))
            assert np.allclose(f[1:], 0.0)

    def test_half_space_coefficients(self):
        f = walsh_transform(uniform_weights(half_space(2, "10", 1)))
        assert list(f) == [0.25, -0.25, 0.0, 0.0]

    def test_point_mass_at_zero(self):
        n = 3
        f = walsh_transform(uniform_weights(AffineSubspace.point(n, 0)))
        assert np.allclose(f, 2.0 ** (-n))

    def test_subspace_coefficient_structure(self):
        # constant value b on w shows up as (-1)^b * 2^{-n} on the
        # orthogonal directions, zero elsewhere
        n = 3
        w = half_space(n, "011", 1)
        f = walsh_transform(uniform_weights(w))
        assert f[bv("011")] == pytest.approx(-2.0 ** (-n))
        assert f[0] == pytest.approx(2.0 ** (-n))

    def test_parseval(self):
        rng = np.random.default_rng(10)
        for n in (2, 5):
            w = rng.random(1 << n) + 0.01
            p = w / w.sum()
            f = walsh_transform(p)
            assert np.sum(f ** 2) == pytest.approx(
                2.0 ** (-n) * np.sum(p ** 2))

    def test_matches_block_butterfly(self):
        """Bit for bit the per-block reference, n = 0..10."""
        rng = np.random.default_rng(13)
        for n in range(11):
            for _ in range(50):
                p = rng.random(1 << n)
                assert np.array_equal(walsh_transform(p), block_walsh_transform(p))

    @pytest.mark.parametrize("size", [0, 3, 6, 12])
    def test_length_not_power_of_two(self, size):
        with pytest.raises(ValueError):
            walsh_transform(np.ones(size))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_for_hyperplane_mass(self, n):
        """2^n c(a) = mass(a, 0) - mass(a, 1) for a subspace mixture."""
        rng = np.random.default_rng(20 + n)
        for _ in range(10):
            mix = random_mixture(n, rng)
            f = walsh_transform(mixture_distribution(mix)) * 2.0 ** n
            mass = hyperplane_mass(mix)
            for a in range(1, 1 << n):
                assert abs(f[a] - (mass[a << 1] - mass[(a << 1) | 1])) <= 1e-12


class TestBoundCheck:
    def test_upper_edge(self):
        bound = 0.25
        edge = bound + SLACK
        assert BoundCheck("u", edge, bound, True).ok
        assert not BoundCheck("u", np.nextafter(edge, np.inf), bound, True).ok

    def test_lower_edge(self):
        bound = 0.25
        edge = bound - SLACK
        assert BoundCheck("l", edge, bound, True, lower=True).ok
        assert not BoundCheck("l", np.nextafter(edge, -np.inf), bound, True, lower=True).ok

    def test_margin_is_room_in_both_directions(self):
        assert BoundCheck("u", 0.25, 1.0, True).margin == 0.75
        assert BoundCheck("u", 1.0, 0.25, True).margin == -0.75
        assert BoundCheck("l", 1.0, 0.25, True, lower=True).margin == 0.75
        assert BoundCheck("l", 0.25, 1.0, True, lower=True).margin == -0.75


class TestFourierCloseness:
    def test_point_mass_on_full(self):
        mix = SubspaceMixture(3, ((AffineSubspace.full(3), 1.0),))
        check = check_fourier_closeness(mix, 3.0)
        assert check.hypothesis_holds and check.closeness.measured == 0.0

    def test_closeness_row_binds(self):
        """r = n/2 gives the largest bound check_r allows, 1, still below
        the l1 ceiling of 2."""
        mix = SubspaceMixture(4, ((AffineSubspace.full(4), 1.0),))
        for r in (2.0, 3.0, 4.0):
            row = check_fourier_closeness(mix, r).closeness
            assert row.bound == 2.0 ** (-(r - 2.0)) and row.binding and row.ok
            assert row.margin == row.bound

    def test_hyperplane_mass_fails(self):
        n = 3
        mix = SubspaceMixture(n, ((half_space(n, "100", 0), 1.0),))
        check = check_fourier_closeness(mix, float(n))
        assert not check.hypothesis_holds
        assert check.max_concentration == 1.0

    def test_parameter_error(self):
        mix = SubspaceMixture(3, ((AffineSubspace.full(3), 1.0),))
        with pytest.raises(ValueError):
            check_fourier_closeness(mix, 1.0)

    def test_random_hypothesis_instances(self):
        rng = np.random.default_rng(11)
        for i in range(60):
            n = 3 + i % 4
            r = (0.5, 0.75, 1.0)[i % 3] * n
            mix = random_hypothesis_mixture(n, r, rng)
            check = check_fourier_closeness(mix, r)
            assert check.hypothesis_holds
            assert check.closeness.measured < check.closeness.bound + 1e-12

    def test_hypothesis_instances_at_n1(self):
        """n = 1 has only three subspaces, fewer than a mixture may ask for."""
        rep = fourier_suite(12, 1, ns=(1,))
        assert rep["count"] == 12 and rep["ok"]

    def test_hyperplane_mass_against_subset_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            mix = random_mixture(n, rng, max_members=5)
            table = hyperplane_mass(mix)
            assert len(table) == 2 << n and table[:2] == [0.0, 0.0]
            for a in range(1, 1 << n):
                for b in (0, 1):
                    expected = sum(
                        p for w, p in mix.support
                        if is_subset(w, intersect_hyperplane(AffineSubspace.full(n), a, b)))
                    assert table[(a << 1) | b] == pytest.approx(expected, abs=1e-12)
