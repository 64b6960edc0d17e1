import itertools
import math
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_same_partition,
    conditional_l1_to_uniform,
    assert_same_reduction,
    lift_back,
    object_reduce,
    per_round_partition_ids,
    project_out,
    representatives_with_dim_at_least,
    tuple_build_partition,
    tuple_find_rep,
    tuple_keys,
    tuple_project_keys,
)

from paritylab import partition
from paritylab.bp import BranchingProgram
from paritylab.distributions import (
    SubspaceMixture,
    heaviest_hyperplane,
    hyperplane_mass,
    l1_distance,
    mixture_distribution,
    uniform_weights,
)
from paritylab.generators import derived_rng, random_mixture, random_subspace
from paritylab.gf2 import (
    AffineSubspace,
    BitVector,
    VectorSubspace,
    hyperplane_keys,
    intersect_hyperplane,
    is_subset,
    point_mask,
)
from paritylab.partition import (
    _partition_ids,
    build_partition,
    exponent_sum,
    find_representative_subspace,
    group_count_bound,
)
from paritylab.reduction import reduce_to_affine
from paritylab.suites import R_FRACS, _cells, _group_distances, _group_rows


def bv(text):
    """The packed int of a 0/1 string, coordinate 1 leftmost."""
    return BitVector.from_string(text).bits


def half_space(n, a_text, b):
    return intersect_hyperplane(AffineSubspace.full(n), bv(a_text), b)


def point_cloud_mixture(n):
    return SubspaceMixture(n, tuple(
        (AffineSubspace.point(n, z), 2.0 ** (-n)) for z in range(1 << n)))


def shaped_program(n, sizes, rng):
    """Random transitions between layers of the given sizes and random
    last-layer labels, the shape of the benchmark's reduce jobs."""
    deg = 1 << (n + 1)
    m = len(sizes) - 1
    transitions = tuple(tuple(tuple(int(v) for v in rng.integers(0, sizes[t + 1], deg))
                              for _ in range(sizes[t]))
                        for t in range(m))
    labels = {(m, v): random_subspace(n, rng) for v in range(sizes[m])}
    return BranchingProgram(n, m, tuple(sizes), transitions, labels)


def distinct_subspaces(n, count, rng):
    ws = []
    while len(ws) < count:
        w = random_subspace(n, rng)
        if w not in ws:
            ws.append(w)
    return ws


def decimal_mixture(n, rng, count=8):
    """Distinct random subspaces with masses k/10 normalized: sums of
    such masses round, so their value depends on the summation order."""
    ws = distinct_subspaces(n, count, rng)
    ps = [int(k) / 10 for k in rng.integers(1, 4, len(ws))]
    total = sum(ps)
    return SubspaceMixture(n, tuple((w, p / total) for w, p in zip(ws, ps)))


def with_masses(members, masses):
    total = sum(masses)
    return SubspaceMixture(members[0].n, tuple((w, p / total) for w, p in zip(members, masses)))


class TestConcentration:
    def test_concentrated_on_hyperplane(self):
        n = 3
        mix = SubspaceMixture(n, ((half_space(n, "100", 1), 1.0),))
        assert heaviest_hyperplane(hyperplane_mass(mix)) == (bv("100") << 1 | 1, 1.0)

    def test_full_space_returns_smallest(self):
        n = 3
        mix = SubspaceMixture(n, ((AffineSubspace.full(n), 1.0),))
        assert heaviest_hyperplane(hyperplane_mass(mix)) == (bv("100") << 1, 0.0)

    def test_tie_breaking(self):
        mix = SubspaceMixture(2, ((half_space(2, "10", 0), 0.5),
                                  (half_space(2, "11", 0), 0.5)))
        assert heaviest_hyperplane(hyperplane_mass(mix)) == (bv("10") << 1, 0.5)

    def test_matches_exhaustive_maximum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            mix = random_mixture(n, rng, max_members=6)
            _, p = heaviest_hyperplane(hyperplane_mass(mix))
            best = 0.0
            for a_bits in range(1, 1 << n):
                for bb in (0, 1):
                    h = intersect_hyperplane(AffineSubspace.full(n), a_bits, bb)
                    best = max(best, sum(q for w, q in mix.support if is_subset(w, h)))
            assert p == pytest.approx(best, abs=1e-12)


class TestProjectLift:
    """The tuple oracle's coordinate projection: a bijection onto its
    image that keeps dimensions and maps keys as tuple_project_keys says."""

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a_bits = int(rng.integers(1, 1 << n))
            b = int(rng.integers(0, 2))
            w = random_subspace(n, rng)
            w = intersect_hyperplane(w, a_bits, b)
            if w.is_empty:
                continue
            pivot = (a_bits & -a_bits).bit_length() - 1
            down = project_out(w, pivot)
            assert down.dim == w.dim
            assert tuple_keys(down) == tuple_project_keys(tuple_keys(w), pivot)
            back = lift_back(down, a_bits, b, pivot)
            assert back == w


class TestFindRepresentative:
    def test_point_mass(self):
        n = 3
        w = half_space(n, "110", 1)
        mix = SubspaceMixture(n, ((w, 1.0),))
        s, cond, mass = find_representative_subspace(mix, float(n))
        assert s == w and mass == 1.0
        assert cond.support == mix.support

    def test_uniform_point_cloud_trace(self):
        """All-points mixture at n=3, r=3: every level sees concentration
        1/2 above the threshold, so the recursion descends to a single
        point; both posted inequalities hold."""
        n = 3
        mix = point_cloud_mixture(n)
        s, cond, mass = find_representative_subspace(mix, 3.0)
        assert s == AffineSubspace.point(3, 0)
        assert mass == pytest.approx(2.0 ** (-n))
        drop = n - s.dim
        assert mass >= 2.0 ** (-exponent_sum(3.0, drop)) - 1e-12
        uw = l1_distance(mixture_distribution(cond), uniform_weights(s))
        assert uw < 2.0 ** (-(3.0 - n / 2)) + 1e-12

    def test_zero_dimension_base_case(self):
        mix = SubspaceMixture(0, ((AffineSubspace.full(0), 1.0),))
        s, cond, mass = find_representative_subspace(mix, 0.0)
        assert s == AffineSubspace.full(0) and mass == 1.0

    def test_parameter_error(self):
        mix = SubspaceMixture(2, ((AffineSubspace.full(2), 1.0),))
        with pytest.raises(ValueError):
            find_representative_subspace(mix, 0.5)

    def test_posted_inequalities_random(self):
        rng = np.random.default_rng(2)
        for i in range(60):
            n = int(rng.integers(1, 5))
            r = (0.5, 0.75, 1.0)[i % 3] * n
            mix = random_mixture(n, rng)
            s, cond, mass = find_representative_subspace(mix, r)
            drop = n - s.dim
            assert mass >= 2.0 ** (-exponent_sum(r, drop)) - 1e-12
            dist = l1_distance(mixture_distribution(cond), uniform_weights(s))
            assert dist < 2.0 ** (-(r - n / 2)) + 1e-12

    def test_matches_tuple_oracle(self):
        """The representative is the tuple recursion's, and the conditioned
        mixture and its mass equal the is_subset restriction, floats with
        ==, in member order."""
        rng = np.random.default_rng(13)
        for i in range(180):
            n = 1 + i % 6
            mix = random_mixture(n, rng)
            keys = [tuple_keys(w) for w, _ in mix.support]
            probs = [p for _, p in mix.support]
            for r in (n / 2, 0.75 * n, float(n), n + 1.0):
                s, cond, mass = find_representative_subspace(mix, r)
                assert s == tuple_find_rep(n, keys, probs, r)
                kept = [(w, p) for w, p in mix.support if is_subset(w, s)]
                assert mass == sum(p for _, p in kept)
                assert cond.support == tuple((w, p / mass) for w, p in kept)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        mix = random_mixture(4, rng)
        out1 = find_representative_subspace(mix, 3.0)
        out2 = find_representative_subspace(mix, 3.0)
        assert out1 == out2


class TestBuildPartition:
    def test_point_mass(self):
        w = half_space(3, "101", 0)
        mix = SubspaceMixture(3, ((w, 1.0),))
        part = build_partition(mix, 3.0)
        assert len(part.groups) == 1
        assert part.groups[0].representative == w
        assert part.groups[0].members == (w,)
        assert part.residual_mass == 0.0

    def test_two_complementary_hyperplanes(self):
        n = 3
        mix = SubspaceMixture(n, ((half_space(n, "100", 0), 0.5),
                                  (half_space(n, "100", 1), 0.5)))
        part = build_partition(mix, float(n))
        assert len(part.groups) == 2
        assert {g.representative for g in part.groups} == set(w for w, _ in mix.support)
        assert part.residual_mass == 0.0

    def test_assign_follows_round_order(self):
        n = 3
        mix = SubspaceMixture(n, ((half_space(n, "100", 0), 0.5),
                                  (half_space(n, "100", 1), 0.5)))
        part = build_partition(mix, float(n))
        inner = intersect_hyperplane(part.groups[0].representative, bv("010"), 0)
        assert part.assign(inner) == part.groups[0].representative
        outside = AffineSubspace.full(n)
        assert part.assign(outside) is None

    @pytest.mark.parametrize("r_frac", [0.5, 0.75, 1.0])
    def test_all_properties_random(self, r_frac):
        rng = np.random.default_rng(int(r_frac * 100))
        for _ in range(25):
            n = int(rng.integers(2, 6))
            r = r_frac * n
            mix = random_mixture(n, rng)
            part = build_partition(mix, r)
            # property 1: residual
            assert part.residual_mass <= 2.0 ** (-2 * n) + 1e-12
            # property 2: members inside their representative
            for g in part.groups:
                assert all(is_subset(w, g.representative) for w in g.members)
            # property 3: strict per-group closeness
            for g in part.groups:
                assert conditional_l1_to_uniform(g) < 2.0 ** (-(r - n / 2)) + 1e-12
            # property 4: representative counts per dimension
            for k in range(n + 1):
                assert (representatives_with_dim_at_least(part, k)
                        <= group_count_bound(n, r, k) + 1e-12)
            # bookkeeping: no member in two groups, none lost
            seen = [w for g in part.groups for w in g.members]
            seen += [w for w, _ in part.residual]
            assert len(seen) == len(set(seen)) == len(mix.support)
            # representatives pairwise distinct
            reps = [g.representative for g in part.groups]
            assert len(reps) == len(set(reps))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
           r_frac=st.sampled_from([0.5, 0.75, 1.0]))
    def test_sigma_is_earliest_containing_representative(self, seed, n, r_frac):
        """Every member of group i lies in representative i and in no
        earlier one, every residual member in none, and assign agrees."""
        mix = random_mixture(n, np.random.default_rng(seed), max_members=16)
        part = build_partition(mix, r_frac * n)
        reps = [g.representative for g in part.groups]
        for i, g in enumerate(part.groups):
            for w in g.members:
                assert [is_subset(w, s) for s in reps[:i + 1]] == [False] * i + [True]
                assert part.assign(w) == reps[i]
        for w, _ in part.residual:
            assert not any(is_subset(w, s) for s in reps)
            assert part.assign(w) is None

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        mix = random_mixture(4, rng)
        p1 = build_partition(mix, 3.0)
        p2 = build_partition(mix, 3.0)
        assert p1 == p2

    def test_parameter_error(self):
        mix = SubspaceMixture(2, ((AffineSubspace.full(2), 1.0),))
        with pytest.raises(ValueError):
            build_partition(mix, 0.9)


def check_rounds(n, keys, probs, r):
    """Both level-0 forms give the per-round core's rounds: the same
    chosen key ids and taken members in every round, and the same
    residual.  A zero size threshold puts every member set with a key id
    on the running table."""
    expected = per_round_partition_ids(n, keys, probs, r)
    assert _partition_ids(n, keys, probs, r) == expected
    with mock.patch.object(partition, "_TABLE_MIN_IDS", 0):
        assert _partition_ids(n, keys, probs, r) == expected


def check_partition(mix, r):
    assert_same_partition(build_partition(mix, r), tuple_build_partition(mix, r))
    check_rounds(mix.n, [hyperplane_keys(w) for w, _ in mix.support],
                 [p for _, p in mix.support], r)


class TestPartitionOracle:
    """build_partition on int key ids, recursing in the original
    coordinates, against the tuple keyed dict tables and projections:
    same groups, float for float; and its core's rounds against the
    per-round core's."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_mixtures(self, n):
        rng = np.random.default_rng(100 + n)
        for i in range(24):
            check_partition(random_mixture(n, rng, max_members=12), (0.5, 0.75, 1.0)[i % 3] * n)

    @pytest.mark.parametrize("sizes", [(1, 4, 4, 4), (1, 6, 6, 6)])
    def test_heavy_reduction_mixtures(self, sizes):
        """Every per-vertex mixture of two heavy-shaped reductions, taken
        from the subspace-keyed reference loop, whose output the mask
        reduction reproduces."""
        bp = shaped_program(4, sizes, np.random.default_rng(sum(sizes)))
        ref = object_reduce(bp, 4.0)
        assert_same_reduction(reduce_to_affine(bp, 4.0), ref)
        assert len(ref.partitions) == sum(sizes[1:])
        assert max(len(mix.support) for mix, _ in ref.partitions) > 100
        for mix, part in ref.partitions:
            assert_same_partition(build_partition(mix, 4.0), part)
            check_rounds(4, [hyperplane_keys(w) for w, _ in mix.support],
                         [p for _, p in mix.support], 4.0)

    @pytest.mark.parametrize("seed", [7, 47])
    def test_group_distance_matches_conditional_mixture(self, seed):
        """The partition suite's group distances, tabulated on point masks
        from the members and p / mass, one row per group, equal the
        distance through the validated conditional mixture, float for
        float, on the suite's instances."""
        rng = derived_rng(seed, 2)
        groups = 0
        for n, r in _cells(100, (2, 3, 4, 5), R_FRACS, None):
            part = build_partition(random_mixture(n, rng), r)
            reps = [point_mask(g.representative) for g in part.groups]
            members = [[(w.points(), p) for w, p in zip(g.members, g.probabilities)]
                       for g in part.groups]
            dims = [g.representative.dim for g in part.groups]
            table = array("d")
            _group_rows(n, members, table)
            assert (_group_distances(n, table, reps, dims)
                    == [conditional_l1_to_uniform(g) for g in part.groups])
            groups += len(part.groups)
        assert groups > 300

    @pytest.mark.parametrize("members,r", [
        # (a, 0) and (a, 1) tie; b = 0 is taken first
        ([("100", 0, 0.5), ("100", 1, 0.5)], 3.0),
        # the larger a comes first in member order; the smaller a wins
        ([("011", 0, 0.5), ("100", 0, 0.5)], 3.0),
        ([("0011", 1, 0.25), ("0110", 0, 0.25), ("1000", 1, 0.25), ("0100", 0, 0.25)], 4.0),
        # the heaviest key sits exactly at the threshold 2^-r
        ([("10", 0, 0.25), ("01", 0, 0.25), ("11", 1, 0.25), ("10", 1, 0.25)], 2.0),
    ])
    def test_constructed_ties(self, members, r):
        n = len(members[0][0])
        mix = SubspaceMixture(n, tuple((half_space(n, a, b), p) for a, b, p in members))
        top = sorted(hyperplane_mass(mix))
        assert top[-1] == top[-2]
        check_partition(mix, r)

    def test_member_sums_that_round(self):
        rng = np.random.default_rng(9)
        order_sensitive = 0
        for i in range(60):
            n = 3 + i % 2
            mix = decimal_mixture(n, rng)
            flipped = SubspaceMixture(n, mix.support[::-1])
            for r in (n / 2, 0.75 * n, float(n)):
                check_partition(mix, r)
                order_sensitive += (find_representative_subspace(mix, r)[0]
                                    != find_representative_subspace(flipped, r)[0])
        assert order_sensitive > 0


@pytest.fixture
def table_tops(monkeypatch):
    """The float top of every round that runs on the running table."""
    tops = []
    original = partition._RunningTable.first_max

    def recorded(self, *args):
        out = original(self, *args)
        tops.append(out[0])
        return out

    monkeypatch.setattr(partition._RunningTable, "first_max", recorded)
    return tops


@pytest.fixture
def tables_built(monkeypatch):
    """The (n, member count) of every _RunningTable built."""
    built = []
    original = partition._RunningTable.__init__

    def recorded(self, n, keys, masses):
        built.append((n, len(keys)))
        original(self, n, keys, masses)

    monkeypatch.setattr(partition._RunningTable, "__init__", recorded)
    return built


class TestRunningTable:
    """Large member sets keep one exact int table and re-sum only the
    cells that can hold the float first maximum; these cases stress that
    choice against the per-round core and the tuple oracle (check_rounds
    also forces the table on every member set), and check that rounds on
    the table ran."""

    def test_size_picks_the_table(self, tables_built):
        """The table is built once the members hold more than
        _TABLE_MIN_IDS * 2^(n+1) key ids: at n = 4, 8 points hold 120 of
        the 128 allowed, 9 points 135."""
        n = 4
        assert partition._TABLE_MIN_IDS << (n + 1) == 128
        for count in (8, 9):
            keys = [hyperplane_keys(AffineSubspace.point(n, z)) for z in range(count)]
            _partition_ids(n, keys, [1.0 / count] * count, 3.0)
        assert tables_built == [(4, 9)]

    def test_heavy_reduction_mixtures_use_the_table(self, tables_built):
        """The benchmark's heavy reductions put their large partitions on
        the table at the default threshold."""
        bp = shaped_program(4, (1, 6, 6, 6), np.random.default_rng(19))
        reduce_to_affine(bp, 4.0)
        assert max(count for _, count in tables_built) > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_shape_one_member_per_round(self, seed, tables_built):
        """The heavy reductions' shape: n = 4, hundreds of members, and
        most rounds taking one member, so a member's key ids clear of a
        pivot bit serve many rounds.  Every affine subspace of dimension
        at most 2 (276 members) with skewed masses, on the running table,
        against the per-round core."""
        n = 4
        ws = sorted({AffineSubspace(n, VectorSubspace.from_rows(n, rows), z)
                     for d in range(3) for rows in itertools.combinations(range(1, 1 << n), d)
                     for z in range(1 << n)}, key=AffineSubspace.to_text)
        assert len(ws) == 16 + 120 + 140
        weights = np.random.default_rng(300 + seed).random(len(ws)) ** 3
        keys, probs = [hyperplane_keys(w) for w in ws], (weights / weights.sum()).tolist()
        check_rounds(n, keys, probs, float(n))
        assert tables_built == [(n, len(ws))] * 2
        rounds, _ = _partition_ids(n, keys, probs, float(n))
        assert len(rounds) > len(ws) / 2
        assert sum(len(taken) == 1 for _, taken in rounds) > len(rounds) / 2

    def test_dominant_member_ties(self, table_tops):
        """A heavy point lies in 2^n - 1 hyperplanes, every one of them
        holding the top mass, exactly tied where no light member adds to
        it.  Two heavy points: the second one's ties meet the table."""
        rng = np.random.default_rng(21)
        for i in range(30):
            n = 3 + i % 3
            ws = distinct_subspaces(n, 10, rng)
            points = [AffineSubspace.point(n, z) for z in range(1 << n)]
            heavy = [w for w in points if w not in ws][:2]
            mix = with_masses(heavy + ws, [0.45, 0.45] + [0.1 / len(ws)] * len(ws))
            for r in (n / 2, 0.75 * n, float(n), 2.0 * n):
                check_partition(mix, r)
        assert table_tops

    def test_top_within_one_ulp_of_threshold(self, table_tops):
        """r put so that 2^-r is a table round's top or one of its float
        neighbours: the cut meets the same float."""
        rng = np.random.default_rng(23)
        hits = set()
        for i in range(30):
            n = 3 + i % 2
            mix = decimal_mixture(n, rng, count=16)
            table_tops.clear()
            check_partition(mix, float(n))
            for top in {t for t in table_tops if t > 0.0}:
                for x in (top, math.nextafter(top, 0.0), math.nextafter(top, 1.0)):
                    r = -math.log2(x)
                    for cand in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
                        if not n / 2 <= cand <= 2 * n:
                            continue
                        table_tops.clear()
                        check_partition(mix, cand)
                        for t in table_tops:
                            gap = 2.0 ** (-cand) - t
                            if abs(gap) <= math.ulp(t):
                                hits.add((gap > 0) - (gap < 0))
        assert hits == {-1, 0, 1}

    def test_wide_common_denominator(self, table_tops):
        """Masses 2^-60 apart: exact cell sums differ below the floats'
        last place, so the exactly larger cell can lose a float tie.  A
        heavy point goes in the first round; the two half spaces tie in a
        table round, one of them 2^-60 heavier through a line inside it."""
        n = 3
        a_line = intersect_hyperplane(half_space(n, "100", 0), bv("001"), 0)
        b_line = intersect_hyperplane(half_space(n, "010", 0), bv("001"), 1)
        others = [AffineSubspace.point(n, bv("111")), AffineSubspace.point(n, bv("110"))]
        for tiny in (a_line, b_line):
            members = [AffineSubspace.point(n, bv("101")), half_space(n, "100", 0),
                       half_space(n, "010", 0), tiny] + others
            mix = with_masses(members, [1.0, 0.5, 0.5, 2.0 ** -60, 0.01, 0.01])
            for r in (1.5, 2.0, 3.0):
                table_tops.clear()
                check_partition(mix, r)
                assert table_tops
        rng = np.random.default_rng(29)
        for i in range(40):
            n = 2 + i % 4
            ws = distinct_subspaces(n, 8, rng)
            exps = rng.integers(0, 61, len(ws))
            mix = with_masses(ws, [1.0 + 2.0 ** -int(e) if e % 2 else 2.0 ** -int(e)
                                   for e in exps])
            for r in (n / 2, 0.75 * n, float(n)):
                check_partition(mix, r)

    def test_keyless_members(self):
        """Members with no keys (the full space) leave every cell at 0:
        one round takes them all under the full space."""
        check_rounds(3, [frozenset()] * 3, [0.5, 0.25, 0.25], 3.0)
        assert _partition_ids(3, [frozenset()] * 3, [0.5, 0.25, 0.25], 3.0) == \
            ([([], [0, 1, 2])], [])
        check_partition(SubspaceMixture(3, ((AffineSubspace.full(3), 1.0),)), 3.0)

    def test_subnormal_quotients_retabulate(self, tables_built, monkeypatch):
        """A mass below 2^-1000 of the total can give a subnormal quotient,
        outside the relative bound: such member sets re-tabulate level 0
        every round, even where their size would pick the table."""
        monkeypatch.setattr(partition, "_TABLE_MIN_IDS", 0)
        rng = np.random.default_rng(31)
        for i in range(12):
            n = 2 + i % 3
            ws = distinct_subspaces(n, 10, rng)
            masses = [float(p) for p in rng.random(len(ws)) + 0.05]
            tiny = int(rng.integers(0, len(ws)))
            for p in (2.0 ** -1060, 2.0 ** -990):
                masses[tiny] = p
                mix = with_masses(ws, masses)
                tables_built.clear()
                for r in (n / 2, float(n)):
                    check_partition(mix, r)
                assert bool(tables_built) == (p > 2.0 ** -1000)


class TestGeometricSum:
    def test_values(self):
        assert exponent_sum(3.0, 3) == 3 * 3 - 3 * 2 / 4  # 3 + 2.5 + 2
        assert exponent_sum(2.0, 0) == 0.0
        assert math.isclose(exponent_sum(2.5, 2), 2.5 + 2.0)
