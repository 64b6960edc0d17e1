"""The property suites' failure entries, and the Fourier and partition
suites against their references.

The suites pass on the package as it is, so each failure branch is
forced here by replacing the collaborator the suite calls
(the partition suite's draw and partition core, reduce_to_affine or
verify_reach_bound) with one that returns a failing result.  Each test
pins the failure entry and the report's ok: false.
"""

import json
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from oracles import object_fourier_suite, object_partition_suite, per_instance_group_distances

from paritylab import generators, gf2, suites
from paritylab.distributions import SLACK, BoundCheck, SubspaceMixture
from paritylab.generators import derived_rng, random_mixture
from paritylab.gf2 import point_mask
from paritylab.partition import build_partition

# Members of F_2^3 as canonical (rows, offset) pairs, and key ids 2a + b.
FULL = ((1, 2, 4), 0)
POINT = ((), 0)
X1_0, X1_1 = ((2, 4), 0), ((2, 4), 1)  # {x : x_1 = 0} and {x : x_1 = 1}
POINT_KEYS = [2, 4, 8]  # x_1 = x_2 = x_3 = 0


def _instance(pairs, weights, rounds, residual=()):
    """Stubs under which every draw of the suite gives the members pairs
    with weights, and every partition the rounds (chosen key ids, taken
    members) and the residual members."""
    return {"_mixture_pairs": lambda n, words: (pairs, weights),
            "_partition_ids": lambda n, keys, probs, r: (rounds, list(residual))}


class TestPartitionSuite:
    @pytest.mark.parametrize("stubs, problems", [
        (_instance([POINT], [1.0], [], [0]), ["residual"]),
        (_instance([FULL, X1_0, X1_1], [0.5, 0.25, 0.25], [([], [0]), ([], [1, 2])]),
         ["duplicate representatives"]),
        # the full member puts 0.01 outside the point: distance 0.0175
        (_instance([FULL, POINT], [0.01, 0.99], [(POINT_KEYS, [0, 1])]), ["containment"]),
        (_instance([POINT], [1.0], [([], [0])]), ["group distance"]),
        # a real instance against caps below 0
        ({"group_count_bound": lambda n, r, k: -1.0},
         ["count k=0", "count k=1", "count k=2", "count k=3"]),
        # representatives of dimension 3 and 0 against a cap of 1 at every k
        ({**_instance([FULL, POINT], [0.5, 0.5], [([], [0]), (POINT_KEYS, [1])]),
          "group_count_bound": lambda n, r, k: 1.0}, ["count k=0"]),
    ], ids=["residual", "duplicate", "containment", "distance", "count", "count-at-cap"])
    def test_problem_entry(self, monkeypatch, stubs, problems):
        for name, stub in stubs.items():
            monkeypatch.setattr(suites, name, stub)
        report = suites.partition_suite(1, 5, ns=(3,))
        assert report["failures"] == [{"n": 3, "r": 1.5, "problems": problems}]
        assert report["passed"] == 0 and report["ok"] is False

    def test_distance_at_bound_plus_slack(self, monkeypatch):
        """A group distance of exactly the bound plus SLACK passes, as a
        BoundCheck row at that measure does."""
        n, r = 3, 1.5
        at_edge = 2.0 ** (-(r - n / 2)) + SLACK
        assert BoundCheck("closeness", at_edge, 2.0 ** (-(r - n / 2)), binding=True).ok
        monkeypatch.setattr(suites, "_group_distances",
                            lambda n, table, reps, dims: [at_edge] * len(reps))
        report = suites.partition_suite(3, 5, ns=(n,), r_fracs=(r / n,))
        assert report["ok"], report["failures"]
        assert report["min_group_margin"] == 2.0 ** (-(r - n / 2)) - at_edge

    @pytest.mark.parametrize("pairs, weights, message", [
        ([], [], "mixture support must be non-empty"),
        ([FULL, FULL], [0.5, 0.5], "duplicate support element"),
        ([FULL, X1_0], [1.0, 0.0], "probabilities must be positive, got 0.0"),
        ([FULL, X1_0], [1.5, -0.5], r"probabilities must be positive, got -0\.5"),
        ([FULL, X1_0], [0.5, 0.25], "probabilities sum to 0.75, not 1"),
    ], ids=["empty", "duplicate", "zero", "negative", "total"])
    def test_mixture_checks(self, monkeypatch, pairs, weights, message):
        """SubspaceMixture's checks, on the drawn pairs and weights, in both
        suites."""
        for name, stub in _instance(pairs, weights, [([], [0, 1])]).items():
            monkeypatch.setattr(suites, name, stub)
        monkeypatch.setattr(suites, "_hypothesis_mixture", lambda n, r, words: (pairs, weights))
        with pytest.raises(ValueError, match=message):
            suites.partition_suite(1, 5, ns=(3,))
        with pytest.raises(ValueError, match=message):
            suites.fourier_suite(1, 5, ns=(3,))

    def test_table_cap_before_any_draw(self, monkeypatch):
        """n = 13 is refused by the weight table's cap before the first
        draw (before the reader opens), and before any 4^n-bit
        hyperplane_masks table."""
        def refuse(*args):
            raise AssertionError("drew or built past the cap")

        for name in ("_Words", "_mixture_pairs", "hyperplane_masks"):
            monkeypatch.setattr(suites, name, refuse)
        with pytest.raises(ValueError, match="exact tables support 0 <= n <= 12, got 13"):
            suites.partition_suite(4, 5, ns=(2, 13))

    @pytest.mark.parametrize("ns", [(1,), (6,), (2, 3, 4, 5, 6)], ids=str)
    def test_matches_object_suite(self, ns):
        """The mask suite's report equals the reference on random_mixture,
        build_partition and the conditional mixture's distance, as
        sort_keys JSON text (floats bit for bit)."""
        for seed in range(10):
            assert (json.dumps(suites.partition_suite(30, seed, ns=ns), sort_keys=True)
                    == json.dumps(object_partition_suite(30, seed, ns=ns), sort_keys=True))

    def test_matches_object_suite_absolute_rs(self):
        args = (24, 3)
        kwargs = {"ns": (2, 3, 4), "rs": (2.0, 2.5, 3.0)}
        assert (json.dumps(suites.partition_suite(*args, **kwargs), sort_keys=True)
                == json.dumps(object_partition_suite(*args, **kwargs), sort_keys=True))


    def test_memory_peak(self):
        """One 80-instance call at n = 5, r = 5 peaks under 768 KiB of
        tracemalloc, after a first call has filled the per-process span
        lattice and label memos.  It holds the call's reader (one block of
        at most 1,024 words and its int lists, about 130 KiB), one row of
        32 floats per group and, in the distance pass, one more float per
        cell and numpy's cast buffers: about 520 KiB measured over 380
        rows.  The worst case, all 80 instances split into 8 groups, is
        640 rows, 160 KiB of table and as much again in the pass.  Keeping
        every instance's points lists until the pass read 961 KiB."""
        args, kwargs = (80, 1), {"ns": (5,), "r_fracs": (1.0,)}
        suites.partition_suite(*args, **kwargs)
        tracemalloc.start()
        try:
            suites.partition_suite(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 << 10


def _groups(n, count):
    """random_mixture's instances at n, through build_partition at the
    suite's r cells, until they hold count groups: per instance its
    representatives' masks, their dimensions and each group's members'
    (points, mass)."""
    rng = derived_rng(n, 2)
    instances, groups = [], 0
    for i in range(count):
        part = build_partition(random_mixture(n, rng), suites.R_FRACS[i % 3] * n)
        instances.append(([point_mask(g.representative) for g in part.groups],
                          [g.representative.dim for g in part.groups],
                          [[(w.points(), p) for w, p in zip(g.members, g.probabilities)]
                           for g in part.groups]))
        groups += len(part.groups)
        if groups >= count:
            return instances
    raise AssertionError(f"fewer than {count} groups")


@pytest.mark.parametrize("frac", suites.R_FRACS)
def test_suites_build_no_objects(monkeypatch, frac):
    """Neither suite builds a subspace or mixture object per instance: at
    the benchmark's cells (Fourier n = 3..6, partition n = 2..5) both pass
    with SubspaceMixture, the pairs-to-subspace step and
    intersect_hyperplane refusing."""
    def refuse(*args):
        raise AssertionError("built an object")

    monkeypatch.setattr(SubspaceMixture, "__post_init__", refuse)
    monkeypatch.setattr(generators, "_subspace", refuse)
    monkeypatch.setattr(gf2, "intersect_hyperplane", refuse)
    for n in (3, 4, 5, 6):
        assert suites.fourier_suite(6, 7, ns=(n,), r_fracs=(frac,))["ok"]
    for n in (2, 3, 4, 5):
        assert suites.partition_suite(80, 7, ns=(n,), r_fracs=(frac,))["ok"]


class TestGroupDistances:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_batches_match_per_instance(self, n):
        """The suite's distance pass, over 300 rows at once or one row at
        a time, gives the per-instance reference's distances row for row:
        sum(axis=1) does not depend on the row count."""
        instances = _groups(n, 300)
        want = [d for instance in instances for d in per_instance_group_distances(n, *instance)]
        reps, dims, groups = ([x for instance in instances for x in instance[j]]
                              for j in range(3))
        table = array("d")
        suites._group_rows(n, groups[:300], table)
        assert suites._group_distances(n, table, reps[:300], dims[:300]) == want[:300]
        for i in range(300):
            table = array("d")
            suites._group_rows(n, groups[i:i + 1], table)
            assert suites._group_distances(n, table, reps[i:i + 1], dims[i:i + 1]) == [want[i]]


class TestFourierSuite:
    @pytest.mark.parametrize("ns", [(1,), (2,), (6,), (3, 4, 5, 6)], ids=str)
    def test_matches_object_suite(self, ns):
        """The suite, on one reader for the call, gives the report of one
        random_hypothesis_mixture call per instance, as sort_keys JSON
        text (floats bit for bit)."""
        for seed in range(10):
            assert (json.dumps(suites.fourier_suite(24, seed, ns=ns), sort_keys=True)
                    == json.dumps(object_fourier_suite(24, seed, ns=ns), sort_keys=True))

    def test_matches_object_suite_absolute_rs(self):
        kwargs = {"ns": (2, 3, 4), "rs": (2.0, 2.5, 3.0)}
        for seed in range(10):
            assert (json.dumps(suites.fourier_suite(24, seed, **kwargs), sort_keys=True)
                    == json.dumps(object_fourier_suite(24, seed, **kwargs), sort_keys=True))


class TestReductionSuite:
    def test_failed_report_entry(self, monkeypatch):
        calls = []

        def failing(bp, r):
            calls.append((bp.n, bp.m, r))
            report = SimpleNamespace(all_ok=False, to_dict=lambda: {"all_ok": False})
            return SimpleNamespace(report=report)

        monkeypatch.setattr(suites, "reduce_to_affine", failing)
        report = suites.reduction_suite(2, 5, ns=(2,))
        assert len(report["failures"]) == 2 and report["passed"] == 0
        for (n, m, r), entry in zip(calls, report["failures"]):
            assert set(entry) == {"n", "m", "width", "r", "report"}
            assert (entry["n"], entry["m"], entry["r"]) == (n, m, r)
            assert 2 <= entry["width"] <= 8 and entry["report"] == {"all_ok": False}
        assert report["ok"] is False


class TestReachBoundSuite:
    def test_not_affine_and_failing_row_entries(self, monkeypatch):
        """At n = 2 the corpus holds programs at k = 0, 1, 1, 0: the k = 0
        ones come back not affine, the others with one failing row and one
        passing row each."""
        def verify(bp, labels, k):
            if k == 0:
                return False, []
            return True, [((1, 0), BoundCheck("reach", 0.75, 0.5, binding=True)),
                          ((1, 1), BoundCheck("reach", 0.25, 0.5, binding=True))]

        monkeypatch.setattr(suites, "verify_reach_bound", verify)
        report = suites.reach_bound_suite(5, ns=(2,))
        failing_row = {"n": 2, "k": 1, "vertex": [1, 0], "exact": 0.75, "bound": 0.5}
        assert report["failures"] == [{"n": 2, "k": 0, "problem": "not affine"}, failing_row,
                                      failing_row, {"n": 2, "k": 0, "problem": "not affine"}]
        assert report["count"] == 4 and report["passed"] == 0
        assert report["min_margin"] == -0.25 and report["ok"] is False
