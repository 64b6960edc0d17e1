"""The property suites' failure entries.

The suites pass on the package as it is, so each failure branch is
forced here by replacing the collaborator the suite calls
(build_partition, reduce_to_affine or verify_reach_bound) with one that
returns a failing result.  Each test pins the failure entry and the
report's ok: false.
"""

from types import SimpleNamespace

import pytest

from paritylab import suites
from paritylab.distributions import BoundCheck
from paritylab.gf2 import AffineSubspace

FULL = AffineSubspace.full(3)
POINT = AffineSubspace.point(3, 0)


def _group(representative, member, distance=0.0):
    return SimpleNamespace(representative=representative, members=(member,),
                           l1_to_uniform=lambda: distance)


def _partition(groups=(), reps_at_least=0):
    return SimpleNamespace(residual_mass=0.0, groups=groups,
                           representatives_with_dim_at_least=lambda k: reps_at_least)


class TestPartitionSuite:
    @pytest.mark.parametrize("part, problems", [
        (_partition((_group(FULL, FULL), _group(FULL, FULL))), ["duplicate representatives"]),
        (_partition((_group(POINT, FULL),)), ["containment"]),
        (_partition((_group(FULL, POINT, distance=2.0),)), ["group distance"]),
        (_partition(reps_at_least=10 ** 9), ["count k=0", "count k=1", "count k=2", "count k=3"]),
    ], ids=["duplicate", "containment", "distance", "count"])
    def test_problem_entry(self, monkeypatch, part, problems):
        monkeypatch.setattr(suites, "build_partition", lambda mix, r: part)
        report = suites.partition_suite(1, 5, ns=(3,))
        assert report["failures"] == [{"n": 3, "r": 1.5, "problems": problems}]
        assert report["passed"] == 0 and report["ok"] is False


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
