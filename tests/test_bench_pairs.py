"""tools/bench_pairs.py's pair statistics: compare counts a pair as a win
only when the change is strictly better in the metric's direction, and
claim_result meets a claim only with wins in at least 9 of 10 pairs and
a gap between the medians above the parent's IQR.  The tool is a script,
not a package module, so it is loaded by path."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _claim(bench_pairs, parent, change, better="lower"):
    row = bench_pairs.compare(parent, change, better == "lower", "s")
    return bench_pairs.claim_result({"metrics": {"m": row}}, "m")


PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45


class TestCompare:
    def test_lower_better(self, bench_pairs):
        row = bench_pairs.compare([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.5, 1.0], True, "s")
        assert (row["wins"], row["pairs"], row["better"]) == (3, 4, "lower")
        assert row["median_diff"] == -0.75
        assert row["rel_change"] == pytest.approx(1.25 / 2.0 - 1)

    def test_higher_better(self, bench_pairs):
        row = bench_pairs.compare([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.5, 1.0], False, "1/s")
        assert (row["wins"], row["better"]) == (1, "higher")

    def test_ties_count_for_neither_side(self, bench_pairs):
        values = [1.0, 2.0, 3.0]
        for lower_better in (True, False):
            row = bench_pairs.compare(values, list(values), lower_better, "s")
            assert row["wins"] == 0
            assert row["median_diff"] == 0.0

    def test_spread_is_inclusive_quartiles(self, bench_pairs):
        row = bench_pairs.compare(PARENT, PARENT, True, "s")
        assert row["parent"]["median"] == pytest.approx(1.45)
        assert row["parent"]["iqr"] == pytest.approx(0.45)


class TestClaimResult:
    def test_met(self, bench_pairs):
        result = _claim(bench_pairs, PARENT, [p - 0.5 for p in PARENT])
        assert (result["wins"], result["pairs"], result["met"]) == (10, 10, True)
        assert result["median_gain"] == pytest.approx(0.5)
        assert result["parent_iqr"] == pytest.approx(0.45)

    def test_nine_of_ten_wins_suffice(self, bench_pairs):
        change = [p - 1.0 for p in PARENT]
        change[9] = PARENT[9]  # a tie
        result = _claim(bench_pairs, PARENT, change)
        assert (result["wins"], result["met"]) == (9, True)

    def test_eight_of_ten_wins_do_not(self, bench_pairs):
        change = [p - 1.0 for p in PARENT]
        change[8], change[9] = PARENT[8] + 0.1, PARENT[9]  # a loss and a tie
        result = _claim(bench_pairs, PARENT, change)
        assert result["wins"] == 8
        assert result["median_gain"] > result["parent_iqr"]
        assert not result["met"]

    def test_gap_must_exceed_the_parent_iqr(self, bench_pairs):
        for gap, met in ((0.3, False), (0.44, False), (0.46, True)):
            result = _claim(bench_pairs, PARENT, [p - gap for p in PARENT])
            assert result["wins"] == 10
            assert result["met"] is met, gap

    def test_higher_better_direction(self, bench_pairs):
        assert _claim(bench_pairs, PARENT, [p + 0.5 for p in PARENT], "higher")["met"]
        result = _claim(bench_pairs, PARENT, [p - 0.5 for p in PARENT], "higher")
        assert result["wins"] == 0
        assert result["median_gain"] == pytest.approx(-0.5)
        assert not result["met"]


def test_progress_shows_claimed_metrics(bench_pairs):
    claims = bench_pairs.parse_claims("verify:setup_s,verify:wall_s,reduce:job_p90_ms")
    assert bench_pairs.shown_metrics(claims, "verify") == ["setup_s", "wall_s"]
    assert bench_pairs.shown_metrics(claims, "stream") == ["wall_s"]
