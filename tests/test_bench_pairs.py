"""tools/bench_pairs.py's pair statistics: compare counts a pair as a win
only when the change is strictly better in the metric's direction;
claim_result meets a claim only with wins in at least 9 of 10 pairs, a
gap between the medians above the parent's IQR, no more failed jobs on
the change side than on the parent's and no incorrect change run;
bound_verdict reads a metric against its bound as a fraction of the
parent's median; and percentile_shares gives each job kind's share of
samples at or below a percentile; src_lines counts an archive's
src/paritylab .py lines.  The tool is a script, not a package
module, so it is loaded by path."""

import importlib.util
import io
import random
import tarfile
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _claim(bench_pairs, parent, change, better="lower", failed=(0, 0), correct=True):
    row = bench_pairs.compare(parent, change, better == "lower", "s")
    block = {"metrics": {"m": row}, "failed_jobs": dict(zip(("parent", "change"), failed)),
             "correct": {"parent": True, "change": correct}}
    return bench_pairs.claim_result(block, "m")


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
        assert result["reasons"] == []
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
        assert result["reasons"] == ["8 of 10 wins, below 9 of 10"]

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


    def test_more_failed_jobs_on_the_change_side_fail_it(self, bench_pairs):
        faster = [p - 0.5 for p in PARENT]
        result = _claim(bench_pairs, PARENT, faster, failed=(1, 2))
        assert (result["wins"], result["met"]) == (10, False)
        assert result["reasons"] == ["change failed 2 jobs, parent 1"]
        assert _claim(bench_pairs, PARENT, faster, failed=(2, 2))["met"]

    def test_an_incorrect_change_run_fails_it(self, bench_pairs):
        result = _claim(bench_pairs, PARENT, [p - 0.5 for p in PARENT], correct=False)
        assert not result["met"]
        assert result["reasons"] == ["change had an incorrect run"]


class TestBoundVerdict:
    def _verdict(self, bench_pairs, parent, change, better="lower", bound=0.2):
        row = bench_pairs.compare(parent, change, better == "lower", "s")
        return bench_pairs.bound_verdict(row, bound)

    def test_within_and_outside(self, bench_pairs):
        parent = [1.0, 1.0, 1.0, 1.1, 1.0]  # median 1.0, IQR 0.0
        for factor, verdict in ((0.5, "within"), (1.0, "within"), (1.19, "within"),
                                (1.21, "outside"), (2.0, "outside")):
            change = [p * factor for p in parent]
            assert self._verdict(bench_pairs, parent, change) == verdict, factor

    def test_higher_better_is_worse_downwards(self, bench_pairs):
        parent = [10.0] * 5
        assert self._verdict(bench_pairs, parent, [20.0] * 5, "higher") == "within"
        assert self._verdict(bench_pairs, parent, [8.5] * 5, "higher") == "within"
        assert self._verdict(bench_pairs, parent, [7.5] * 5, "higher") == "outside"

    def test_unresolved_when_parent_spread_exceeds_bound(self, bench_pairs):
        # PARENT: IQR 0.45 over median 1.45 is 0.31
        assert self._verdict(bench_pairs, PARENT, PARENT, bound=0.3) == "unresolved"
        assert self._verdict(bench_pairs, PARENT, PARENT, bound=0.32) == "within"
        assert self._verdict(bench_pairs, [0.0] * 4, [0.0] * 4) == "unresolved"


def test_progress_shows_claimed_metrics(bench_pairs):
    claims = bench_pairs.parse_claims("verify:setup_s,verify:wall_s,reduce:job_p90_ms")
    assert bench_pairs.shown_metrics(claims, "verify") == ["setup_s", "wall_s"]
    assert bench_pairs.shown_metrics(claims, "stream") == ["wall_s"]


class TestPercentileShares:
    def test_share_at_or_below_the_value(self, bench_pairs):
        samples = {"dp/n=6": [1.0, 2.0, 3.0, 4.0], "fourier/n=5": [5.0, 6.0]}
        shares = bench_pairs.percentile_shares(samples, {"job_p50_ms": 3.0, "job_p90_ms": 5.5})
        assert shares == {"job_p50_ms": {"dp/n=6": 0.75, "fourier/n=5": 0.0},
                          "job_p90_ms": {"dp/n=6": 1.0, "fourier/n=5": 0.5}}

    def test_samples_are_the_run_scripts(self, bench_pairs, monkeypatch):
        """kind_samples pools, bit for bit, the scaled latencies whose
        median paritybench/run.py reports as job_p50_ms."""
        here = PATH.parent.parent / "paritybench"
        monkeypatch.syspath_prepend(str(here))
        spec = importlib.util.spec_from_file_location("paritybench_run", here / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        rng = random.Random(3)
        passes = [{"jobs": [{"kind": rng.choice(["dp", "fourier"]), "size": "n=5",
                             "latency": rng.uniform(1e-4, 1e-2),
                             "probe": rng.uniform(1e-3, 3e-3)} for _ in range(40)]}
                  for _ in range(3)]
        record = {"meta": {"probe_nominal_s": run.NOMINAL_S}, "passes": passes}
        pooled = sorted(v for vs in bench_pairs.kind_samples(record).values() for v in vs)
        want = sorted(1000 * v for p in passes for v in run.scaled_latencies(p["jobs"]))
        assert pooled == want


def test_src_lines_counts_package_python(bench_pairs):
    """Newlines of the .py files under src/paritylab/ only, subpackages
    included, a last line without its newline not counted (as wc -l)."""
    files = {"src/paritylab/a.py": b"x = 1\ny = 2\n", "src/paritylab/sub/b.py": b"z\nw",
             "src/paritylab/notes.txt": b"1\n2\n", "src/other/c.py": b"1\n", "d.py": b"1\n"}
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        folder = tarfile.TarInfo("src/paritylab/dir.py")  # a member that is not a file
        folder.type = tarfile.DIRTYPE
        tar.addfile(folder)
        for name, data in files.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    assert bench_pairs.src_lines(buffer.getvalue()) == 3
