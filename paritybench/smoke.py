"""Tiny-size check of the benchmark itself (one to two minutes).

    python3 paritybench/smoke.py

From the repository root: runs every workload on its smoke job list (one
job per kind and size, one pass) untraced and twice traced, and asserts
that
  - every run exits 0 with a correct result and no failed job;
  - the last line carries exactly the metric names and units that
    BENCHMARK.json lists (end_to_end untraced, per_layer traced);
  - the two traced runs give identical per-layer counts, and traced and
    untraced runs give identical job outputs;
  - in a directory holding only BENCHMARK.json and paritybench/, run.py
    exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "paritybench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    assert proc.returncode == 0, f"{what} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, f"{what}:\n{proc.stderr}"
    return result


def job_digests(path: Path, pass_index: int) -> dict[str, str]:
    record = json.loads(path.read_text())
    return {j["id"]: j["digest"] for j in record["passes"][pass_index]["jobs"]}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        plain = last_json(run(workload, 0), f"{workload} untraced")
        assert {n: m["unit"] for n, m in plain["metrics"].items()} == \
            {m["name"]: m["unit"] for m in bench["end_to_end"]}
        record = ROOT / ".paritybench" / f"{workload}-seed1-trace1.json"
        traced = []
        for attempt in range(2):
            result = last_json(run(workload, 1), f"{workload} traced #{attempt}")
            assert {n: m["unit"] for n, m in result["metrics"].items()} == \
                {m["name"]: m["unit"] for m in bench["per_layer"]}
            traced.append(result["metrics"])
            assert job_digests(record, 1) == job_digests(
                ROOT / ".paritybench" / f"{workload}-seed1-trace0.json", 0)
        counts = [{n: m["value"] for n, m in t.items() if m["unit"] == "count"} for t in traced]
        assert counts[0] == counts[1], f"{workload}: per-layer counts differ between traced runs"
        print(f"{workload}: ok ({len(plain['metrics'])} end-to-end, "
              f"{len(traced[0])} per-layer metrics)")

    bare = ROOT / ".paritybench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "paritybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("stream", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory run succeeded"
    print("bare directory: exits", proc.returncode, "without a result")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
