"""Alternating parent/change pairs of paritybench runs, summarized in
BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent 5a3e62e --change HEAD --label NAME \\
        --runs reduce:7,reduce:47,verify:7,stream:7 --pairs 10 \\
        --claim reduce:wall_s --aa stream:7 --note "what the change does"

Run from the root of the repository.  Each pair extracts both revisions
with `git archive` into two fresh directories of the same depth under
--workdir and runs

    python3 paritybench/run.py --workload W --seed S --seconds 30 --trace 0

unchanged in each, one process at a time.  The directory each side gets
alternates every pair and the side that runs first every two pairs, so
all four combinations occur.  Per workload and seed the file holds, for
every end-to-end metric of BENCHMARK.json, both sides' median and
quartiles over the pairs (statistics.quantiles, inclusive), the median
of the per-pair differences and the change's wins (a pair where the
change is better in the metric's direction); per job kind and size, the
same for the median probe-scaled latency and the per-pass latency sum;
whether every job of both sides gave the same output digests; for
job_p50_ms and job_p90_ms, per side and per job kind and size, the
median over the pairs of the share of the kind's samples at or below
the run's own value of the metric, which shows the kinds that cross a
percentile.  Each
end-to-end metric also gets a verdict against its BENCHMARK.json bound,
a fraction of the parent's median: "within" when the change's median is
worse than the parent's by at most the bound, "outside" when by more,
and "unresolved" when the parent's IQR over its median exceeds the
bound.  --claim tests each named workload metric at each seed against
the rule "wins >= 9 of 10 pairs and the gap between the medians exceeds
the parent's IQR", and fails a claim whose change side failed more jobs
than the parent or had an incorrect run; --aa
runs the parent against itself the same way, as a noise control.  The
file also holds each side's src_lines, the line count of its .py files
under src/paritylab/.  After each pair, a progress line on stderr gives
both sides' values of every --claim metric of the running workload, or
of wall_s if it has none.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PROBE_WINDOW = 10  # as paritybench/run.py: jobs on each side whose probes scale a job
PERCENTILES = ("job_p50_ms", "job_p90_ms")  # the metrics whose shares per kind are kept


def archive(rev: str) -> bytes:
    return subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          capture_output=True).stdout


def extract(data: bytes, where: Path) -> None:
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(where, filter="data")


def src_lines(data: bytes) -> int:
    """The newlines (wc -l) of the .py files under src/paritylab/ in an
    archive."""
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        return sum(tar.extractfile(member).read().count(b"\n") for member in tar
                   if member.isfile() and member.name.startswith("src/paritylab/")
                   and member.name.endswith(".py"))


def run_once(where: Path, workload: str, seed: int) -> dict:
    """One paritybench run: its summary line and its job record."""
    proc = subprocess.run([sys.executable, "paritybench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "0"],
                          cwd=where, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {where} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((where / ".paritybench" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {"summary": summary, "record": record}


def kind_samples(record: dict) -> dict[str, list[float]]:
    """Per job kind and size, its pass jobs' latencies (ms) scaled to
    nominal speed the way paritybench/run.py scales the samples of its
    percentiles, bit for bit."""
    nominal = record["meta"]["probe_nominal_s"]
    scaled: dict[str, list[float]] = {}
    for p in record["passes"]:
        probes = [j["probe"] for j in p["jobs"]]
        for i, j in enumerate(p["jobs"]):
            window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            ms = 1000 * (j["latency"] * nominal / statistics.median(window))
            scaled.setdefault(f"{j['kind']}/{j['size']}", []).append(ms)
    return scaled


def percentile_shares(samples: dict[str, list[float]], values: dict[str, float]) -> dict:
    """Per percentile metric and job kind/size: the share of the kind's
    samples at or below the run's own value of the metric."""
    return {metric: {kind: sum(v <= values[metric] for v in vs) / len(vs)
                     for kind, vs in samples.items()}
            for metric in PERCENTILES}


def kind_figures(record: dict) -> tuple[dict, dict, list[str]]:
    """Per job kind and size: the median probe-scaled latency (ms) and the
    latency sum per pass (ms); and every pass job's digest, in order."""
    scaled = kind_samples(record)
    passes = len(record["passes"])
    medians = {k: statistics.median(v) for k, v in scaled.items()}
    sums = {k: sum(v) / passes for k, v in scaled.items()}
    digests = [j["digest"] for p in record["passes"] for j in p["jobs"]]
    return medians, sums, digests


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], lower_better: bool, unit: str) -> dict:
    diffs = [c - p for p, c in zip(parent, change)]
    wins = sum((d < 0) if lower_better else (d > 0) for d in diffs)
    p, c = spread(parent), spread(change)
    return {"unit": unit, "better": "lower" if lower_better else "higher",
            "parent": p, "change": c, "median_diff": statistics.median(diffs),
            "rel_change": c["median"] / p["median"] - 1 if p["median"] else None,
            "wins": wins, "pairs": len(diffs)}


def bound_verdict(row: dict, bound: float) -> str:
    """A compare row's verdict against a bound, read as a fraction of the
    parent's median: "unresolved" when the parent's IQR over its median
    exceeds the bound (or the median is 0), else "within" when the
    change's median is worse by at most the bound, else "outside"."""
    parent, change = row["parent"]["median"], row["change"]["median"]
    if parent == 0 or row["parent"]["iqr"] / parent > bound:
        return "unresolved"
    worse = (change - parent) if row["better"] == "lower" else (parent - change)
    return "within" if worse <= bound * parent else "outside"


def run_pairs(sides: dict[str, bytes], workload: str, seed: int, pairs: int, work: Path,
              metrics: list[dict], shown: list[str]) -> tuple[dict, dict]:
    """The pairs' summary, and the machine line of the first run; each
    pair's progress line prints both sides' metrics named in shown."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        dirs = ("x", "y") if i % 2 == 0 else ("y", "x")
        where = {side: work / d / "repo" for side, d in zip(("parent", "change"), dirs)}
        for side in ("parent", "change"):
            extract(sides[side], where[side])
        order = ("parent", "change") if (i // 2) % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(where[side], workload, seed))
        print(f"  {workload}:{seed} pair {i + 1}/{pairs} " + " ".join(
            f"{name} {side}={runs[side][-1]['summary']['metrics'][name]['value']:.4f}"
            for name in shown for side in ("parent", "change")), file=sys.stderr, flush=True)

    out: dict = {"workload": workload, "seed": seed, "pairs": pairs,
                 "failed_jobs": {s: sum(r["summary"]["failed"] for r in runs[s]) for s in runs},
                 "correct": {s: all(r["summary"]["correct"] for r in runs[s]) for s in runs},
                 "metrics": {}}
    for m in metrics:
        values = {s: [r["summary"]["metrics"][m["name"]]["value"] for r in runs[s]]
                  for s in runs}
        row = compare(values["parent"], values["change"], m["better"] == "lower", m["unit"])
        row["bound"] = m["bound"]
        row["verdict"] = bound_verdict(row, m["bound"])
        out["metrics"][m["name"]] = row
    print(f"  {workload}:{seed} verdicts: " + " ".join(
        f"{name} {row['verdict']}" for name, row in out["metrics"].items()),
        file=sys.stderr, flush=True)
    figures = {s: [kind_figures(r["record"]) for r in runs[s]] for s in runs}
    out["outputs_identical"] = all(pf[2] == cf[2] for pf, cf in zip(figures["parent"],
                                                                    figures["change"]))
    for label, index in (("job_kind_median_ms", 0), ("job_kind_sum_ms_per_pass", 1)):
        kinds = sorted(figures["parent"][0][index])
        out[label] = {k: compare([f[index][k] for f in figures["parent"]],
                                 [f[index][k] for f in figures["change"]], True, "ms")
                      for k in kinds}
    shares = {s: [percentile_shares(kind_samples(r["record"]), {
        m: r["summary"]["metrics"][m]["value"] for m in PERCENTILES}) for r in runs[s]]
        for s in runs}
    out["percentile_shares"] = {
        metric: {k: {s: statistics.median(run[metric][k] for run in shares[s]) for s in runs}
                 for k in sorted(shares["parent"][0][metric])}
        for metric in PERCENTILES}
    meta = runs["parent"][0]["record"]["meta"]
    return out, {k: meta[k] for k in ("nproc", "cpu", "platform", "python", "numpy")}


def claim_result(block: dict, metric: str) -> dict:
    """The claim rule on one workload block; met only when no reason
    against it is listed."""
    row = block["metrics"][metric]
    gain = row["parent"]["median"] - row["change"]["median"]
    if row["better"] == "higher":
        gain = -gain
    failed = block["failed_jobs"]
    reasons = []
    if failed["change"] > failed["parent"]:
        reasons.append(f"change failed {failed['change']} jobs, parent {failed['parent']}")
    if not block["correct"]["change"]:
        reasons.append("change had an incorrect run")
    if row["wins"] < 0.9 * row["pairs"]:
        reasons.append(f"{row['wins']} of {row['pairs']} wins, below 9 of 10")
    if gain <= row["parent"]["iqr"]:
        reasons.append(f"median gain {gain:.6g} not above parent IQR {row['parent']['iqr']:.6g}")
    return {"wins": row["wins"], "pairs": row["pairs"], "median_gain": gain,
            "parent_iqr": row["parent"]["iqr"], "rel_change": row["rel_change"],
            "met": not reasons, "reasons": reasons}


def parse_runs(text: str) -> list[tuple[str, int]]:
    return [(w, int(s)) for w, s in (item.split(":") for item in text.split(",") if item)]


def parse_claims(text: str) -> list[tuple[str, str]]:
    return [(w, m) for w, m in (item.split(":") for item in text.split(",") if item)]


def shown_metrics(claims: list[tuple[str, str]], workload: str) -> list[str]:
    """The metrics a workload's progress lines print: its claimed ones,
    else wall_s."""
    return [m for w, m in claims if w == workload] or ["wall_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--runs", required=True, help="workload:seed,... to pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", default="", help="workload:metric,... to test")
    ap.add_argument("--aa", default="", help="workload:seed,... to run parent against parent")
    ap.add_argument("--note", default="", help="what the change does, for the file")
    ap.add_argument("--workdir", default=None, help="scratch directory (default: a temp dir)")
    args = ap.parse_args()

    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs-"))
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    data = {side: archive(rev) for side, rev in revs.items()}
    claims = parse_claims(args.claim)
    results, aa, machine = {}, {}, {}
    try:
        for workload, seed in parse_runs(args.runs):
            results[f"{workload}/seed{seed}"], machine = run_pairs(
                data, workload, seed, args.pairs, work, metrics,
                shown_metrics(claims, workload))
        for workload, seed in parse_runs(args.aa):
            aa[f"{workload}/seed{seed}"], machine = run_pairs(
                {"parent": data["parent"], "change": data["parent"]},
                workload, seed, args.pairs, work, metrics, shown_metrics(claims, workload))
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    doc = {
        "label": args.label,
        "change": args.note,
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "src_lines": {side: src_lines(blob) for side, blob in data.items()},
        "command": "python3 paritybench/run.py --workload W --seed S --seconds 30 --trace 0",
        "method": (f"{args.pairs} alternating parent/change pairs per workload and seed "
                   "(tools/bench_pairs.py); see its docstring"),
        "machine": machine,
        "claims": {},
        "workloads": results,
    }
    for workload, metric in claims:
        doc["claims"][f"{workload}:{metric}"] = {
            key: claim_result(block, metric)
            for key, block in results.items() if block["workload"] == workload}
    if aa:
        doc["aa_control"] = aa
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
