"""paritylab benchmark: one workload, one seed, one closed-loop client.

    python3 paritybench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; paritylab is imported from ./src.  The
workload and metric names and units are those of BENCHMARK.json at the
root; spec.json defines them and holds the layer map.

--trace 0 sets the workload up several times in fresh processes (the
median is setup_s), then runs its job list once per pass in one more
fresh process, tracing off, and reports the end-to-end metrics.  Their
times are scaled to nominal machine speed by a speed probe timed before
every job (probe.py); the raw seconds are printed beside them.
--trace 1 runs pass 0 untraced and then traced (paritylab wrapped from
outside, see tracing.py) in one process and reports the per-layer
metrics.  Both check every job's output.

Human-readable lines go first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A full record,
with per-job latencies, digests and failure tracebacks, goes to
.paritybench/<workload>-seed<seed>-trace<t>.json, and a traced run's
spans next to it.  Processes run one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import NOMINAL_S

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FAILED_FRAC_UNIT = "ratio"  # printed, not in BENCHMARK.json (see spec.json)
# Nominal length of one pass over each workload's job list; --seconds
# sets the number of passes.  A reduce pass holds two heavy reductions.
PASS_SECONDS = {"reduce": 15, "verify": 10, "stream": 10}
SETUP_RUNS = 3           # set-up-only processes; the run's own set-up is one more sample
DEADLINE_S = 170         # the whole run, all processes included
PROBE_WINDOW = 10        # jobs on each side whose probes scale a job's latency


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (Path.cwd() / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


class WorkerFailed(Exception):
    pass


def worker(role: str, args, workdir: Path, result: Path, deadline: float, passes: int = 1,
           spans: Path | None = None) -> tuple[dict, float]:
    """Run one worker process to completion; returns its result and the
    perf_counter reading just before it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes),
           "--workdir", str(workdir), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result.unlink(missing_ok=True)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{role} worker passed the {DEADLINE_S} s deadline")
    if code != 0 or not result.is_file():
        raise WorkerFailed(f"{role} worker exited {code}")
    return json.loads(result.read_text()), started


def scaled_latencies(jobs: list[dict]) -> list[float]:
    """Each job's latency at nominal machine speed: scaled by NOMINAL_S over
    the median probe of the jobs within PROBE_WINDOW places of it."""
    probes = [j["probe"] for j in jobs]
    return [j["latency"] * NOMINAL_S
            / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, j in enumerate(jobs)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job list (one job per kind and size), one pass, one set-up run")
    ap.add_argument("--write-pins", action="store_true",
                    help="record pass 0's integer-output digests at this seed in pins.json")
    args = ap.parse_args()

    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "paritylab" / "__init__.py").is_file():
        print(f"error: no src/paritylab under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / ".paritybench"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out / f"work-{os.getpid()}"
    result_file = out / f"{stem}.worker.json"

    try:
        if args.write_pins:
            worker("pins", args, workdir, result_file, deadline)
            print(f"pinned {args.workload} at seed {args.seed}")
            return 0
        passes = 1 if args.smoke or args.trace else max(
            1, round(args.seconds / PASS_SECONDS[args.workload]))
        setups: list[float] = []
        setup_runs: list[dict] = []
        if args.trace == 0:
            for _ in range(1 if args.smoke else SETUP_RUNS):
                res, started = worker("setup", args, workdir, result_file, deadline, passes)
                setups.append(res["setup_end"] - started)
                setup_runs.append(res)
            role, spans = "run", None
        else:
            role, spans = "trace", out / f"{stem}.spans.jsonl"
        res, started = worker(role, args, workdir, result_file, deadline, passes, spans)
        setups.append(res["setup_end"] - started)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        result_file.unlink(missing_ok=True)

    jobs = [j for r in setup_runs + [res] for j in r["warmup"]]
    jobs += [j for p in res["passes"] for j in p["jobs"]]
    failures = [j for j in jobs if j["error"] is not None]
    correct = not failures and not res.get("trace_mismatches")

    meta = machine()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=passes,
                jobs_per_pass=res["jobs_per_pass"], python=res["python"], numpy=res["numpy"],
                paritylab=res["paritylab"], probe_nominal_s=NOMINAL_S)
    print("paritybench " + " ".join(f"{k}={meta[k]}" for k in (
        "workload", "seed", "trace", "passes", "jobs_per_pass", "commit", "python", "numpy",
        "nproc")) + f" cpu={meta['cpu']!r}")

    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    units["failed_frac"] = FAILED_FRAC_UNIT
    if args.trace == 0:
        # Times are reported at nominal machine speed (see probe.py), with
        # the raw figure beside each.  wall_s adds up each job slot's median
        # over the passes (each pass draws fresh data of the same sizes); the
        # percentiles pool every job of every pass.
        def timings(latency_lists, setup):
            by_slot: dict[str, list[float]] = {}
            for p, latencies in zip(res["passes"], latency_lists):
                for j, latency in zip(p["jobs"], latencies):
                    by_slot.setdefault(j["id"].split(".", 1)[1], []).append(latency)
            ms = [1000 * v for p in latency_lists for v in p]
            return {"setup_s": statistics.median(setup),
                    "wall_s": sum(statistics.median(v) for v in by_slot.values()),
                    "job_p50_ms": statistics.median(ms),
                    "job_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1]}, ms

        runs = setup_runs + [res]
        raw, _ = timings([[j["latency"] for j in p["jobs"]] for p in res["passes"]], setups)
        values, ms = timings([scaled_latencies(p["jobs"]) for p in res["passes"]],
                             [t * NOMINAL_S / r["setup_probe"] for t, r in zip(setups, runs)])
        values.update(peak_rss_mb=res["peak_rss_mb"], failed_frac=len(failures) / len(jobs))
        n_jobs = len(ms)
        notes = {
            "setup_s": f"median of {len(setups)} set-ups, process start to warm-up end",
            "wall_s": f"{res['jobs_per_pass']} jobs, each the median of {passes} passes",
            "job_p50_ms": f"{n_jobs} job samples ({passes} passes)",
            "job_p90_ms": f"{n_jobs} job samples, "
                          f"{sum(v > values['job_p90_ms'] for v in ms)} beyond it",
            "peak_rss_mb": "ru_maxrss of the run process",
            "failed_frac": f"{len(failures)} of {len(jobs)} jobs",
        }
        probe_ms = 1000 * statistics.median(j["probe"] for p in res["passes"] for j in p["jobs"])
        print(f"  times at nominal speed (probe {1000 * NOMINAL_S:.3f} ms; "
              f"measured median {probe_ms:.3f} ms), raw in brackets")
        for name, value in values.items():
            shown = f"{value:14.6f} {units[name]:<6}"
            if name in raw:
                shown += f" [{raw[name]:12.6f}]"
            print(f"  {name:<12} {shown:<36} {notes[name]}")
        values["raw"] = raw
        reported = [m["name"] for m in BENCHMARK["end_to_end"]]
    else:
        values = res["per_layer"]
        values_note = (f"job time traced {res['passes'][1]['elapsed']:.3f} s, "
                       f"untraced {res['passes'][0]['elapsed']:.3f} s")
        print(f"  trace.overhead {values['trace.overhead']:.3f} ({values_note})")
        reported = [m["name"] for m in BENCHMARK["per_layer"]]
    for j in failures:
        print(f"FAILED {j['id']} ({j['kind']} {j['size']}):\n{j['error']}", file=sys.stderr)
    if res.get("trace_mismatches"):
        print(f"traced and untraced outputs differ: {res['trace_mismatches']}", file=sys.stderr)

    record = {"meta": meta, "correct": correct, "setups_s": setups,
              "setup_probes_s": [r["setup_probe"] for r in setup_runs + [res]], "metrics": values,
              "passes": res["passes"], "warmup": res["warmup"],
              "trace_mismatches": res.get("trace_mismatches")}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": len(failures),
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
