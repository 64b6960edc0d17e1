"""One workload process: set-up, timed passes or a traced pass, checks.

Started by run.py with ``src`` on PYTHONPATH; writes one JSON result
file.  Roles:

  setup  set up (generate every pass's inputs, one warm-up job of each
         kind) and stop; run.py times it from process start.
  run    set up, then run the job list once per pass with tracing off.
  trace  set up, run pass 0 untraced, wrap paritylab, regenerate pass 0
         and run it traced; both runs must give identical inputs and
         outputs.
  pins   run pass 0 and write the sha256 of every integer-only output to
         pins.json (run at the pinned seed only).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import jobs
from probe import speed_probe
from tracing import Tracer

PINS = Path(__file__).with_name("pins.json")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_pins(seed: int, workload: str) -> dict[str, str]:
    if not PINS.is_file():
        return {}
    doc = json.loads(PINS.read_text())
    return doc["jobs"].get(workload, {}) if doc["seed"] == seed else {}


def run_jobs(job_list: list[jobs.Job], tracer: Tracer | None = None):
    """Closed loop: each job starts when the previous one ends, right after
    a speed probe.  Checks run after the loop, outside the timed region."""
    results = []
    start = time.perf_counter()
    for job in job_list:
        if tracer is not None:
            tracer.job = job.id
        probe = speed_probe()
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception:  # job boundary: any failure is recorded, never skipped
            out, err = None, traceback.format_exc()
        results.append((out, err, time.perf_counter() - t0, probe))
    return time.perf_counter() - start, results


def check_jobs(job_list, results, pins: dict[str, str]):
    """Per job: latency, probe, digest of the output and error, if any."""
    checked = []
    for job, (out, err, latency, probe) in zip(job_list, results):
        digest = None
        if err is None:
            try:
                pin, digest = job.check(out)
                expected = pins.get(job.id)
                if expected is not None and pin != expected:
                    raise jobs.CheckFailed(f"output sha256 {pin} differs from pinned {expected}")
            except Exception:
                err = traceback.format_exc()
        checked.append({"id": job.id, "kind": job.kind, "size": job.size,
                        "latency": latency, "probe": probe, "digest": digest, "error": err})
    return checked


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["setup", "run", "trace", "pins"], required=True)
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    import paritylab
    src = (Path.cwd() / "src").resolve()
    if src not in Path(paritylab.__file__).resolve().parents:
        print(f"paritylab imported from {paritylab.__file__}, not from {src}", file=sys.stderr)
        return 2

    slots = list(enumerate(jobs.WORKLOADS[args.workload]()))
    if args.smoke:
        slots = jobs.smoke_slots([s for _, s in slots])
    args.workdir.mkdir(parents=True, exist_ok=True)
    result: dict = {"python": sys.version.split()[0], "numpy": np.__version__,
                    "paritylab": paritylab.__version__, "jobs_per_pass": len(slots)}
    try:
        passes = [jobs.build_pass(slots, jobs.Context(args.seed, args.workdir, p))
                  for p in range(args.passes)]
        warm = jobs.warmup_jobs(slots, jobs.Context(args.seed, args.workdir))
        _, warm_results = run_jobs(warm)
        result["setup_end"] = time.perf_counter()
        result["setup_probe"] = statistics.median(speed_probe() for _ in range(7))
        result["warmup"] = check_jobs(warm, warm_results, {})
        pins = load_pins(args.seed, args.workload)

        if args.role == "run":
            result["passes"] = []
            for job_list in passes:
                elapsed, raw = run_jobs(job_list)
                result["passes"].append({"elapsed": elapsed,
                                         "jobs": check_jobs(job_list, raw, pins)})
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        elif args.role == "trace":
            # The first untraced run fills the caches this data fills; the
            # second is the base of trace.overhead.
            run_jobs(passes[0])
            _, raw = run_jobs(passes[0])
            plain = check_jobs(passes[0], raw, pins)
            tracer = Tracer()
            tracer.install()
            tracer.on = True
            tracer.job = "setup"
            regen = jobs.build_pass(slots, jobs.Context(args.seed, args.workdir, 0))
            _, raw = run_jobs(regen, tracer)
            tracer.on = False
            traced = check_jobs(regen, raw, pins)
            # Job time only: the untraced speed probes between jobs are left out.
            plain_s = sum(j["latency"] for j in plain)
            traced_s = sum(j["latency"] for j in traced)
            mismatches = [a["id"] for a, b, x, y in zip(plain, traced, passes[0], regen)
                          if a["digest"] != b["digest"] or x.input_digest != y.input_digest]
            names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
            per_layer = {n: tracer.metric(n) for n in names if n != "trace.overhead"}
            per_layer["trace.overhead"] = traced_s / plain_s
            result.update(per_layer=per_layer, trace_mismatches=mismatches, passes=[
                {"elapsed": plain_s, "jobs": plain}, {"elapsed": traced_s, "jobs": traced}])
            tracer.write(args.spans)

        elif args.role == "pins":
            _, raw = run_jobs(passes[0])
            digests = {}
            for job, (out, err, *_) in zip(passes[0], raw):
                if err is not None:
                    raise RuntimeError(f"{job.id} failed:\n{err}")
                pin, _ = job.check(out)
                if pin is not None:
                    digests[job.id] = pin
            doc = json.loads(PINS.read_text()) if PINS.is_file() else {}
            if doc.get("seed") != args.seed:
                doc = {"seed": args.seed, "jobs": {}}
            doc["jobs"][args.workload] = digests
            PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
