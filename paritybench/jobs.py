"""The three workloads as fixed job lists.

A workload is a list of slots.  A slot fixes everything about a job that
decides how much work it is: its kind, its parameters and, for random
programs built here, its layer sizes.  The seed fixes only the data
drawn into a slot (transitions, labels, mixtures, keys, payloads,
Monte Carlo streams), so every seed runs the same job kinds at the same
sizes.  Each pass of a run draws fresh data into every slot from
(seed, pass, slot), so no pass repeats another's inputs.

Every call into paritylab goes through a module attribute
(``learners.simulate_success``), never a name imported into this file,
so a tracer that replaces module attributes sees the benchmark's calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from paritylab import bp, cli, crypto, generators, learners, suites

# Fixes slot shapes; independent of the workload seed.
SHAPE_SEED = 20160217
WARMUP_PASS = 1_000_000

# Two-sided normal tail beyond 5 sigma: the Monte Carlo checks reject a
# hit count only when it is this unlikely under the exact success law.
FIVE_SIGMA = 5.733031437583878e-07


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Slot:
    kind: str
    size: str
    params: dict


@dataclass
class Job:
    id: str
    kind: str
    size: str
    run: Callable[[], object]       # repeatable: every call gives the same output
    # Returns (pin digest of the integer-only output or None, digest of the
    # whole output); raises CheckFailed.
    check: Callable[[object], tuple[str | None, str]]
    input_digest: str


@dataclass
class Context:
    seed: int
    workdir: Path
    pass_index: int = 0

    def rng(self, slot: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.pass_index, slot)))

    def path(self, job_id: str, suffix: str) -> Path:
        return self.workdir / f"{job_id}.{suffix}"


def int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------- reduce

def shaped_program(n: int, sizes: tuple[int, ...],
                   rng: np.random.Generator) -> bp.BranchingProgram:
    """generators.random_program's distribution with the layer sizes fixed.

    random_program draws the layer sizes from its rng, which makes the cost
    of one reduction swing by 10x between seeds; here the slot fixes them
    and the seed draws transitions and leaf labels only.
    """
    m = len(sizes) - 1
    degree = 1 << (n + 1)
    transitions = tuple(
        tuple(tuple(int(t) for t in rng.integers(0, sizes[j + 1], degree))
              for _ in range(sizes[j]))
        for j in range(m))
    leaf_labels = {(m, v): generators.random_subspace(n, rng) for v in range(sizes[m])}
    return bp.BranchingProgram(n, m, tuple(sizes), transitions, leaf_labels)


# Heavy slots: n=4, m=3, layer sizes from widths 4-6, r=n.  Their
# reductions reach output widths of about 900-1,100 and 1,350-1,550 and take
# 5-8 s each, most of a pass.
HEAVY_SIZES = ((1, 4, 4, 4), (1, 6, 6, 6))
LIGHT_JOBS = 80
MEDIUM_JOBS = 20


def reduce_slots() -> list[Slot]:
    shape = np.random.default_rng(SHAPE_SEED)
    slots = []
    for i in range(LIGHT_JOBS):
        m = 2 + (i // 2) % 2
        width = 2 + i % 7
        sizes = (1,) + tuple(int(s) for s in shape.integers(1, width + 1, m))
        r = 3.0 if i % 2 == 0 else 2.5
        slots.append(Slot("reduce", "light", {"n": 3, "sizes": sizes, "r": r}))
    for i in range(MEDIUM_JOBS):
        width = 2 + i % 7
        sizes = (1,) + tuple(int(s) for s in shape.integers(1, width + 1, 2))
        slots.append(Slot("reduce", "medium", {"n": 4, "sizes": sizes, "r": 3.0}))
    for sizes in HEAVY_SIZES:
        slots.append(Slot("reduce", "heavy", {"n": 4, "sizes": sizes, "r": 4.0}))
    order = shape.permutation(len(slots))
    return [slots[i] for i in order]


def build_reduce(p: dict, rng, ctx: Context, jid: str):
    program = shaped_program(p["n"], p["sizes"], rng)
    text = json.dumps(bp.to_json_dict(program))
    src, out, rep = (ctx.path(jid, s) for s in ("in.json", "out.json", "report.json"))
    src.write_text(text)
    argv = ["reduce", "--in", str(src), "--r", repr(p["r"]),
            "--out", str(out), "--report", str(rep)]

    def run():
        return cli.dispatch(argv)

    def check(rc):
        require(rc == 0, f"reduce exited {rc}")
        report_bytes = rep.read_bytes()
        require(json.loads(report_bytes).get("all_ok") is True, "report all_ok is not true")
        out_bytes = out.read_bytes()
        bp.from_json_dict(json.loads(out_bytes))
        return sha(out_bytes), sha(out_bytes + report_bytes)

    return run, check, sha(text)


# ---------------------------------------------------------------- verify

FOURIER_INSTANCES = 6
PARTITION_INSTANCES = 80
DP_JOBS = 64
VALIDATE_JOBS = 48


def verify_slots() -> list[Slot]:
    shape = np.random.default_rng(SHAPE_SEED + 1)
    slots = []
    for n in (3, 4, 5, 6):
        for frac in (0.5, 0.75, 1.0):
            slots.append(Slot("fourier", f"n={n}",
                              {"n": n, "frac": frac, "count": FOURIER_INSTANCES}))
    for n in (2, 3, 4, 5):
        for frac in (0.5, 0.75, 1.0):
            slots.append(Slot("partition", f"n={n}",
                              {"n": n, "frac": frac, "count": PARTITION_INSTANCES}))
    for n in (2, 3, 4):
        slots.append(Slot("reach_bound", f"n={n}", {"n": n}))
    for i in range(DP_JOBS):
        n = 5 + i % 2
        width = int(shape.integers(16, 65))
        slots.append(Slot("dp", f"n={n}", {"n": n, "m": 3, "width": width}))
    combos = [(b, n, m) for n in (3, 4) for m in (2, 3) for b in ("gaussian", "greedy")]
    for i in range(VALIDATE_JOBS):
        program, n, m = combos[i % len(combos)]
        slots.append(Slot("validate", f"{program} n={n} m={m}",
                          {"program": program, "n": n, "m": m, "k": i % n}))
    order = shape.permutation(len(slots))
    return [slots[i] for i in order]


def _suite_job(suite: Callable[[int], dict]):
    def check(report):
        require(report["ok"] is True, f"suite failures: {report['failures'][:3]}")
        return None, sha(json.dumps(report, sort_keys=True))
    return suite, check


def build_fourier(p, rng, ctx, jid):
    s = int_seed(rng)
    run, check = _suite_job(lambda: suites.fourier_suite(
        p["count"], s, ns=(p["n"],), r_fracs=(p["frac"],)))
    return run, check, sha(repr((s, p)))


def build_partition(p, rng, ctx, jid):
    s = int_seed(rng)
    run, check = _suite_job(lambda: suites.partition_suite(
        p["count"], s, ns=(p["n"],), r_fracs=(p["frac"],)))
    return run, check, sha(repr((s, p)))


def build_reach_bound(p, rng, ctx, jid):
    # The suite's corpus is fixed constructions; its seed draws nothing.
    s = int_seed(rng)
    run, check = _suite_job(lambda: suites.reach_bound_suite(s, ns=(p["n"],)))
    return run, check, sha(repr((s, p)))


def program_key(program: bp.BranchingProgram) -> str:
    labels = sorted((k, w.to_text()) for k, w in program.leaf_labels.items())
    return sha(repr((program.n, program.layer_sizes, program.transitions, labels)))


def build_dp(p, rng, ctx, jid):
    program = generators.random_program(p["n"], p["m"], p["width"], rng)

    def run():
        return bp.success_probability(program), bp.output_dimension_distribution(program)

    def check(result):
        success, dims = result
        require(-1e-12 <= success <= 1 + 1e-12, f"success probability {success}")
        total = sum(dims.values())
        require(abs(total - 1.0) <= 1e-9, f"output-dimension masses sum to {total}")
        return None, sha(repr((success, sorted(dims.items()))))

    return run, check, program_key(program)


def build_validate(p, rng, ctx, jid):
    n, m = p["n"], p["m"]

    def run():
        if p["program"] == "gaussian":
            program, labels = generators.learner_program_with_labels(
                learners.gaussian_learner(n), m)
        else:
            program, labels = generators.greedy_recorder_program(n, m, p["k"])
        return bp.validate_affine(program, labels).ok, bp.success_probability(program)

    def check(result):
        ok, success = result
        require(ok, "affine validation failed")
        require(abs(success - 1.0) <= 1e-12, f"validated program succeeds with {success}")
        return None, sha(repr(result))

    return run, check, sha(repr(p))


# ---------------------------------------------------------------- stream

def binomial_plausible(hits: int, trials: int, p: float) -> bool:
    """Whether hits lies within the 5-sigma two-sided region of
    Binomial(trials, p), computed exactly rather than by the normal law."""
    if p <= 0.0 or p >= 1.0:
        return hits == round(p * trials)

    def log_pmf(k):
        return (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                + k * math.log(p) + (trials - k) * math.log1p(-p))

    lower = sum(math.exp(log_pmf(k)) for k in range(0, hits + 1))
    upper = sum(math.exp(log_pmf(k)) for k in range(hits, trials + 1))
    return min(lower, upper) >= FIVE_SIGMA / 2


def prefix_pivot_success(n: int, m: int) -> float:
    """Pr[Binomial(m, 1/2) >= n]: the prefix-pivot learner accepts each
    sample with probability 1/2 until it holds n rows, and outputs the key
    point exactly when it does."""
    return sum(math.comb(m, k) for k in range(n, m + 1)) / 2.0 ** m


# kind -> (learner factory, exact success probability after m samples)
LEARNERS = {
    "gaussian": (lambda n: learners.gaussian_learner(n),
                 lambda n, m: learners.rank_success_probability(n, m)),
    "prefix": (lambda n: learners.prefix_pivot_learner(n), prefix_pivot_success),
    "exhaustive": (lambda n: learners.exhaustive_learner(n),
                   lambda n, m: learners.exhaustive_success_exact(n, 3 * n, m)),
}


def stream_slots() -> list[Slot]:
    shape = np.random.default_rng(SHAPE_SEED + 2)
    slots = []
    slots += [Slot("gaussian", "n=8 m=12", {"n": 8, "m": 12, "trials": 300})] * 30
    slots += [Slot("prefix", "n=8 m=16", {"n": 8, "m": 16, "trials": 300})] * 20
    slots += [Slot("exhaustive", "n=6 m=150", {"n": 6, "m": 150, "trials": 120})] * 20
    slots += [Slot("attack", "n=6 s=126 m=18",
                   {"n": 6, "memory_bits": 126, "m": 18, "trials": 300})] * 20
    for i in range(20):
        n = (16, 40)[i % 2]
        slots.append(Slot("crypto", f"n={n}", {"n": n, "bytes": 512}))
    order = shape.permutation(len(slots))
    return [slots[i] for i in order]


def build_learner(kind):
    def build(p, rng, ctx, jid):
        factory, oracle = LEARNERS[kind]
        n, m, trials = p["n"], p["m"], p["trials"]
        stream_seed = int_seed(rng)

        def run():
            return learners.simulate_success(factory(n), m, trials,
                                             np.random.default_rng(stream_seed))

        def check(hits):
            exact = oracle(n, m)
            require(binomial_plausible(hits, trials, exact),
                    f"{hits}/{trials} hits against exact success {exact:.6f}")
            return sha(str(hits)), sha(str(hits))

        return run, check, sha(repr((p, stream_seed)))
    return build


def build_attack(p, rng, ctx, jid):
    n, s, m, trials = p["n"], p["memory_bits"], p["m"], p["trials"]
    stream_seed = int_seed(rng)

    def run():
        return crypto.run_attack(crypto.window_attacker(n, s), m, trials,
                                 np.random.default_rng(stream_seed))

    def check(report):
        hits = round(report.key_guess_rate * trials)
        exact = crypto.expected_point_recovery(n, min(m, s // (n + 1)))
        require(binomial_plausible(hits, trials, exact),
                f"{hits}/{trials} key recoveries against exact rate {exact:.6f}")
        return sha(str(hits)), sha(json.dumps(report.to_dict(), sort_keys=True))

    return run, check, sha(repr((p, stream_seed)))


def build_crypto(p, rng, ctx, jid):
    n = p["n"]
    key_hex = cli.key_to_hex(crypto.keygen(n, rng).x)
    payload = rng.bytes(p["bytes"])
    enc_seed = int_seed(rng)
    plain, blob, back = (ctx.path(jid, s) for s in ("plain", "blob", "back"))
    plain.write_bytes(payload)
    common = ["--key", key_hex, "--n", str(n)]

    def run():
        rc_enc = cli.dispatch(["crypto", "encrypt", *common, "--in", str(plain),
                               "--out", str(blob), "--seed", str(enc_seed)])
        rc_dec = cli.dispatch(["crypto", "decrypt", *common, "--in", str(blob),
                               "--out", str(back)])
        return rc_enc, rc_dec

    def check(codes):
        require(codes == (0, 0), f"encrypt/decrypt exited {codes}")
        require(back.read_bytes() == payload, "decrypted payload differs from the plaintext")
        digest = sha(blob.read_bytes())
        return digest, digest

    return run, check, sha(repr((key_hex, payload, enc_seed)))


# ---------------------------------------------------------------- registry

WORKLOADS: dict[str, Callable[[], list[Slot]]] = {
    "reduce": reduce_slots,
    "verify": verify_slots,
    "stream": stream_slots,
}

JOB_FACTORIES = {
    "reduce": build_reduce,
    "fourier": build_fourier,
    "partition": build_partition,
    "reach_bound": build_reach_bound,
    "dp": build_dp,
    "validate": build_validate,
    "gaussian": build_learner("gaussian"),
    "prefix": build_learner("prefix"),
    "exhaustive": build_learner("exhaustive"),
    "attack": build_attack,
    "crypto": build_crypto,
}


def smoke_slots(slots: list[Slot]) -> list[tuple[int, Slot]]:
    """The first slot of every (kind, size) pair, with its slot index."""
    seen = set()
    picked = []
    for i, slot in enumerate(slots):
        if (slot.kind, slot.size) not in seen:
            seen.add((slot.kind, slot.size))
            picked.append((i, slot))
    return picked


def build_pass(indexed: list[tuple[int, Slot]], ctx: Context) -> list[Job]:
    jobs = []
    for i, slot in indexed:
        jid = f"p{ctx.pass_index}.j{i:03d}"
        run, check, digest = JOB_FACTORIES[slot.kind](slot.params, ctx.rng(i), ctx, jid)
        jobs.append(Job(jid, slot.kind, slot.size, run, check, digest))
    return jobs


def warmup_jobs(indexed: list[tuple[int, Slot]], ctx: Context) -> list[Job]:
    """One job of each kind (its first slot), on data no pass uses."""
    first: dict[str, tuple[int, Slot]] = {}
    for i, slot in indexed:
        first.setdefault(slot.kind, (i, slot))
    warm = Context(ctx.seed, ctx.workdir, WARMUP_PASS)
    return build_pass(list(first.values()), warm)
