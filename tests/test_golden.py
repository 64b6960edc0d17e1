"""Golden digests of deterministic outputs.

Each test hashes a canonical JSON rendering of outputs that must stay
byte-identical across refactors: unrolled recorder and learner programs,
affine reductions of the reduction-suite corpus, the Fourier-suite
mixture corpus, the partition suite's groupings, the CLI bytes of a
light, a medium and a multi-round reduction, cipher streams, Monte Carlo hit counts and
window-attack reports.  A
digest changes only when an integer output, a label, a check flag, a
reported float, an output byte or the number of random draws changes.
"""

import hashlib
import json

import numpy as np
import pytest

from paritylab import suites
from paritylab.bp import to_json_dict
from paritylab.cli import dispatch
from paritylab.generators import (
    greedy_recorder_program,
    learner_program_with_labels,
    random_program,
    selective_recorder_program,
)
from paritylab.crypto import encode_stream, keygen, run_attack, window_attacker
from paritylab.gf2 import AffineSubspace, BitVector, VectorSubspace, keys_subspace
from paritylab.learners import (
    exhaustive_learner,
    gaussian_learner,
    prefix_pivot_learner,
    simulate_success,
)

SEED = 20240917


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _program_corpus(n):
    for k in range(n):
        yield f"greedy k={k}", greedy_recorder_program(n, min(n, 3), k)
    yield "selective", selective_recorder_program(n, 2, 1)
    yield "gaussian", learner_program_with_labels(gaussian_learner(n), 2)
    yield "prefix", learner_program_with_labels(prefix_pivot_learner(n), 2)


PROGRAM_DIGESTS = {
    2: "d256b6275f526dd7880637cb090f05c478289259130701c7e63e1bdcb8736fea",
    3: "f8e8f467fe461fc21216080bb32914f1a04a9f223235987dfa7e6db0404db759",
    4: "11bea55261c6c05e8fd3b89143807c34b3710acf4bc6b60c212d78db3fcf4403",
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unrolled_programs(n):
    docs = {name: to_json_dict(bp, labels) for name, (bp, labels) in _program_corpus(n)}
    assert _digest(docs) == PROGRAM_DIGESTS[n]


def _recording(monkeypatch, name):
    """Wrap suites.<name> so every call's argument and result are kept."""
    calls = []
    inner = getattr(suites, name)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(suites, name, wrapper)
    return calls


def test_reduction_suite_corpus(monkeypatch):
    calls = _recording(monkeypatch, "reduce_to_affine")
    assert suites.reduction_suite(8, SEED)["ok"]
    docs = []
    for _, red in calls:
        rep = red.report.to_dict()
        flags = {key: [(c["name"], c["binding"], c["ok"]) for c in rep[key]]
                 for key in ("accuracy", "inductive", "dimension_counts", "output_dimension")}
        docs.append({"program": to_json_dict(red.program, red.labels, red.gamma),
                     "group_counts": red.group_counts,
                     "flags": flags, "all_ok": rep["all_ok"]})
    assert len(docs) == 8
    assert _digest(docs) == (
        "a3f3ed2f4abeb21cccd9cd8844723df68a9fc0bb772998316da9b02b844bfe44")
    # Every check's measured float and the output-dimension law, bit for bit.
    measured = [{"measured": {key: [repr(c.measured) for c in getattr(red.report, key)]
                              for key in ("accuracy_checks", "inductive_checks",
                                          "dim_count_checks", "output_dim_checks")},
                 "output_dim_distribution": [[d, repr(p)] for d, p in
                                             sorted(red.report.output_dim_distribution.items())]}
                for _, red in calls]
    assert _digest(measured) == (
        "2d422e60331ba08bd15f0cdc488383ccd99d97955c4509204a5518be6a5abd3f")


def test_fourier_suite_corpus(monkeypatch):
    """Each instance's drawn pairs and weights, as subspace texts and
    reprs, and its check."""
    draws = _recording(monkeypatch, "_hypothesis_mixture")
    checks = _recording(monkeypatch, "_fourier_closeness")
    assert suites.fourier_suite(24, SEED)["ok"]
    assert len(draws) == len(checks) == 24
    docs = []
    for ((n, r, _), (pairs, weights)), (_, check) in zip(draws, checks):
        worst = check.worst_hyperplane
        texts = [AffineSubspace(n, VectorSubspace(n, rows), offset).to_text()
                 for rows, offset in pairs]
        docs.append({"r": r,
                     "support": [[text, repr(p)] for text, p in zip(texts, weights)],
                     "holds": check.hypothesis_holds,
                     "concentration": repr(check.max_concentration),
                     "worst": None if worst is None else [str(BitVector(n, worst[0])), worst[1]]})
    assert _digest(docs) == (
        "502f3c11c729a19c990a7554f05a113530186c299f4dfdc6b03d06b707bba3ec")


def test_partition_suite_groupings(monkeypatch):
    """Each instance's members and representatives, as the subspaces of
    their key ids."""
    calls = _recording(monkeypatch, "_partition_ids")
    assert suites.partition_suite(24, SEED)["ok"]
    assert len(calls) == 24
    docs = []
    for (n, keys, _, _), (rounds, residual) in calls:
        texts = [keys_subspace(n, ids).to_text() for ids in keys]
        docs.append({"groups": [[keys_subspace(n, chosen).to_text(), [texts[i] for i in taken]]
                                for chosen, taken in rounds],
                     "residual": [texts[i] for i in residual]})
    assert _digest(docs) == (
        "33e9d8180541ca91dce97790726e7a349b23b03fd047bc37c11d813b056165de")


def test_reduce_cli_multi_round(tmp_path):
    """`reduce --out` and `--report` bytes for an n=4, r=4 program whose
    partitions run many rounds per vertex (output layers 1, 17, 139, 641)."""
    program = random_program(4, 3, 4, np.random.default_rng(1))
    src, out, rep = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "report.json"
    src.write_text(json.dumps(to_json_dict(program)))
    assert dispatch(["reduce", "--in", str(src), "--r", "4.0",
                     "--out", str(out), "--report", str(rep)]) == 0
    assert json.loads(out.read_text())["layer_sizes"] == [1, 17, 139, 641]
    digest = hashlib.sha256(out.read_bytes() + rep.read_bytes()).hexdigest()
    assert digest == (
        "9b97e82931fa13790c4241e759ec54945b0cb88d4e1ce6a7c1c88959a4975c14")


# (n, m, width, program seed, r) -> (output layer sizes, digest of the
# --out and --report bytes): a light and a medium reduction.
REDUCE_CLI_DIGESTS = {
    (3, 3, 5, 4, 2.5): ([1, 15, 55, 77], "5c7569bf3579da873bca5b61ef8bd43fc39bdcf46aa9fca9017accae1c2bec56"),
    (4, 2, 6, 4, 3.0): ([1, 25, 146], "5dab6baa467866c52f154af1e2d2284fb305e9941e292a38afed4dc498efc46e"),
}


@pytest.mark.parametrize("case", sorted(REDUCE_CLI_DIGESTS), ids=str)
def test_reduce_cli_bytes(tmp_path, case):
    n, m, width, seed, r = case
    program = random_program(n, m, width, np.random.default_rng(seed))
    src, out, rep = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "report.json"
    src.write_text(json.dumps(to_json_dict(program)))
    assert dispatch(["reduce", "--in", str(src), "--r", repr(r),
                     "--out", str(out), "--report", str(rep)]) == 0
    sizes = json.loads(out.read_text())["layer_sizes"]
    digest = hashlib.sha256(out.read_bytes() + rep.read_bytes()).hexdigest()
    assert (sizes, digest) == REDUCE_CLI_DIGESTS[case]


STREAM_DIGESTS = {
    1: "5c643832bbf8a4471fb7356e40e607b4b5a50274b6fe4a61878a785c9f5362fe",
    8: "74736b474ae907edf2a07a3eae5d87c7e75e49a23c88993ab186898a46f7b467",
    16: "759d23618437f6c5e2ed4ebbaa2a2e1496a2ba31d4cc0addb2e8a78a085e40bb",
    40: "91d360fc3ae7bc2015bec5dd4d754357f56a9af151a933495257cbc492cafe11",
    64: "99ed46a9915734840cce006df5e31fb6eedebf99ad51fe9ac5f93c385dba0a3f",
    65: "9c4c057d121c70994cb337f17c50c9ed69188f9d48b7cb748bed1a63be0905ee",
}


@pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
def test_encode_stream_blobs(n):
    """Three streams on one generator (37 bytes, empty, 5 bytes), then 8
    more generator bytes: pins the frames and the draws each stream uses."""
    rng = np.random.default_rng(SEED + n)
    key = keygen(n, rng)
    h = hashlib.sha256()
    for payload in (rng.bytes(37), b"", rng.bytes(5)):
        h.update(encode_stream(key, payload, rng))
    h.update(rng.bytes(8))
    assert h.hexdigest() == STREAM_DIGESTS[n]


LEARNER_FACTORIES = {"gaussian": gaussian_learner, "prefix": prefix_pivot_learner,
                     "exhaustive": exhaustive_learner}

# (learner, n, m, trials, seed) -> (hits, the generator's next draw)
HIT_COUNTS = {
    ("gaussian", 8, 12, 300, 1): (281, 444453315),
    ("gaussian", 3, 0, 40, 2): (0, 357541904),
    ("gaussian", 1, 2, 50, 3): (36, 575717924),
    ("prefix", 8, 16, 300, 4): (174, 635560734),
    ("prefix", 4, 0, 40, 5): (0, 1029825122),
    ("prefix", 5, 9, 200, 6): (99, 521814866),
    ("exhaustive", 6, 150, 120, 7): (119, 557475885),
    ("exhaustive", 3, 0, 40, 8): (0, 29361301),
    ("exhaustive", 3, 23, 200, 9): (182, 470920985),
    ("exhaustive", 1, 4, 50, 10): (32, 416006885),
}


@pytest.mark.parametrize("case", sorted(HIT_COUNTS), ids=str)
def test_simulate_success_hits(case):
    kind, n, m, trials, seed = case
    rng = np.random.default_rng(seed)
    hits = simulate_success(LEARNER_FACTORIES[kind](n), m, trials, rng)
    assert (hits, int(rng.integers(0, 1 << 30))) == HIT_COUNTS[case]


# (n, memory bits s, m, trials, seed) -> (digest of the report, the
# generator's next draw).  Capacity floor(s / (n+1)): 0, 0 (s < n+1),
# 2 (s not a multiple of n+1), 2 with m = 0, 4 with m below it, 3 with m
# above it, 9 at full rank, and n = 1.
ATTACK_REPORTS = {
    (4, 0, 5, 60, 1): ("c894e9ebab5aa5533fa44dba616e9099b6e742670cbe3a4a57111f061bad72de", 1049699842),
    (5, 3, 6, 60, 2): ("4d399dd8e4227347cc201beac3043a4a293925156826bb06686abe5fddd89451", 24241716),
    (4, 13, 7, 80, 3): ("226547dacc51c3f9cbd8352d652602c653525190d3cf9d7db79e8b0c4c26e1d8", 171061919),
    (3, 8, 0, 40, 4): ("524b4a3dd4290f323ee442b15f9592676ff516c4f6be70836cfdf0a7e5c66630", 628103762),
    (5, 26, 2, 80, 5): ("c379175cf036e0deaaf26d2944ec1a159679d9efe7a352561c5ea09bbdc7ac39", 830033004),
    (6, 21, 9, 100, 6): ("e4e2ef19204c3567085180d89e3cff6d8a8031e96af4d77c674f97e67db81fe6", 553800996),
    (3, 36, 9, 100, 7): ("be3a722b7f5f6a24ea08c53ff13b872ed068d5167e7c55fe8f74fb1f1ed62af2", 411771712),
    (1, 5, 3, 50, 8): ("ced8b83f6fc34293793033b6f46bd64ec3fcbebcc2e2f443f032a9e6add05fb6", 398536908),
}


@pytest.mark.parametrize("case", sorted(ATTACK_REPORTS), ids=str)
def test_run_attack_reports(case):
    n, s, m, trials, seed = case
    rng = np.random.default_rng(seed)
    report = run_attack(window_attacker(n, s), m, trials, rng)
    assert (_digest(report.to_dict()), int(rng.integers(0, 1 << 30))) == ATTACK_REPORTS[case]


@pytest.mark.parametrize("case", sorted(ATTACK_REPORTS), ids=str)
def test_attack_advantage_inside_its_interval(case):
    """next_bit_ci bounds next_bit_advantage, |p - 1/2|, not p itself."""
    n, s, m, trials, seed = case
    report = run_attack(window_attacker(n, s), m, trials, np.random.default_rng(seed))
    lo, hi = report.next_bit_ci
    assert 0.0 <= lo <= report.next_bit_advantage <= hi <= 0.5
