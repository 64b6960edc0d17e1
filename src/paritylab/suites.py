"""Property suites: randomized instance batteries with exact checking.

Each suite returns a JSON-ready dict with counts, margins, and an overall
ok flag; the CLI and the acceptance tests drive these directly.  Every
measured quantity meets its bound by distributions._within, the rule
BoundCheck's ok applies.
"""

from __future__ import annotations

from array import array

import numpy as np

from .distributions import (
    _check_support,
    _closeness_bound,
    _fourier_closeness,
    _within,
    check_table_dim,
    mixture_table,
)
from .generators import (
    _hypothesis_mixture,
    _mixture_pairs,
    _Words,
    derived_rng,
    greedy_recorder_program,
    learner_program_with_labels,
    random_program,
    selective_recorder_program,
)
from .gf2 import _span, coset_keys, hyperplane_masks, keys_mask
from .learners import gaussian_learner
from .lowerbound import verify_reach_bound
from .partition import _partition_ids, group_count_bound
from .reduction import reduce_to_affine

R_FRACS = (0.5, 0.75, 1.0)  # the r / n cells of the Fourier and partition suites


def _cells(count: int, ns: tuple[int, ...], r_fracs: tuple[float, ...],
           rs: tuple[float, ...] | None) -> list[tuple[int, float]]:
    """The (n, r) of each instance: n cycles through ns, and r through
    the absolute rs when given, else through r_fracs times n."""
    cells = []
    for i in range(count):
        n, j = ns[i % len(ns)], i // len(ns)
        cells.append((n, rs[j % len(rs)] if rs else r_fracs[j % len(r_fracs)] * n))
    return cells


def _report(suite: str, count: int, failures: list, ok: bool | None = None,
            **figures) -> dict:
    """A suite's report: its name, count and passed, then its figures in
    the order given, then its failures and ok (no failures, unless ok is
    given)."""
    return {"suite": suite, "count": count, "passed": count - len(failures), **figures,
            "failures": failures, "ok": not failures if ok is None else ok}


def fourier_suite(count: int, seed: int,
                  ns: tuple[int, ...] = (3, 4, 5, 6),
                  r_fracs: tuple[float, ...] = R_FRACS,
                  rs: tuple[float, ...] | None = None) -> dict:
    """Random hypothesis-satisfying mixtures: the mixture law must sit
    within 2^{-(r - n/2)} of uniform every single time.  The mixtures are
    random_hypothesis_mixture's, drawn through one reader for the call as
    canonical pairs and weights, and checked on their members' key ids
    and points (see _members)."""
    failures = []
    min_margin = float("inf")
    cells = _cells(count, ns, r_fracs, rs)
    for n, _ in cells:  # the weight table's cap, before the first draw
        check_table_dim(n)
    with _Words(derived_rng(seed, 1)) as words:
        for n, r in cells:
            pairs, weights = _hypothesis_mixture(n, r, words)
            check = _fourier_closeness(n, r, *_members(n, pairs, weights), weights)
            row = check.closeness
            min_margin = min(min_margin, row.margin)
            if not (check.hypothesis_holds and row.ok):
                failures.append({"n": n, "r": r, "distance": row.measured, "bound": row.bound,
                                 "hypothesis_holds": check.hypothesis_holds})
    return _report("fourier", count, failures, min_margin=min_margin)


def _members(n: int, pairs: list[tuple[tuple[int, ...], int]],
             weights: list[float]) -> tuple[list[frozenset[int]], list[list[int]]]:
    """The key ids and points of a mixture's members, given as canonical
    (rows, offset) pairs and weights, after SubspaceMixture's checks."""
    _check_support(zip(pairs, weights))
    return ([coset_keys(n, rows, offset) for rows, offset in pairs],
            [_span(offset, rows) for rows, offset in pairs])


def _group_rows(n: int, groups: list[list[tuple[list[int], float]]], table: array) -> None:
    """Append to table one row of 2^n floats per group: the mixture_table
    of its members' conditional law, each member's (points, p / mass),
    mass summed in member order.  A group is its members' (points, mass)
    in member order."""
    for group in groups:
        mass = sum(p for _, p in group)
        table.frombytes(mixture_table(n, [(points, p / mass) for points, p in group]).tobytes())


def _group_distances(n: int, table: array, reps: list[int], dims: list[int]) -> list[float]:
    """Each table row's l1 distance to the uniform law on its group's
    representative (a point mask of dimension dims[g]), in one pass over
    all the rows."""
    size = 1 << n
    nbytes = (size + 7) // 8  # a representative's bits, point 0 first
    bits = np.unpackbits(np.frombuffer(b"".join(rep.to_bytes(nbytes, "little") for rep in reps),
                                       np.uint8), bitorder="little")
    scale = np.array([2.0 ** -d for d in dims])[:, None]
    diff = bits.reshape(len(reps), 8 * nbytes)[:, :size] * scale  # the uniform rows
    np.subtract(np.frombuffer(table).reshape(len(reps), size), diff, out=diff)
    return np.abs(diff, out=diff).sum(axis=1).tolist()


def partition_suite(count: int, seed: int,
                    ns: tuple[int, ...] = (2, 3, 4, 5),
                    r_fracs: tuple[float, ...] = R_FRACS,
                    rs: tuple[float, ...] | None = None) -> dict:
    """Random mixtures: all four grouping properties, checked exactly.

    The instances are point masks from draw to check: each member's key
    ids and 2^n-bit point mask come from its drawn (rows, offset) pair,
    the rounds from the partition core (build_partition without the
    objects), each representative's mask from its chosen key ids, and
    containment is a mask test.  The mixtures are random_mixture's, drawn
    through one reader for the call.  Each instance leaves its groups'
    rows in one table per n, and the group distances come from one pass
    per n once every instance is drawn."""
    failures = []
    worst_residual = 0.0
    min_group_margin = float("inf")
    cells = _cells(count, ns, r_fracs, rs)
    for n, _ in cells:  # hyperplane_masks' and the weight table's cap, before the first draw
        check_table_dim(n)
    # per n: the group rows, representatives and dimensions of every instance
    tables = {n: (array("d"), [], []) for n, _ in cells}
    # per instance: n, r, its problems so far, its groups' containment
    # flags and its count problems
    checked = []
    with _Words(derived_rng(seed, 2)) as words:
        for n, r in cells:
            pairs, weights = _mixture_pairs(n, words)
            keys, points = _members(n, pairs, weights)
            rounds, residual = _partition_ids(n, keys, weights, r)
            problems = []
            residual_mass = sum(weights[i] for i in residual)
            if not _within(residual_mass, 2.0 ** (-2 * n)):
                problems.append("residual")
            worst_residual = max(worst_residual, residual_mass)
            even = hyperplane_masks(n)
            reps = [keys_mask(even, chosen) for chosen, _ in rounds]
            dims = [rep.bit_count().bit_length() - 1 for rep in reps]
            if len(set(reps)) != len(reps):
                problems.append("duplicate representatives")
            masks = [sum(1 << x for x in span) for span in points]  # the points are distinct
            contained = [not any(masks[i] & ~rep for i in taken)
                         for rep, (_, taken) in zip(reps, rounds)]
            counts = [f"count k={k}" for k in range(n + 1)
                      if not _within(sum(d >= k for d in dims), group_count_bound(n, r, k))]
            table, all_reps, all_dims = tables[n]
            _group_rows(n, [[(points[i], weights[i]) for i in taken] for _, taken in rounds],
                        table)
            all_reps += reps
            all_dims += dims
            checked.append((n, r, problems, contained, counts))
    # each n's distances, read in instance order
    distances = {n: iter(_group_distances(n, *table)) for n, table in tables.items()}
    for n, r, problems, contained, counts in checked:
        step_bound = _closeness_bound(n, r)
        for ok, dist in zip(contained, distances[n]):
            if not ok:
                problems.append("containment")
            min_group_margin = min(min_group_margin, step_bound - dist)
            if not _within(dist, step_bound):
                problems.append("group distance")
        problems += counts
        if problems:
            failures.append({"n": n, "r": r, "problems": problems})
    return _report("partition", count, failures, worst_residual=worst_residual,
                   min_group_margin=min_group_margin)


def reduction_suite(count: int, seed: int,
                    ns: tuple[int, ...] = (2, 3, 4)) -> dict:
    """Random programs of length 1-3 and width 2-8 through the affine
    simulation, fully re-verified."""
    rng = derived_rng(seed, 3)
    failures = []
    for i in range(count):
        n = int(ns[i % len(ns)])
        m = int(rng.integers(1, 4))
        width = int(rng.integers(2, 9))
        r = float(n) if i % 2 == 0 else n / 2 + 1.0
        bp = random_program(n, m, width, rng)
        red = reduce_to_affine(bp, r)
        if not red.report.all_ok:
            failures.append({"n": n, "m": m, "width": width, "r": r,
                             "report": red.report.to_dict()})
    return _report("reduction", count, failures)


def _reach_bound_corpus(ns: tuple[int, ...]):
    for n in ns:
        for k in range(0, n):
            yield greedy_recorder_program(n, min(n, 3), k), k
        yield selective_recorder_program(n, 2, 1), n - 1
        # two samples leave the Gaussian learner's labels dim >= n - 2
        yield learner_program_with_labels(gaussian_learner(n), 2), max(n - 2, 0)


def reach_bound_suite(seed: int, ns: tuple[int, ...] = (2, 3, 4)) -> dict:
    """Constructed affine programs: every vertex at the minimum label
    dimension obeys the reach-probability cap.

    Each program is checked once by lowerbound.verify_reach_bound.
    """
    count = 0
    failures = []
    min_margin = float("inf")
    for (bp, labels), k in _reach_bound_corpus(ns):
        affine, rows = verify_reach_bound(bp, labels, k)
        if not affine:
            failures.append({"n": bp.n, "k": k, "problem": "not affine"})
            continue
        for vertex, row in rows:
            count += 1
            min_margin = min(min_margin, row.margin)
            if not row.ok:
                failures.append({"n": bp.n, "k": k, "vertex": list(vertex),
                                 "exact": row.measured, "bound": row.bound})
    return _report("reach_bound", count, failures, ok=count > 0 and not failures,
                   min_margin=min_margin)


def run_all_suites(seed: int, trials: int, ns: tuple[int, ...] | None = None,
                   rs: tuple[float, ...] | None = None) -> dict:
    """Every suite, the reach-bound suite first (each suite draws from a
    stream of its own); the Fourier and partition suites run at the
    absolute rs when given, else at the R_FRACS cells."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    given = {"ns": ns} if ns else {}  # else each suite's own default
    for n in ns or ():  # the weight tables' cap names an n past 12 before any suite runs
        check_table_dim(n)
    # the reach-bound suite first: it draws nothing, and past n = 6 its
    # recorder programs exceed the state budget within milliseconds
    reach_bound = reach_bound_suite(seed, **given)
    reports = {
        "fourier": fourier_suite(trials, seed, rs=rs, **given),
        "partition": partition_suite(trials, seed, rs=rs, **given),
        "reduction": reduction_suite(max(4, trials // 8), seed, **given),
        "reach_bound": reach_bound,
    }
    return {
        "seed": seed,
        "trials": trials,
        "suites": reports,
        "ok": all(rep["ok"] for rep in reports.values()),
    }
