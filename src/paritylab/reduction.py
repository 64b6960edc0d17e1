"""Layer-by-layer simulation of a branching program by an accurate affine one.

Each original vertex v is split into one vertex per representative of a
subspace grouping built from the incoming edge subspaces (weighted by the
idealized process that pairs each vertex with a uniform point of its
label), plus a catch-all vertex labeled with the full space.  Incoming
edges are rewired to the group of their edge subspace; outgoing edges are
duplicated.  The simulation map, the idealized per-layer marginals, and
every measured bound are retained for independent verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from .bp import (
    BranchingProgram,
    Labels,
    _check_dp_cost,
    _check_layer_edges,
    check_dp_budget,
    forward_tables,
    labelled_program,
    layer_accuracy,
    output_dimension_distribution,
    success_probability,
    validate_affine,
)
from .config import dp_budget, state_budget
from .distributions import BoundCheck, _closeness_bound, check_r, uniform_rows
from .gf2 import AffineSubspace, edge_masks, hyperplane_masks, keys_mask, mask_keys, mask_subspace
from .partition import _partition_ids, group_count_bound


@dataclass(frozen=True)
class ReductionReport:
    n: int
    m: int
    r: float
    beta: float
    epsilon: float
    affine_ok: bool
    gamma_ok: bool
    accuracy_checks: tuple[BoundCheck, ...]
    inductive_checks: tuple[BoundCheck, ...]
    dim_count_checks: tuple[BoundCheck, ...]
    output_dim_checks: tuple[BoundCheck, ...]
    output_dim_distribution: dict[int, float]
    dim_vertex_counts: dict[int, int]
    width_expansion_ok: bool

    @property
    def all_ok(self) -> bool:
        checks = (self.accuracy_checks + self.inductive_checks
                  + self.dim_count_checks + self.output_dim_checks)
        return (self.affine_ok and self.gamma_ok and self.width_expansion_ok
                and all(c.ok for c in checks))

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "r": self.r,
            "beta": self.beta, "epsilon": self.epsilon,
            "affine_ok": self.affine_ok, "gamma_ok": self.gamma_ok,
            "width_expansion_ok": self.width_expansion_ok,
            "accuracy": [c.to_dict() for c in self.accuracy_checks],
            "inductive": [c.to_dict() for c in self.inductive_checks],
            "dimension_counts": [c.to_dict() for c in self.dim_count_checks],
            "output_dimension": [c.to_dict() for c in self.output_dim_checks],
            "output_dim_distribution": {str(k): v for k, v in sorted(self.output_dim_distribution.items())},
            "dim_vertex_counts": {str(k): v for k, v in sorted(self.dim_vertex_counts.items())},
            "all_ok": self.all_ok,
        }


@dataclass(frozen=True)
class AffineReduction:
    """The affine program plus everything needed to re-verify it."""

    program: BranchingProgram
    labels: Labels
    gamma: tuple[tuple[int, ...], ...]
    ideal_marginals: tuple[tuple[float, ...], ...]
    group_counts: tuple[tuple[int, ...], ...]   # per layer, groups per original vertex
    r: float                                    # grouping strength, n/2 <= r <= n
    report: ReductionReport | None = field(default=None, compare=False)


def reduce_to_affine(bp: BranchingProgram, r: float) -> AffineReduction:
    """Transform bp into an accurate affine program at grouping strength r.

    Requires n >= 1 (group_count_bound is 0 at n = 0), n/2 <= r <= n
    and every leaf of bp in the last layer.  The idealized joint law of
    (vertex, key) is propagated exactly: conditioned on a vertex, the
    idealized key is uniform on the vertex label, so only the vertex
    marginals need to be carried between layers.  Raises BudgetExceeded
    when a reduced layer's width times its 2^{n+1} out-edges exceeds the
    state budget, or times 4^n and m the DP budget that verify_reduction
    runs under, in the partition round that takes the layer past either.

    Subspaces work as point masks (see gf2.point_mask) here: a mask is
    the exact hash key of a non-empty subspace, so every dict below keeps
    the first-appearance order and every float of the subspace-keyed
    loop.  A mask's key ids and a representative's label come from the
    per-process memos gf2.mask_keys and gf2.mask_subspace, so equal
    labels share one object while the memo holds it.
    """
    n, m = bp.n, bp.m
    if n < 1:
        raise ValueError(f"reduction needs n >= 1, got n={n}")
    check_r(n, r, top=1)
    if bp.has_early_leaves():
        raise ValueError("reduction needs every leaf in the last layer")
    check_dp_budget(bp)  # before the 4^n-bit hyperplane_masks table
    even = hyperplane_masks(n)
    points = even[0]
    full = AffineSubspace.full(n)
    scale = 2.0 ** (-n)
    edge_pairs: dict[int, list[tuple[int, float]]] = {}  # per label mask

    layer_labels: list[tuple[AffineSubspace, ...]] = [(full,)]
    label_masks: list[int] = [points]
    gamma: list[tuple[int, ...]] = [(0,)]
    marginals: list[tuple[float, ...]] = [(1.0,)]
    group_counts: list[tuple[int, ...]] = []
    transitions: list[tuple[tuple[int, ...], ...]] = []

    _check_width(1, n, m, 0)  # layer 0, the start vertex
    for j in range(1, m + 1):
        prev_gamma = gamma[j - 1]
        prev_q = marginals[j - 1]
        b_size = bp.layer_sizes[j]
        cap = _width_cap(n, m, j)
        _check_width(b_size, n, m, j)  # each vertex of the layer keeps a catch-all

        # Idealized one-step propagation: from vertex u with marginal q(u),
        # drawing a uniform and b = a.y with y uniform on label(u) puts
        # mass q(u) * 2^{-n} * Pr[a.y = b] on the edge subspace
        # label(u) ∩ {a.x = b}; consistent constraints keep probability
        # 1 (dimension preserved) or 1/2 (dimension drops).  The mass
        # dicts are keyed by edge mask, in (u, a, b) order.
        mass: list[dict[int, float]] = [dict() for _ in range(b_size)]
        edges: list[tuple[tuple[int, ...], list[tuple[int, float]]]] = []
        for u, lab in enumerate(label_masks):
            row = bp.transitions[j - 1][prev_gamma[u]]
            pairs = edge_pairs.get(lab)
            if pairs is None:
                # (edge mask, Pr[a.y = b] for y uniform on the label)
                pairs = edge_pairs[lab] = [(e, 0.0 if not e else 1.0 if e == lab else 0.5)
                                           for e in edge_masks(lab, even)]
            edges.append((row, pairs))
            q_u = prev_q[u]
            if q_u > 0.0:
                for v_orig, (e, p_cond) in zip(row, pairs):
                    if p_cond:
                        acc = mass[v_orig]
                        acc[e] = acc.get(e, 0.0) + q_u * p_cond * scale

        # Partition each vertex's edge masks, normalized as
        # SubspaceMixture.from_pairs does.  slot_of[v] maps every member
        # mask to its new vertex (sigma), and the empty mask 0 to the
        # catch-all vertex; reps_of[v] holds (complement of the
        # representative's mask, new vertex) in round order.
        new_labels: list[AffineSubspace] = []
        new_masks: list[int] = []
        new_gamma: list[int] = []
        new_q: list[float] = []
        slot_of: list[dict[int, int]] = []
        reps_of: list[list[tuple[int, int]]] = []
        counts: list[int] = []
        for v in range(b_size):
            members = list(mass[v])
            total = sum(mass[v].values())
            slots: dict[int, int] = {}
            reps: list[tuple[int, int]] = []
            star_mass = 0.0
            if total > 0.0:
                probs = [p / total for p in mass[v].values()]
                keys = [mask_keys(n, e) for e in members]
                # this vertex's catch-all and those of the vertices after
                # it are still to come: refuse the round that passes cap
                part = _partition_ids(n, keys, probs, r, cap - len(new_labels) - (b_size - v))
                if part is None:
                    _check_width(cap + 1, n, m, j)
                rounds, residual = part
                group_masses = []
                for chosen, taken in rounds:
                    rep = keys_mask(even, chosen)
                    slot = len(new_labels)
                    slots.update((members[i], slot) for i in taken)
                    reps.append((~rep, slot))
                    group_masses.append(sum([probs[i] for i in taken]))
                    new_labels.append(mask_subspace(n, rep))
                    new_masks.append(rep)
                    new_gamma.append(v)
                    new_q.append(group_masses[-1] * total)
                slots.update((members[i], len(new_labels)) for i in residual)
                star_mass = total - sum(group_masses)
            slots[0] = len(new_labels)
            slot_of.append(slots)
            reps_of.append(reps)
            new_labels.append(full)
            new_masks.append(points)
            new_gamma.append(v)
            new_q.append(max(star_mass, 0.0))
            counts.append(len(reps))

        # An edge mask of zero idealized mass is in no slot_of: it goes
        # to the earliest representative containing it (the scan
        # SubspacePartition.assign makes), else to the catch-all vertex.
        rewired: list[tuple[int, ...]] = []
        for row, pairs in edges:
            row_new = []
            for v_orig, (e, _) in zip(row, pairs):
                slot = slot_of[v_orig].get(e)
                if slot is None:
                    slot = next((s for outside, s in reps_of[v_orig] if not e & outside),
                                slot_of[v_orig][0])
                row_new.append(slot)
            rewired.append(tuple(row_new))

        transitions.append(tuple(rewired))
        layer_labels.append(tuple(new_labels))
        label_masks = new_masks
        gamma.append(tuple(new_gamma))
        marginals.append(tuple(new_q))
        group_counts.append(tuple(counts))

    labels = tuple(layer_labels)
    reduction = AffineReduction(labelled_program(n, transitions, labels), labels, tuple(gamma),
                                tuple(marginals), tuple(group_counts), r)
    return replace(reduction, report=verify_reduction(bp, reduction))


def _width_cap(n: int, m: int, j: int) -> int:
    """The most vertices reduced layer j may hold: one more fails
    _check_width."""
    cap = dp_budget() // (4 ** n * max(m, 1))
    return cap if j == m else min(cap, state_budget() // (2 << n))


def _check_width(width: int, n: int, m: int, j: int) -> None:
    """Raise BudgetExceeded when reduced layer j's width puts the DP that
    verify_reduction runs over its budget or, for j < m, the layer's
    out-edges over the state budget."""
    _check_dp_cost(width, n, m)
    if j < m:
        _check_layer_edges(width, n, j)


def _ideal_joint(marginals: tuple[float, ...], rows: np.ndarray) -> np.ndarray:
    """The idealized joint law of (vertex, key) at one layer: q(v) times
    row v of the layer's uniform_rows, and a zero row where q(v) <= 0."""
    q = np.array(marginals)
    joint = q[:, None] * rows
    joint[q <= 0.0] = 0.0
    return joint


def verify_reduction(bp: BranchingProgram, red: AffineReduction) -> ReductionReport:
    """Recompute every reported quantity of a reduction from scratch, at
    the reduction's own r."""
    n, m, r = bp.n, bp.m, red.r
    check_r(n, r, top=1)
    program, labels = red.program, red.labels
    step = _closeness_bound(n, r)
    eps = 4 * m * step

    affine_ok = validate_affine(program, labels).ok
    beta = success_probability(bp)

    # One forward sweep of the reduced program serves the accuracy, the
    # inductive and (kept by forward_tables) the output-dimension checks,
    # and one tabulation of each layer's labels the first two.
    tables = forward_tables(program)
    rows = [uniform_rows(layer) for layer in labels]
    accuracy_checks = []
    for t, acc in enumerate(layer_accuracy(program, rows, tables)):
        bound = min(eps, 2.0)
        accuracy_checks.append(BoundCheck(f"accuracy[t={t}]", acc, bound, binding=eps < 2.0))

    inductive_checks = []
    for t in range(m + 1):
        measured = float(np.abs(tables[t] - _ideal_joint(red.ideal_marginals[t], rows[t])).sum())
        bound = min(2 * t * step, 2.0)
        inductive_checks.append(BoundCheck(
            f"inductive[t={t}]", measured, bound, binding=2 * t * step < 2.0))

    dim_counts: dict[int, int] = {}
    for layer in labels:
        for lab in layer:
            dim_counts[lab.dim] = dim_counts.get(lab.dim, 0) + 1
    dim_count_checks = []
    for k in range(n + 1):
        bound = group_count_bound(n, r, k) * bp.width * m if m else float("inf")
        dim_count_checks.append(BoundCheck(
            f"count[dim={k}]", float(dim_counts.get(k, 0)), bound, binding=m > 0))

    out_dims = output_dimension_distribution(program)
    output_dim_checks = []
    b_dims = [lab.dim for lab in bp.leaf_labels.values() if not lab.is_empty]
    if b_dims:
        k_prime = max(b_dims)
        for k in range(k_prime + 1, n):
            lower = beta - eps - 2.0 ** (-(k - k_prime))
            measured = sum(p for d, p in out_dims.items() if 0 <= d < k)
            output_dim_checks.append(BoundCheck(
                f"output[dim<{k}]", measured, lower, binding=lower > 0.0, lower=True))

    gamma_ok = _check_gamma(bp, red)
    width_ok = all(
        program.layer_sizes[j + 1]
        == sum(c + 1 for c in red.group_counts[j])
        for j in range(m))

    return ReductionReport(
        n=n, m=m, r=r, beta=beta, epsilon=eps,
        affine_ok=affine_ok, gamma_ok=gamma_ok,
        accuracy_checks=tuple(accuracy_checks),
        inductive_checks=tuple(inductive_checks),
        dim_count_checks=tuple(dim_count_checks),
        output_dim_checks=tuple(output_dim_checks),
        output_dim_distribution=out_dims,
        dim_vertex_counts=dim_counts,
        width_expansion_ok=width_ok,
    )


def _check_gamma(bp: BranchingProgram, red: AffineReduction) -> bool:
    """Structure preservation (layers to layers, leaves to leaves) and
    functionality preservation (every edge of the simulation exists in
    the original with the same label)."""
    program, gamma = red.program, red.gamma
    if len(gamma) != bp.m + 1:
        return False
    for t in range(bp.m + 1):
        if len(gamma[t]) != program.layer_sizes[t]:
            return False
        for u, orig in enumerate(gamma[t]):
            if not 0 <= orig < bp.layer_sizes[t]:
                return False
            if program.is_leaf(t, u) != bp.is_leaf(t, orig):
                return False
    # itemgetter of a row's 2^(n+1) >= 2 targets gives the tuple of their originals
    for t in range(bp.m):
        below = gamma[t + 1]
        for u, row in enumerate(program.transitions[t]):
            if row is not None and itemgetter(*row)(below) != bp.transitions[t][gamma[t][u]]:
                return False
    return True
