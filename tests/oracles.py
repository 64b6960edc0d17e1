"""Reference implementations that the package's tests compare it
against.

The partition reference keys its hyperplane tables by tuples (a, b) in a
dict, finds the heaviest one with its own dict argmax, and recurses in
projected coordinates through project_out and lift_back.  The per-round
partition core re-tabulates every remaining member, renormalized, in
every round: the form that the package's running level-0 table must
reproduce round for round.  The reduction reference runs the layer loop
on AffineSubspace keys: per label its edge subspaces, per vertex a
SubspaceMixture.from_pairs, the tuple partition, and edges routed
through sigma and SubspacePartition.assign.  The unroll reference is
the scalar loop that steps and numbers one state at a time.  The recorder
reference unrolls machines whose state is an AffineSubspace, stepped
through intersect_hyperplane, and the labelled-program reference calls a
learner's output once per vertex.  The layer-accuracy and ideal-joint
references tabulate one vertex's uniform law at a time, summing each
row by itself.  The success-probability reference tabulates the leaf
label's support at every leaf, the output-dimension reference sums each
leaf's row by itself, the gamma reference compares one edge at a time,
and the path reference follows one list of
samples (a, b) to a leaf.  The group-distance reference builds each
partition group's conditional SubspaceMixture before tabulating it, and
the per-instance group-distance reference tabulates one instance's
groups in a list table of its own and takes their distances in a numpy
pass of their own.  The partition-suite reference checks
random_mixture's objects through build_partition, is_subset and the
conditional mixture's distance, and the Fourier-suite reference draws
each instance through random_hypothesis_mixture, a reader of its own per
instance.  The
generator references build an AffineSubspace for every draw and a
SubspaceMixture for every attempt, kept or not, count the paths they
take, and draw straight from the Generator (the program reference one
call per vertex); they share only the packed-row kernel (_reduce,
_insert) with the package, since it decides
which draws a subspace consumes.  The attack reference steps the
attacker through run_learner once per sample, solves its output as an
AffineSubspace and samples it by indexing its points() list, with one
scalar rng.integers call per key, a_{m+1} and mask.  The Monte Carlo draw
reference draws per trial the key, then its m sample vectors, in two
calls.  The Walsh reference runs each butterfly stage one block at a
time.  The reach-bound reference builds m^(n-k) whatever its size and
scales it by 2^exponent, as a float when it can.  The sample-complexity
reference carries the last probe's (lower bound, success, half-width)
and the best bisection probe by hand.  The label-conversion references
are the uncached forms of gf2's per-process memos: the loop that reads
a mask's key ids off hyperplane_masks, point_mask through the orthogonal
space and to_text through BitVector.  All are kept
deliberately close to the
first implementations, so that any change to the fast paths is checked
against code that shares none of their logic beyond that.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np

from paritylab.bp import (
    BranchingProgram,
    _check_layer_edges,
    forward_tables,
    unroll,
)
from paritylab.crypto import AttackReport
from paritylab.distributions import (
    SLACK,
    SubspaceMixture,
    check_fourier_closeness,
    check_r,
    heaviest_hyperplane,
    hyperplane_mass,
    key_table,
    l1_distance,
    mixture_distribution,
    uniform_weights,
)
from paritylab.generators import derived_rng, random_hypothesis_mixture, random_mixture
from paritylab.gf2 import (
    AffineSubspace,
    BitVector,
    VectorSubspace,
    _check_vector,
    _insert,
    _reduce,
    hyperplane_keys,
    hyperplane_masks,
    intersect_hyperplane,
    is_subset,
    keys_mask,
    lowest_set_bit,
    orthogonal_space,
    parity,
)
from paritylab.learners import TradeoffPoint, run_learner, simulate_success, wilson_interval
from paritylab.partition import (
    PartitionGroup,
    SubspacePartition,
    build_partition,
    group_count_bound,
)
from paritylab.suites import R_FRACS, _cells, _report


def _drop_bit(v, pos):
    return (v & ((1 << pos) - 1)) | ((v >> (pos + 1)) << pos)


def _insert_zero_bit(v, pos):
    return (v & ((1 << pos) - 1)) | ((v >> pos) << (pos + 1))


def project_out(w, pivot):
    """Image of w under dropping one coordinate, a bijection when w lies
    in a hyperplane whose pivot it is."""
    rows = [_drop_bit(r, pivot) for r in w.direction.rows]
    return AffineSubspace(w.n - 1, VectorSubspace.from_rows(w.n - 1, rows),
                          _drop_bit(w.offset, pivot))


def lift_back(w, a, b, pivot):
    """Inverse of project_out onto the hyperplane {x : a.x = b}."""
    n = w.n + 1
    rows = []
    for r in w.direction.rows:
        v = _insert_zero_bit(r, pivot)
        v |= parity(a & v) << pivot
        rows.append(v)
    off = _insert_zero_bit(w.offset, pivot)
    off |= (b ^ parity(a & off)) << pivot
    return AffineSubspace(n, VectorSubspace.from_rows(n, rows), off)


def tuple_keys(w):
    """w's hyperplane keys as tuples (a, b), from the key ids 2a + b."""
    return frozenset((k >> 1, k & 1) for k in hyperplane_keys(w))


def tuple_heaviest(table):
    """The (a, b, mass) of largest mass in a dict table keyed by (a, b):
    ties to the smallest a, then b = 0; an empty table gives (e_1, 0, 0.0)."""
    if not table:
        return 1, 0, 0.0
    (a, b), p = max(table.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
    return a, b, p


def tuple_project_keys(keys, pivot):
    """Tuple keys (c, b) of project_out(w, pivot), given those of w."""
    return frozenset((_drop_bit(c, pivot), b) for c, b in keys if not (c >> pivot) & 1)


def tuple_find_rep(n, keys, probs, r):
    """Reference for the partition recursion on tuple keys (a, b): a dict
    table per level, summed in member order, and tuple_heaviest's argmax."""
    if n == 0:
        return AffineSubspace.full(0)
    table = {}
    for ks, p in zip(keys, probs):
        for key in ks:
            table[key] = table.get(key, 0.0) + p
    a, b, p = tuple_heaviest(table)
    if p <= 2.0 ** (-r):
        return AffineSubspace.full(n)
    pivot = lowest_set_bit(a)
    inside = [i for i, ks in enumerate(keys) if (a, b) in ks]
    mass = sum(probs[i] for i in inside)
    return lift_back(tuple_find_rep(n - 1, [tuple_project_keys(keys[i], pivot) for i in inside],
                                    [probs[i] / mass for i in inside], r - 0.5),
                     a, b, pivot)


def tuple_build_partition(mix, r):
    """Reference for build_partition on tuple keys."""
    n = mix.n
    remaining = [(w, p, tuple_keys(w)) for w, p in mix.support]
    groups = []
    while (total := sum(p for _, p, _ in remaining)) > 2.0 ** (-2 * n):
        s = tuple_find_rep(n, [keys for _, _, keys in remaining],
                           [p / total for _, p, _ in remaining], r)
        s_keys = tuple_keys(s)
        taken = [member for member in remaining if s_keys <= member[2]]
        remaining = [member for member in remaining if not s_keys <= member[2]]
        groups.append(PartitionGroup(s, tuple(w for w, _, _ in taken),
                                     tuple(p for _, p, _ in taken)))
    return SubspacePartition(n, r, tuple(groups), tuple((w, p) for w, p, _ in remaining))


def per_round_find_ids(n, keys, probs, r):
    """The partition recursion on key ids in the original coordinates:
    a full key_table per level, in member order."""
    chosen = []
    inside = list(range(len(keys)))
    for _ in range(n):
        key, top = heaviest_hyperplane(key_table(n, keys, probs))
        if top <= 2.0 ** (-r):
            break
        chosen.append(key)
        a = key >> 1
        pivot = (a & -a) << 1
        kept = [j for j, ids in enumerate(keys) if key in ids]
        mass = sum([probs[j] for j in kept])
        inside = [inside[j] for j in kept]
        probs = [probs[j] / mass for j in kept]
        keys = [[k for k in keys[j] if not k & pivot] for j in kept]
        r -= 0.5
    return chosen, inside


def per_round_partition_ids(n, keys, probs, r):
    """Reference for partition._partition_ids: every round renormalizes
    the remaining members by their member-order total and runs the
    recursion on all of them, level 0 included."""
    remaining = list(range(len(keys)))
    rounds = []
    while (total := sum(probs)) > 2.0 ** (-2 * n):
        chosen, inside = per_round_find_ids(n, keys, [p / total for p in probs], r)
        rounds.append((chosen, [remaining[j] for j in inside]))
        taken = set(inside)
        rest = [j for j in range(len(remaining)) if j not in taken]
        remaining = [remaining[j] for j in rest]
        keys = [keys[j] for j in rest]
        probs = [probs[j] for j in rest]
    return rounds, remaining


def edge_spaces(lab):
    """(lab ∩ {a.x = b}, Pr[a.y = b] for y uniform on lab) per edge index
    (a << 1) | b; the probability is 0.0 for an empty edge subspace."""
    pairs = []
    for a in range(1 << lab.n):
        for b in (0, 1):
            w_e = intersect_hyperplane(lab, a, b)
            pairs.append((w_e, 0.0 if w_e.is_empty else 1.0 if w_e.dim == lab.dim else 0.5))
    return pairs


def object_reduce(bp, r, scan_all=False):
    """Reference for reduce_to_affine's layer loop on AffineSubspace keys.

    An edge subspace in a partition's support goes to its member's group
    (sigma), any other one through SubspacePartition.assign; scan_all
    sends every edge through assign.  Returns the program, labels, gamma,
    ideal marginals and group counts it builds, every (mixture, partition)
    it makes, in layer and vertex order, and every (edge subspace,
    representative or None) that assign gives.
    """
    n, m = bp.n, bp.m
    full = AffineSubspace.full(n)
    scale = 2.0 ** (-n)
    layer_labels, gamma, marginals = [(full,)], [(0,)], [(1.0,)]
    group_counts, transitions, partitions, scanned = [], [], [], []
    for j in range(1, m + 1):
        prev_labels, prev_gamma, prev_q = layer_labels[j - 1], gamma[j - 1], marginals[j - 1]
        mass = [dict() for _ in range(bp.layer_sizes[j])]
        edges = []
        for u, lab_u in enumerate(prev_labels):
            row = bp.transitions[j - 1][prev_gamma[u]]
            pairs = edge_spaces(lab_u)
            edges.append((row, pairs))
            q_u = prev_q[u]
            if q_u > 0.0:
                for v_orig, (w_e, p_cond) in zip(row, pairs):
                    if p_cond:
                        acc = mass[v_orig]
                        acc[w_e] = acc.get(w_e, 0.0) + q_u * p_cond * scale

        parts, sigmas, slot_of, star_slot = [], [], [], []
        new_labels, new_gamma, new_q, counts = [], [], [], []
        for v in range(bp.layer_sizes[j]):
            total = sum(mass[v].values())
            part = None
            if total > 0.0:
                mixture = SubspaceMixture.from_pairs(n, list(mass[v].items()))
                part = tuple_build_partition(mixture, r)
                partitions.append((mixture, part))
            parts.append(part)
            sigma = {}
            if part is not None and not scan_all:
                sigma = {w: g.representative for g in part.groups for w in g.members}
                sigma.update((w, None) for w, _ in part.residual)
            sigmas.append(sigma)
            slots = {}
            if part is not None:
                for g in part.groups:
                    slots[g.representative] = len(new_labels)
                    new_labels.append(g.representative)
                    new_gamma.append(v)
                    new_q.append(g.mass * total)
            slot_of.append(slots)
            star_slot.append(len(new_labels))
            new_labels.append(full)
            new_gamma.append(v)
            star_mass = (total - sum(g.mass for g in part.groups)) if part is not None else 0.0
            new_q.append(max(star_mass, 0.0))
            counts.append(len(slots))

        rewired = []
        for row, pairs in edges:
            row_new = []
            for v_orig, (w_e, p_cond) in zip(row, pairs):
                part = parts[v_orig]
                target = None
                if part is not None and p_cond:
                    if w_e in sigmas[v_orig]:
                        rep = sigmas[v_orig][w_e]
                    else:
                        rep = part.assign(w_e)
                        scanned.append((w_e, rep))
                    if rep is not None:
                        target = slot_of[v_orig][rep]
                row_new.append(star_slot[v_orig] if target is None else target)
            rewired.append(tuple(row_new))

        transitions.append(tuple(rewired))
        layer_labels.append(tuple(new_labels))
        gamma.append(tuple(new_gamma))
        marginals.append(tuple(new_q))
        group_counts.append(tuple(counts))

    sizes = tuple(len(layer) for layer in layer_labels)
    leaf_labels = {(m, v): lab for v, lab in enumerate(layer_labels[m])}
    return SimpleNamespace(
        program=BranchingProgram(n, m, sizes, tuple(transitions), leaf_labels),
        labels=tuple(layer_labels), gamma=tuple(gamma),
        ideal_marginals=tuple(marginals), group_counts=tuple(group_counts),
        partitions=partitions, scanned=scanned)


def assert_same_reduction(red, ref):
    """reduce_to_affine's output equals the reference loop's, floats with ==."""
    assert red.program == ref.program
    assert red.labels == ref.labels
    assert red.gamma == ref.gamma
    assert red.ideal_marginals == ref.ideal_marginals
    assert red.group_counts == ref.group_counts


def assert_same_partition(part, ref):
    """Equal groups (representatives, members, float masses, in order)
    and residual."""
    assert part == ref


def conditional_l1_to_uniform(group):
    """Reference PartitionGroup.l1_to_uniform: the group's conditional law
    built and validated as a SubspaceMixture, then tabulated."""
    m = group.mass
    cond = SubspaceMixture(group.representative.n,
                           tuple((w, p / m) for w, p in zip(group.members, group.probabilities)))
    return l1_distance(mixture_distribution(cond), uniform_weights(group.representative))


def representatives_with_dim_at_least(part, k):
    """The number of a partition's representatives of dimension at least k."""
    return sum(1 for g in part.groups if g.representative.dim >= k)


def per_instance_group_distances(n, reps, dims, groups):
    """Reference suites._group_rows and _group_distances, one instance at a
    time: each group's l1 distance from its members' conditional law to
    the uniform law on its representative (a point mask of dimension
    dims[g]).  A group is its members' (points, mass) in member order; the
    law adds (p / mass) 2^-dim into each point of each member, mass summed
    in member order, and the instance's groups share one 2-D table."""
    size = 1 << n
    table = [0.0] * (len(groups) * size)
    for base, group in zip(range(0, len(table), size), groups):
        mass = sum(p for _, p in group)
        for points, p in group:
            q = p / mass * 2.0 ** -(len(points).bit_length() - 1)
            for x in points:
                table[base + x] += q
    nbytes = (size + 7) // 8  # a representative's bits, point 0 first
    bits = np.unpackbits(np.frombuffer(b"".join(rep.to_bytes(nbytes, "little") for rep in reps),
                                       np.uint8), bitorder="little")
    scale = np.array([2.0 ** -d for d in dims])[:, None]
    uniform = bits.reshape(len(reps), 8 * nbytes)[:, :size] * scale
    return np.abs(np.array(table).reshape(len(groups), size) - uniform).sum(axis=1).tolist()


def object_fourier_suite(count, seed, ns=(3, 4, 5, 6), r_fracs=R_FRACS, rs=None):
    """Reference suites.fourier_suite: one random_hypothesis_mixture call,
    on a reader of its own, per instance."""
    rng = derived_rng(seed, 1)
    failures = []
    min_margin = float("inf")
    for n, r in _cells(count, ns, r_fracs, rs):
        check = check_fourier_closeness(random_hypothesis_mixture(n, r, rng), r)
        row = check.closeness
        min_margin = min(min_margin, row.margin)
        if not (check.hypothesis_holds and row.ok):
            failures.append({"n": n, "r": r, "distance": row.measured, "bound": row.bound,
                             "hypothesis_holds": check.hypothesis_holds})
    return _report("fourier", count, failures, min_margin=min_margin)


def object_partition_suite(count, seed, ns=(2, 3, 4, 5), r_fracs=R_FRACS, rs=None):
    """Reference suites.partition_suite on objects: random_mixture's
    SubspaceMixture, build_partition's groups, is_subset for containment,
    conditional_l1_to_uniform for the group distance, and the
    representatives' dimensions for the count caps."""
    rng = derived_rng(seed, 2)
    failures = []
    worst_residual = 0.0
    min_group_margin = float("inf")
    for n, r in _cells(count, ns, r_fracs, rs):
        part = build_partition(random_mixture(n, rng), r)
        problems = []
        if part.residual_mass > 2.0 ** (-2 * n) + SLACK:
            problems.append("residual")
        worst_residual = max(worst_residual, part.residual_mass)
        step_bound = 2.0 ** (-(r - n / 2))
        reps = [g.representative for g in part.groups]
        if len(set(reps)) != len(reps):
            problems.append("duplicate representatives")
        for g in part.groups:
            if not all(is_subset(w, g.representative) for w in g.members):
                problems.append("containment")
            dist = conditional_l1_to_uniform(g)
            min_group_margin = min(min_group_margin, step_bound - dist)
            if dist > step_bound + SLACK:
                problems.append("group distance")
        for k in range(n + 1):
            if representatives_with_dim_at_least(part, k) > group_count_bound(n, r, k) + SLACK:
                problems.append(f"count k={k}")
        if problems:
            failures.append({"n": n, "r": r, "problems": problems})
    return _report("partition", count, failures, worst_residual=worst_residual,
                   min_group_margin=min_group_margin)


def run_path(bp, samples):
    """Follow the samples (a, b) from the start vertex to a leaf: the leaf
    and its label; RuntimeError if the samples run out first."""
    t, v = 0, 0
    while not bp.is_leaf(t, v):
        if t >= len(samples):
            raise RuntimeError(f"ran out of samples at layer {t}")
        a, b = samples[t]
        _check_vector(bp.n, a)
        v = bp.transitions[t][v][(a << 1) | b]
        t += 1
    return (t, v), bp.leaf_labels[(t, v)]


def scalar_unroll(n, m, start, step, stop=None):
    """Reference for bp.unroll: each state stopped or stepped on every
    sample in turn, its next states numbered as they come."""
    samples = [(a, b) for a in range(1 << n) for b in (0, 1)]
    layers = [[start]]
    transitions = []
    for t in range(m):
        layer = layers[t]
        _check_layer_edges(len(layer), n, t)
        index = {}
        rows = []
        for state in layer:
            if stop is not None and stop(state):
                rows.append(None)
            else:
                rows.append(tuple(index.setdefault(step(state, a, b), len(index))
                                  for a, b in samples))
        transitions.append(tuple(rows))
        layers.append(list(index) or [layer[0]])
    return layers, transitions


def _recorder_step(w, a, b):
    """Intersect a consistent constraint into w; skip an inconsistent one."""
    nxt = intersect_hyperplane(w, a, b)
    return w if nxt.is_empty else nxt


def _self_labeled(n, layers, transitions):
    m = len(transitions)
    leaf_labels = {(t, v): w for t, layer in enumerate(layers) for v, w in enumerate(layer)
                   if t == m or transitions[t][v] is None}
    bp = BranchingProgram(n, m, tuple(len(l) for l in layers), tuple(transitions), leaf_labels)
    return bp, tuple(tuple(layer) for layer in layers)


def per_vertex_program_with_labels(learner, m, stop=None):
    """Reference for learner_program_with_labels: learner.output once per
    vertex."""
    layers, transitions = unroll(learner.n, m, learner.initial_state, learner.step, stop)
    return _self_labeled(learner.n, [[learner.output(s) for s in layer] for layer in layers],
                         transitions)


def object_greedy_recorder(n, m, k):
    """Reference greedy recorder: every consistent constraint, stopping
    once the dimension is at most k."""
    layers, transitions = unroll(n, m, AffineSubspace.full(n), _recorder_step,
                                 stop=lambda w: w.dim <= k)
    return _self_labeled(n, layers, transitions)


def object_selective_recorder(n, m, trigger):
    """Reference selective recorder: the constraints with a == trigger."""
    def step(w, a, b):
        return _recorder_step(w, a, b) if a == trigger else w

    layers, transitions = unroll(n, m, AffineSubspace.full(n), step)
    return _self_labeled(n, layers, transitions)


def per_vertex_layer_accuracy(bp, labels, tables):
    """bp.layer_accuracy one vertex at a time: each row's mass by its own
    .sum(), its label's uniform law tabulated at the vertex, and the
    deviations of the rows of positive mass added in vertex order."""
    accuracy = []
    for t, table in enumerate(tables):
        total = 0.0
        for v, row in enumerate(table):
            pv = row.sum()
            if pv <= 0.0:
                continue
            total += float(np.abs(row - pv * uniform_weights(labels[t][v])).sum())
        accuracy.append(total)
    return accuracy


def per_vertex_ideal_joint(red, t):
    """The idealized joint law of (vertex, key) at layer t of a reduction,
    one vertex at a time: q(v) times the uniform law on v's label, and a
    zero row where q(v) <= 0."""
    table = np.zeros((red.program.layer_sizes[t], 1 << red.program.n))
    for v, q in enumerate(red.ideal_marginals[t]):
        if q > 0.0:
            table[v] = q * uniform_weights(red.labels[t][v])
    return table


def per_leaf_success_probability(bp):
    """bp.success_probability as one sum per leaf, over the leaf label's
    support tabulated at that leaf."""
    tables = forward_tables(bp)
    total = 0.0
    for t, v in bp.iter_leaves():
        mask = uniform_weights(bp.leaf_labels[(t, v)]) > 0.0
        total += float(tables[t][v, mask].sum())
    return total


def per_leaf_output_dimensions(bp, tables):
    """bp.output_dimension_distribution with each leaf's row summed by
    itself."""
    out = {}
    for t, v in bp.iter_leaves():
        lab = bp.leaf_labels[(t, v)]
        key = -1 if lab.is_empty else lab.dim
        out[key] = out.get(key, 0.0) + float(tables[t][v].sum())
    return out


def per_edge_check_gamma(bp, red):
    """reduction._check_gamma with every edge of the simulation compared
    by itself."""
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
    for t in range(bp.m):
        for u in range(program.layer_sizes[t]):
            row = program.transitions[t][u]
            if row is None:
                continue
            orig_row = bp.transitions[t][gamma[t][u]]
            for idx, target in enumerate(row):
                if orig_row[idx] != gamma[t + 1][target]:
                    return False
    return True


def object_random_subspace(n, rng, dim=None):
    """Reference random_subspace: the same draws, one AffineSubspace."""
    if dim is None:
        dim = int(rng.integers(0, n + 1))
    basis = []
    while len(basis) < dim:
        v = _reduce(basis, int(rng.integers(1, 1 << n)))
        if v:
            _insert(basis, v)
    return AffineSubspace(n, VectorSubspace(n, tuple(basis)), int(rng.integers(0, 1 << n)))


def per_row_random_program(n, m, width, rng):
    """Reference random_program: one rng.integers call per vertex for its
    2^(n+1) targets, each turned into an int, and every leaf label drawn
    by object_random_subspace."""
    sizes = [1] + [int(rng.integers(1, width + 1)) for _ in range(m)]
    degree = 1 << (n + 1)
    transitions = tuple(
        tuple(tuple(int(t) for t in rng.integers(0, sizes[j + 1], degree))
              for _ in range(sizes[j]))
        for j in range(m)
    )
    leaf_labels = {(m, v): object_random_subspace(n, rng) for v in range(sizes[m])}
    return BranchingProgram(n, m, tuple(sizes), transitions, leaf_labels)


def object_random_mixture(n, rng, max_members=8, paths=None):
    """Reference random_mixture: members deduplicated as AffineSubspaces."""
    paths = Counter() if paths is None else paths
    count = int(rng.integers(1, max_members + 1))
    members = {}
    for _ in range(20 * count):  # small n may not have `count` distinct subspaces
        w = object_random_subspace(n, rng)
        paths["mixture merged duplicate"] += w in members
        members.setdefault(w, 0.0)
        if len(members) >= count:
            break
    else:
        paths["mixture 20*count cap"] += 1
    weights = rng.random(len(members)) + 0.05
    weights /= weights.sum()
    return SubspaceMixture(n, tuple((w, float(p)) for w, p in zip(members, weights)))


def object_full_heavy_mixture(n, threshold, rng, paths=None):
    """Reference generators._full_heavy_mixture."""
    paths = Counter() if paths is None else paths
    delta = threshold * (0.4 + 0.5 * float(rng.random()))
    extras = int(rng.integers(1, 5))
    pool = {}
    for _ in range(extras):
        w = object_random_subspace(n, rng)
        if w != AffineSubspace.full(n):
            pool[w] = pool.get(w, 0.0) + delta / extras
        else:
            paths["full-heavy drew the full space"] += 1
    pairs = [(AffineSubspace.full(n), 1.0 - sum(pool.values()))]
    pairs.extend(pool.items())
    return SubspaceMixture.from_pairs(n, pairs)


def object_hyperplane_family_mixture(n, threshold, rng, paths=None):
    """Reference generators._hyperplane_family_mixture: hyperplanes
    deduplicated as AffineSubspaces."""
    paths = Counter() if paths is None else paths
    count = min(int(np.ceil(1.5 / threshold)), 2 * (2 ** n - 1))
    if 1.0 / count > threshold:
        paths["family None"] += 1
        return None
    chosen = {}
    while len(chosen) < count:
        a = int(rng.integers(1, 1 << n))
        b = int(rng.integers(0, 2))
        w = intersect_hyperplane(AffineSubspace.full(n), a, b)
        paths["family merged duplicate"] += w in chosen
        chosen.setdefault(w, 0.0)
    weights = 1.0 + 0.1 * rng.random(count)
    weights /= weights.sum()
    if weights.max() > threshold:
        paths["family even weights"] += 1
        weights = np.full(count, 1.0 / count)
    return SubspaceMixture(n, tuple((w, float(p)) for w, p in zip(chosen, weights)))


def object_rejection_mixture(n, threshold, rng, paths=None):
    """Reference generators._rejection_mixture: every attempt builds its
    members and its mixture before either test."""
    paths = Counter() if paths is None else paths
    paths["rejection n=1"] += n == 1
    for _ in range(200):
        count = int(rng.integers(2, 9))
        members = {}
        for _ in range(20 * count):  # n = 1 has only 3 such subspaces
            dim = int(rng.integers(max(0, n - 2), n + 1))
            w = object_random_subspace(n, rng, dim)
            if w in members:
                paths["rejection merged duplicate"] += 1
                paths["rejection merged dim-n duplicate"] += dim == n
            members.setdefault(w, 0.0)
            if len(members) >= count:
                break
        else:
            paths["rejection 20*count cap"] += 1
        weights = rng.random(len(members)) + 0.05
        weights /= weights.sum()
        mix = SubspaceMixture(n, tuple((w, float(p)) for w, p in zip(members, weights)))
        if any(p > threshold and w.dim < n for w, p in mix.support):
            paths["rejection first test"] += 1
            continue
        if max(hyperplane_mass(mix)) <= threshold:
            paths["rejection accepted"] += 1
            return mix
        paths["rejection hyperplane mass"] += 1
    paths["rejection None after 200"] += 1
    return None


def object_random_hypothesis_mixture(n, r, rng, paths=None):
    """Reference generators.random_hypothesis_mixture on the object
    generators; a None falls back to the full-heavy style."""
    paths = Counter() if paths is None else paths
    check_r(n, r)
    threshold = 2.0 ** (-r)
    style = int(rng.integers(0, 3))
    paths[f"style {style}"] += 1
    mix = None
    if style == 1:
        mix = object_hyperplane_family_mixture(n, threshold, rng, paths)
    elif style == 2:
        mix = object_rejection_mixture(n, threshold, rng, paths)
    if mix is None:
        paths["full-heavy"] += 1
        mix = object_full_heavy_mixture(n, threshold, rng, paths)
    return mix


def block_walsh_transform(weights):
    """Reference distributions.walsh_transform: per stage, each block's
    low and high halves copied and combined by slices, then scaled by
    2^{-n}."""
    out = np.array(weights, dtype=np.float64)
    size = out.shape[0]
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            lo = out[start:start + h].copy()
            hi = out[start + h:start + 2 * h].copy()
            out[start:start + h] = lo + hi
            out[start + h:start + 2 * h] = lo - hi
        h *= 2
    return out * 2.0 ** (-(size.bit_length() - 1))


def per_trial_draws(rng, size, m, count):
    """Reference for simulate_success's draws: per trial one scalar
    rng.integers call for the key, then one call for its m sample
    vectors."""
    xs = np.empty(count, np.int64)
    a = np.empty((count, m), np.int64)
    for t in range(count):
        xs[t] = rng.integers(0, size)
        a[t] = rng.integers(0, size, m)
    return xs, a


def stepping_run_attack(attacker, m, trials, rng):
    """Reference crypto.run_attack: per trial the key, its m pads in one
    call, the attacker stepped once per sample, its output sampled twice
    around a scalar a_{m+1} draw."""
    n = attacker.n
    key_hits = 0
    bit_hits = 0
    for _ in range(trials):
        x = int(rng.integers(0, 1 << n))
        a_stream = rng.integers(0, 1 << n, m).tolist()
        w = attacker.output(run_learner(attacker, x, a_stream))
        if w.is_empty:
            w = AffineSubspace.full(n)
        points = w.points()
        if points[int(rng.integers(0, len(points)))] == x:
            key_hits += 1
        a_next = int(rng.integers(0, 1 << n))
        if parity(a_next & points[int(rng.integers(0, len(points)))]) == parity(a_next & x):
            bit_hits += 1
    key_lo, key_hi = wilson_interval(key_hits, trials)
    bit_lo, bit_hi = wilson_interval(bit_hits, trials)
    # |p - 1/2| over the Wilson interval of p: 0 when it holds 1/2
    if bit_lo <= 0.5 <= bit_hi:
        adv_lo = 0.0
    else:
        adv_lo = min(abs(bit_lo - 0.5), abs(bit_hi - 0.5))
    return AttackReport(
        n=n, m=m, trials=trials,
        key_guess_rate=key_hits / trials,
        key_guess_ci=(key_lo, key_hi),
        next_bit_advantage=abs(bit_hits / trials - 0.5),
        next_bit_ci=(adv_lo, max(abs(bit_lo - 0.5), abs(bit_hi - 0.5))),
        attacker=attacker.name,
        memory_bits=attacker.memory_bits,
    )


def scaled_power_reach_bound(n, m, k):
    """lowerbound.reach_probability_bound with m^t built first: through
    ldexp, else exact integer division, else inf."""
    t = n - k
    exponent = t * (n - 2 * k) - t * (t - 1) // 2
    power = m ** t
    try:
        return math.ldexp(float(power), exponent)
    except OverflowError:
        pass
    try:
        return (power << max(exponent, 0)) / (1 << max(-exponent, 0))
    except OverflowError:
        return math.inf


def bracketed_sample_complexity(learner, target, rng, trials=2000, m_cap=1 << 16, seed=0):
    """Reference learners.estimate_sample_complexity: the doubling search
    and the bisection each carry their probe's figures by hand."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0,1), got {target}")
    if m_cap < 1:
        raise ValueError(f"m_cap must be at least 1, got {m_cap}")

    def lower_bound(m):
        hits = simulate_success(learner, m, trials, rng)
        lo, hi = wilson_interval(hits, trials)
        return lo, hits / trials, (hi - lo) / 2

    m = 1
    lo, success, half = lower_bound(m)
    while lo < target:
        if m >= m_cap:
            return TradeoffPoint(learner.name, learner.n, learner.memory_bits,
                                 m_cap, success, half, seed, capped=True)
        m = min(m * 2, m_cap)
        lo, success, half = lower_bound(m)
    low, high = max(1, m // 2), m
    best = (m, success, half)
    while low < high:
        mid = (low + high) // 2
        lo, success, half = lower_bound(mid)
        if lo >= target:
            high = mid
            best = (mid, success, half)
        else:
            low = mid + 1
    return TradeoffPoint(learner.name, learner.n, learner.memory_bits,
                         best[0], best[1], best[2], seed)


def loop_mask_keys(n, e):
    """Reference gf2.mask_keys: 2a when the point mask e lies in
    {a.x = 0}, 2a + 1 when in {a.x = 1}, read off hyperplane_masks."""
    even = hyperplane_masks(n)
    ids = []
    for a in range(1, len(even)):
        if not e & ~even[a]:
            ids.append(a << 1)
        elif not e & even[a]:
            ids.append((a << 1) | 1)
    return frozenset(ids)


def uncached_point_mask(w):
    """Reference gf2.point_mask: the AND of the hyperplane masks over a
    basis of w's orthogonal space, 0 for Empty."""
    if w.is_empty:
        return 0
    return keys_mask(hyperplane_masks(w.n),
                     ((a << 1) | parity(a & w.offset) for a in orthogonal_space(w).rows))


def uncached_to_text(w):
    """Reference AffineSubspace.to_text: offset|row,row,... as BitVector
    text, or EMPTY."""
    if w.is_empty:
        return "EMPTY"
    rows = ",".join(str(BitVector(w.n, r)) for r in w.direction.rows)
    return f"{BitVector(w.n, w.offset)}|{rows}"
