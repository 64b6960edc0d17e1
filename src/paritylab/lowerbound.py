"""Reach-probability bounds for affine programs and the exponent budget
of the width-versus-samples tradeoff."""

from __future__ import annotations

import math
from fractions import Fraction

from .bp import (
    BranchingProgram,
    Labels,
    check_layer_shape,
    forward_tables,
    labelled_program,
    validate_affine,
)
from .distributions import BoundCheck
from .partition import exponent_sum


def reach_probability_bound(n: int, m: int, k: int) -> float:
    """m^{n-k} * 2^{sum_{j=0}^{n-k-1} (n - 2k - j)}.

    Caps the probability that a computation-path of an affine program
    whose labels all have dimension >= k reaches a dimension-k vertex.
    Returns inf when the exact value exceeds the float range.  Raises
    ValueError when m is not a power of two and an in-range answer would
    build an m^(n-k) of more than 2^23 bits.
    """
    if not 0 <= k < n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    if m < 1:
        raise ValueError(f"length must be positive, got {m}")
    t = n - k
    exponent = t * (n - 2 * k) - t * (t - 1) // 2
    # the bound's log2, a rational that no n overflows: far past the float
    # range the bound is inf or 0.0, known before m^t is built
    log2_bound = t * Fraction(math.log2(m)) + exponent
    if log2_bound > 1100:
        return math.inf
    if log2_bound < -1100:
        return 0.0
    if m & (m - 1) == 0:  # m = 2^j: the bound is 2^(j t + exponent), rounded by ldexp alone
        try:
            return math.ldexp(1.0, (m.bit_length() - 1) * t + exponent)
        except OverflowError:
            return math.inf
    if t * m.bit_length() > 1 << 23:
        raise ValueError(f"m^(n-k) = {m}^{t} would take about {t * m.bit_length()} bits, "
                         f"past the 2^23-bit cap")
    power = m ** t
    try:
        return math.ldexp(float(power), exponent)
    except OverflowError:
        pass
    # m^t alone can overflow a float while 2^exponent scales it back into
    # range; exact integer division rounds once
    try:
        return (power << max(exponent, 0)) / (1 << max(-exponent, 0))
    except OverflowError:
        return math.inf


def trim_to_min_dimension(bp: BranchingProgram, labels: Labels, k: int,
                          ) -> tuple[BranchingProgram, Labels, list[list[int]]]:
    """Make every dimension-k vertex a leaf and drop vertices below k.

    Empty-labelled vertices lie below every k and are dropped too.  Since
    label dimension falls by at most one per step and edges into a
    dropped vertex from a retained one can only carry an empty edge
    subspace (never traversed on consistent streams), rerouting those
    edges to the first retained vertex keeps the program sound and leaves
    every reach probability unchanged.  Also returns, per layer, the
    original index of each retained vertex.  Labels not of bp's shape
    raise ValueError.
    """
    check_layer_shape(bp, labels, "labels")
    keep: list[list[int]] = [[] for _ in range(bp.m + 1)]
    index: dict[tuple[int, int], int] = {}
    for t, layer in enumerate(labels):
        for v, lab in enumerate(layer):
            if not lab.is_empty and lab.dim >= k:
                index[(t, v)] = len(keep[t])
                keep[t].append(v)
    if not all(keep):
        raise ValueError(f"some layer has no vertex of dimension >= {k}")
    transitions = []
    for t in range(bp.m):
        layer = []
        for v in keep[t]:
            row = bp.transitions[t][v]
            if row is None or labels[t][v].dim == k:
                layer.append(None)
            else:
                layer.append(tuple(index.get((t + 1, tgt), 0) for tgt in row))
        transitions.append(tuple(layer))
    new_labels = tuple(tuple(labels[t][v] for v in kept) for t, kept in enumerate(keep))
    return labelled_program(bp.n, transitions, new_labels), new_labels, keep


def verify_reach_bound(bp: BranchingProgram, labels: Labels,
                       k: int) -> tuple[bool, list[tuple[tuple[int, int], BoundCheck]]]:
    """Exact reach probability of every dimension-k vertex versus the bound.

    The program is cut down to its labels of dimension >= k
    (trim_to_min_dimension), validated once and swept forward once.
    Returns the validation verdict and, when it holds, one (vertex, row)
    pair per dimension-k vertex, the vertex its (t, v) in bp and the row
    its exact reach against the cap, binding below 1 (a probability's
    ceiling).
    """
    bound = reach_probability_bound(bp.n, bp.m, k)
    trimmed, tlabels, keep = trim_to_min_dimension(bp, labels, k)
    if not validate_affine(trimmed, tlabels).ok:
        return False, []
    tables = forward_tables(trimmed)
    rows = []
    for t, kept in enumerate(keep):
        for i, v in enumerate(kept):
            if tlabels[t][i].dim == k:
                rows.append(((t, v), BoundCheck(f"reach[t={t},v={v}]", float(tables[t][i].sum()),
                                                bound, binding=bound < 1.0)))
    return True, rows


def tradeoff_exponent(c: float, alpha: float, n: int) -> dict:
    """Exponent arithmetic for the width x reach-probability budget.

    With length 2^{alpha n} and width 2^{c n^2}, grouping strength
    r = (1/2 + 2 alpha) n and dimension threshold k = (4/5) n, multiplies
    the dimension-k vertex-count cap by the per-vertex reach bound and
    reports the closed form 4nm * 2^{n^2 (c + (3/5) alpha - 1/20 + 3/(20n))}
    next to it.
    Everything is carried in log2 to survive large n.  A negative c or
    alpha, a width or length below 1, raises ValueError.
    """
    if c < 0 or alpha < 0:
        raise ValueError(f"c and alpha must be at least 0 (width 2^(c n^2) and length "
                         f"2^(alpha n) at least 1), got c={c}, alpha={alpha}")
    k = 0.8 * n
    r = (0.5 + 2 * alpha) * n
    t = n - k
    log2_m = alpha * n
    log2_d = c * n * n
    count_log2 = math.log2(4 * n) + exponent_sum(r, t) + log2_d + log2_m
    reach_log2 = t * log2_m + (t * (n - 2 * k) - t * (t - 1) / 2.0)
    product_log2 = count_log2 + reach_log2
    closed_exponent = n * n * (c + 0.6 * alpha - 0.05 + 3.0 / (20.0 * n))
    closed_log2 = math.log2(4 * n) + log2_m + closed_exponent
    if not (math.isfinite(product_log2) and math.isfinite(closed_log2)):
        raise ValueError(f"c and alpha must give finite exponents, got c={c}, alpha={alpha}")
    alpha_max = (5.0 / 3.0) * (0.05 - c)
    out = {
        "c": c, "alpha": alpha, "n": n,
        "k": k, "r": r,
        "log2_length": log2_m, "log2_width": log2_d,
        "count_bound_log2": count_log2,
        "reach_bound_log2": reach_log2,
        "product_log2": product_log2,
        "closed_form_log2": closed_log2,
        "final_bound": 2.0 ** product_log2 if product_log2 < 1000 else float("inf"),
        "alpha_max": alpha_max,
        "condition_holds": alpha < alpha_max,
        "exponent_negative": closed_exponent < 0,
        "vacuous": product_log2 >= 0,
    }
    return out
