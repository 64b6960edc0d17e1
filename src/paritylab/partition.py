"""Grouping mixtures of affine subspaces under containing representatives.

The core recursion finds, for a mixture W, an affine subspace s such that
W lands inside s with non-negligible probability and the conditional
mixture is near-uniform on s.  Iterating it on the residual mixture yields
a partial grouping map sigma with small undefined mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .distributions import (
    SubspaceMixture,
    l1_distance,
    mixture_distribution,
    uniform_over,
)
from .gf2 import (
    AffineSubspace,
    VectorSubspace,
    hyperplane_keys,
    is_subset,
    lowest_set_bit,
    parity,
)


def exponent_sum(r: float, terms: int) -> float:
    """sum_{i=0}^{terms-1} (r - i/2)."""
    return terms * r - terms * (terms - 1) / 4.0


def _drop_bit(v: int, pos: int) -> int:
    return (v & ((1 << pos) - 1)) | ((v >> (pos + 1)) << pos)


def _insert_zero_bit(v: int, pos: int) -> int:
    return (v & ((1 << pos) - 1)) | ((v >> pos) << (pos + 1))


def project_out(w: AffineSubspace, pivot: int) -> AffineSubspace:
    """Image of w under dropping one coordinate.

    Only valid when the dropped coordinate is determined by the others on
    w (w inside a hyperplane whose pivot it is); then the map is a
    bijection and dimensions are preserved.
    """
    rows = [_drop_bit(r, pivot) for r in w.direction.rows]
    return AffineSubspace(w.n - 1, VectorSubspace.from_rows(w.n - 1, rows),
                          _drop_bit(w.offset, pivot))


def lift_back(w: AffineSubspace, a: int, b: int, pivot: int) -> AffineSubspace:
    """Inverse of project_out onto the hyperplane {x : a.x = b}.

    Reinserts the pivot coordinate, set so every lifted point satisfies
    the hyperplane constraint.
    """
    n = w.n + 1
    rows = []
    for r in w.direction.rows:
        v = _insert_zero_bit(r, pivot)
        v |= parity(a & v) << pivot
        rows.append(v)
    off = _insert_zero_bit(w.offset, pivot)
    off |= (b ^ parity(a & off)) << pivot
    return AffineSubspace(n, VectorSubspace.from_rows(n, rows), off)


def _key_ids(w: AffineSubspace) -> frozenset[int]:
    """w's hyperplane keys (a, b) as the ints 2a + b."""
    return frozenset((a << 1) | b for a, b in hyperplane_keys(w))


@cache
def _key_projection(n: int, pivot: int) -> tuple[int, ...]:
    """Map of key ids under project_out(., pivot) on {0,1}^n.

    The keys of the image of w are the keys (c, b) of w with c zero at
    the pivot, the pivot coordinate dropped from c: entry 2c + b holds
    the image's id, or -1 when c is one at the pivot.
    """
    return tuple(-1 if (k >> (pivot + 1)) & 1 else _drop_bit(k, pivot + 1)
                 for k in range(2 << n))


def _find_rep(n: int, keys: list[frozenset[int]], probs: list[float], r: float) -> AffineSubspace:
    """The recursion of find_representative_subspace on a mixture given
    by each member's key ids and probability, in member order.

    Every sum runs in member order: another order can change a float in
    the last place and flip an argmax tie, and with it the partition.
    The first maximum of the table is the smallest id 2a + b, which is
    heaviest_hyperplane's tie-break; ids 0 and 1 (a = 0) stay at 0.0.
    """
    if n == 0:
        return AffineSubspace.full(0)
    table = [0.0] * (2 << n)
    for ks, p in zip(keys, probs):
        for k in ks:
            table[k] += p
    key = max(range(2 << n), key=table.__getitem__)
    if table[key] <= 2.0 ** (-r):
        return AffineSubspace.full(n)
    a, b = key >> 1, key & 1
    pivot = lowest_set_bit(a)
    inside = [i for i, ks in enumerate(keys) if key in ks]
    mass = sum(probs[i] for i in inside)
    proj = _key_projection(n, pivot)
    return lift_back(_find_rep(n - 1, [frozenset(j for k in keys[i] if (j := proj[k]) >= 0)
                                       for i in inside],
                               [probs[i] / mass for i in inside], r - 0.5),
                     a, b, pivot)


def find_representative_subspace(
        mix: SubspaceMixture, r: float) -> tuple[AffineSubspace, SubspaceMixture, float]:
    """An affine subspace s capturing a non-negligible, near-uniform slice of W.

    Returns (s, W | W ⊆ s, Pr[W ⊆ s]).  The recursion restricts to the
    most concentrated hyperplane while one exceeds 2^{-r}, recursing with
    (n-1, r-1/2) after eliminating the pivot coordinate, and stops at the
    current ambient space otherwise.  The returned mass is at least
    2^{-sum_{i=0}^{n-dim(s)-1}(r - i/2)} and the conditional mixture is
    within 2^{-(r - n/2)} of uniform on s.
    """
    if r < mix.n / 2:
        raise ValueError(f"r must be at least n/2 = {mix.n / 2}, got {r}")
    s = _find_rep(mix.n, [_key_ids(w) for w, _ in mix.support],
                  [p for _, p in mix.support], r)
    conditioned, mass = mix.restrict(lambda w: is_subset(w, s))
    return s, conditioned, mass


@dataclass(frozen=True)
class PartitionGroup:
    representative: AffineSubspace
    members: tuple[AffineSubspace, ...]
    probabilities: tuple[float, ...]  # pre-conditioning masses, one per member

    @property
    def mass(self) -> float:
        return sum(self.probabilities)

    def conditional(self) -> SubspaceMixture:
        m = self.mass
        return SubspaceMixture(self.representative.n,
                               tuple((w, p / m) for w, p in zip(self.members, self.probabilities)))

    def l1_to_uniform(self) -> float:
        return l1_distance(mixture_distribution(self.conditional()),
                           uniform_over(self.representative))


@dataclass(frozen=True)
class SubspacePartition:
    """Round-ordered grouping of a mixture's support under representatives.

    Membership in a group means sigma(w) = representative; subspaces in
    ``residual`` (and any subspace contained in no representative) are the
    ones on which sigma stays undefined.  ``sigma`` maps every support
    member to its representative, or to None for residual members; it
    agrees with ``assign`` on the support, since a member taken in round
    i lay in no earlier representative (an earlier round would have taken
    it) and a residual member lies in none.
    """

    n: int
    r: float
    groups: tuple[PartitionGroup, ...]
    residual: tuple[tuple[AffineSubspace, float], ...]
    sigma: dict[AffineSubspace, AffineSubspace | None] = field(compare=False, repr=False)

    @property
    def residual_mass(self) -> float:
        return sum(p for _, p in self.residual)

    def assign(self, w: AffineSubspace) -> AffineSubspace | None:
        """sigma(w): the earliest representative containing w, else None.

        Defined for any subspace (also ones outside the original support);
        zero-probability subspaces inside some representative are assigned
        on purpose, which is harmless for every partition property.
        """
        for g in self.groups:
            if is_subset(w, g.representative):
                return g.representative
        return None

    def representatives_with_dim_at_least(self, k: int) -> int:
        return sum(1 for g in self.groups if g.representative.dim >= k)


def build_partition(mix: SubspaceMixture, r: float) -> SubspacePartition:
    """Iterate find_representative_subspace's recursion on the unassigned
    members until their mass is at most 2^{-2n}.

    Each member's hyperplane key ids are computed once: every round's
    recursion and containment pass test key membership only, and each
    round renormalizes the remaining masses in member order.
    """
    n = mix.n
    if r < n / 2:
        raise ValueError(f"r must be at least n/2 = {n / 2}, got {r}")
    target = 2.0 ** (-2 * n)
    round_cap = math.ceil(4 * n * 2.0 ** exponent_sum(r, n)) + 1
    remaining = [(w, p, _key_ids(w)) for w, p in mix.support]
    groups: list[PartitionGroup] = []
    sigma: dict[AffineSubspace, AffineSubspace | None] = {}
    while (total := sum(p for _, p, _ in remaining)) > target:
        if len(groups) >= round_cap:
            raise RuntimeError(f"partition failed to converge within {round_cap} rounds")
        s = _find_rep(n, [keys for _, _, keys in remaining],
                      [p / total for _, p, _ in remaining], r)
        s_keys = _key_ids(s)
        taken, rest = [], []
        for member in remaining:
            (taken if s_keys <= member[2] else rest).append(member)
        remaining = rest
        groups.append(PartitionGroup(s, tuple(w for w, _, _ in taken),
                                     tuple(p for _, p, _ in taken)))
        sigma.update((w, s) for w, _, _ in taken)
    sigma.update((w, None) for w, _, _ in remaining)
    return SubspacePartition(n, r, tuple(groups), tuple((w, p) for w, p, _ in remaining), sigma)


def group_count_bound(n: int, r: float, k: int) -> float:
    """Cap on the number of representatives of dimension at least k."""
    return 4 * n * 2.0 ** exponent_sum(r, n - k)
