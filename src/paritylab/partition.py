"""Grouping mixtures of affine subspaces under containing representatives.

The core recursion finds, for a mixture W, an affine subspace s such that
W lands inside s with non-negligible probability and the conditional
mixture is near-uniform on s.  Iterating it on the residual mixture yields
a partial grouping map sigma with small undefined mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    SubspaceMixture,
    check_r,
    heaviest_hyperplane,
    key_table,
    l1_distance,
    mixture_distribution,
    uniform_over,
)
from .gf2 import AffineSubspace, hyperplane_keys, is_subset, keys_subspace


def exponent_sum(r: float, terms: int) -> float:
    """sum_{i=0}^{terms-1} (r - i/2)."""
    return terms * r - terms * (terms - 1) / 4.0


def _find_ids(n: int, keys: list[frozenset[int]], probs: list[float],
              r: float) -> tuple[list[int], list[int]]:
    """The recursion of find_representative_subspace, in the original
    coordinates, on members given by their key ids and probabilities.

    Returns the chosen key ids, one per level, and the positions of the
    members holding every one of them, in member order: the members
    inside the representative, the chosen ids' solution set, since a
    subspace's key ids and 0 form a linear space.  Level d projects out
    the pivot coordinate of each chosen key, the lowest set bit of its
    a; the image of a member keeps the key ids clear of every chosen
    pivot bit, in the same order, so level d tabulates only those ids,
    in a key_table.
    """
    chosen: list[int] = []
    inside = list(range(len(keys)))
    for _ in range(n):
        a, b, top = heaviest_hyperplane(key_table(n, keys, probs))
        if top <= 2.0 ** (-r):
            break
        key = (a << 1) | b
        chosen.append(key)
        pivot = (a & -a) << 1
        kept = [j for j, ids in enumerate(keys) if key in ids]
        mass = sum([probs[j] for j in kept])
        inside = [inside[j] for j in kept]
        probs = [probs[j] / mass for j in kept]
        keys = [[k for k in keys[j] if not k & pivot] for j in kept]
        r -= 0.5
    return chosen, inside


def _partition_ids(n: int, keys: list[frozenset[int]], probs: list[float],
                   r: float) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """build_partition on members given by their key ids and masses.

    Returns, per round, the chosen key ids of the representative and the
    indices of the members it takes, in member order, and the indices
    of the residual members.
    """
    check_r(n, r)
    target = 2.0 ** (-2 * n)
    round_cap = math.ceil(group_count_bound(n, r, 0)) + 1
    remaining = list(range(len(keys)))
    rounds: list[tuple[list[int], list[int]]] = []
    while (total := sum(probs)) > target:
        if len(rounds) >= round_cap:
            raise RuntimeError(f"partition failed to converge within {round_cap} rounds")
        chosen, inside = _find_ids(n, keys, [p / total for p in probs], r)
        rounds.append((chosen, [remaining[j] for j in inside]))
        taken = set(inside)
        rest = [j for j in range(len(remaining)) if j not in taken]
        remaining = [remaining[j] for j in rest]
        keys = [keys[j] for j in rest]
        probs = [probs[j] for j in rest]
    return rounds, remaining


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
    check_r(mix.n, r)
    chosen, inside = _find_ids(mix.n, [hyperplane_keys(w) for w, _ in mix.support],
                               [p for _, p in mix.support], r)
    kept = [mix.support[i] for i in inside]
    mass = sum(p for _, p in kept)
    conditioned = SubspaceMixture(mix.n, tuple((w, p / mass) for w, p in kept))
    return keys_subspace(mix.n, chosen), conditioned, mass


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
    ones on which sigma stays undefined.  On the support, group membership
    agrees with ``assign``: a member taken in round i lay in no earlier
    representative (an earlier round would have taken it), and a residual
    member lies in none.
    """

    n: int
    r: float
    groups: tuple[PartitionGroup, ...]
    residual: tuple[tuple[AffineSubspace, float], ...]

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
    recursion and containment test work on them, and each round
    renormalizes the remaining masses in member order.
    """
    support = mix.support
    rounds, residual = _partition_ids(mix.n, [hyperplane_keys(w) for w, _ in support],
                                      [p for _, p in support], r)
    groups = tuple(PartitionGroup(keys_subspace(mix.n, chosen),
                                  tuple(support[i][0] for i in taken),
                                  tuple(support[i][1] for i in taken))
                   for chosen, taken in rounds)
    return SubspacePartition(mix.n, r, groups, tuple(support[i] for i in residual))


def group_count_bound(n: int, r: float, k: int) -> float:
    """Cap on the number of representatives of dimension at least k."""
    return 4 * n * 2.0 ** exponent_sum(r, n - k)
