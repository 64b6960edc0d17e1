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
)
from .gf2 import AffineSubspace, hyperplane_keys, is_subset, keys_subspace


def exponent_sum(r: float, terms: int) -> float:
    """sum_{i=0}^{terms-1} (r - i/2)."""
    return terms * r - terms * (terms - 1) / 4.0


def _image(key: int, keys: list, members: list[int], probs: list[float],
           cleared: dict[int, dict[int, list[int]]] | None = None
           ) -> tuple[list[list[int]], list[float]]:
    """The members (positions in keys) holding key, one level down: their
    masses probs renormalized in member order, and their key ids clear of
    key's pivot bit (the lowest set bit of its a), in the same order.
    Given cleared, a member's image is kept there, per pivot bit and then
    member, for later calls on the same keys."""
    a = key >> 1
    pivot = (a & -a) << 1
    mass = sum(probs)
    if cleared is None:
        return ([[k for k in keys[j] if not k & pivot] for j in members],
                [p / mass for p in probs])
    known = cleared.setdefault(pivot, {})
    for j in members:
        if j not in known:
            known[j] = [k for k in keys[j] if not k & pivot]
    return [known[j] for j in members], [p / mass for p in probs]


def _find_ids(n: int, keys: list, probs: list[float], r: float,
              levels: int) -> tuple[list[int], list[int]]:
    """The recursion of find_representative_subspace, in the original
    coordinates, on members given by their key ids and probabilities,
    for at most ``levels`` levels.

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
    for _ in range(levels):
        key, top = heaviest_hyperplane(key_table(n, keys, probs))
        if top <= 2.0 ** (-r):
            break
        chosen.append(key)
        kept = [j for j, ids in enumerate(keys) if key in ids]
        inside = [inside[j] for j in kept]
        keys, probs = _image(key, keys, kept, [probs[j] for j in kept])
        r -= 0.5
    return chosen, inside


class _RunningTable:
    """Level 0 of the partition rounds over the live members: per key id,
    the exact int sum of their masses over one power-of-two denominator
    (units), and the members holding it, in member order (postings)."""

    def __init__(self, n: int, keys: list, masses: list[float]):
        ratios = [p.as_integer_ratio() for p in masses]
        shift = max([d for _, d in ratios], default=1).bit_length()
        self.keys = keys
        self.n_live = len(keys)
        self.ints = [num << (shift - d.bit_length()) for num, d in ratios]
        self.units = [0] * (2 << n)
        self.postings: dict[int, list[int]] = {}
        for j, ids in enumerate(keys):
            for k in ids:
                self.units[k] += self.ints[j]
                self.postings.setdefault(k, []).append(j)

    def remove(self, taken: list[int]) -> None:
        self.n_live -= len(taken)
        for j in taken:
            for k in self.keys[j]:
                self.units[k] -= self.ints[j]

    def floor(self, top: int) -> int:
        """The least units[k] of a cell that can hold the first maximum of
        the float table: ceil(top (1 - rho) / (1 + rho)), with
        rho = (2 n_live + 4) 2^-53."""
        c = 2 * self.n_live + 4
        return -(-top * ((1 << 53) - c) // ((1 << 53) + c))

    def first_max(self, masses: list[float], live: list[bool],
                  total: float) -> tuple[float, int, list[int], list[float]]:
        """The float table's first maximum at a != 0 and its cell: (mass,
        key id, the cell's live members, their masses / total), in member
        order; (0.0, 0, [], []) when every cell is 0."""
        top, key, members, qs = 0.0, 0, [], []
        if top_units := max(self.units):
            floor = self.floor(top_units)
            for k in [k for k, u in enumerate(self.units) if u >= floor]:
                cell = self.postings[k] = [j for j in self.postings[k] if live[j]]
                cell_qs = [masses[j] / total for j in cell]
                t = 0.0
                for q in cell_qs:
                    t += q
                if t > top:
                    top, key, members, qs = t, k, cell, cell_qs
        return top, key, members, qs


# The running table pays for itself once the members hold more key ids
# than this many times its 2^(n+1) cells.  Per-call timings of both
# level-0 forms on the benchmark's partitions (BENCH_partition_rounds.json):
# below 4 the table costs 11-39% more than a key_table per round, from 4
# to 6 the two are even, above 6 the table saves 12-60%.
_TABLE_MIN_IDS = 4


def _partition_ids(n: int, keys: list[frozenset[int]], probs: list[float], r: float,
                   max_rounds: int | None = None,
                   ) -> tuple[list[tuple[list[int], list[int]]], list[int]] | None:
    """build_partition on members given by their key ids and masses.

    Returns, per round, the chosen key ids of the representative and the
    indices of the members it takes, in member order, and the indices
    of the residual members; None, before the round is built, once the
    members need more than max_rounds rounds.

    Each round runs find_representative_subspace's recursion on the live
    members, renormalized by their total (summed in member order), and
    reproduces its floats exactly.  Small member sets run that recursion
    itself every round, one key_table per level.  Once the members hold
    more than _TABLE_MIN_IDS times 2^(n+1) key ids, level 0, the only
    level that sees every live member, runs on one _RunningTable
    instead: each mass is an int over their common power-of-two
    denominator D, units[k] is the exact sum over the live members
    holding key id k, and each taken member is subtracted from its keys
    once.

    The recursion's float cell at k, the member-order sum of
    probs[j] / total over the cell's live members, is within a relative
    gamma_{2N} of units[k] / (D * sum of live masses), N live members:
    N - 1 roundings in the total, one per quotient, and fewer than N in
    the cell's sum.  With rho = (2N + 4) 2^-53 >= gamma_{2N}, a cell with
    units[k] (1 + rho) < max(units) (1 - rho) lies strictly below the
    float of the top cell, so it cannot be the first maximum.  The cells
    that pass this exact int test are re-summed from the posting lists
    in member order, as the recursion sums them: their first maximum is
    the recursion's, with the same float to meet 2^-r.  The bound is
    relative, so it holds only while every quotient is normal: a member
    set with a mass below 2^-1000 of its total is re-tabulated every
    round (the total only falls and the smallest live mass only rises,
    so the first round decides).  Levels >= 1 are _find_ids on the
    chosen key's members; a member's image under a pivot bit is built the
    first time a round needs it and kept for the rest of the call.
    """
    check_r(n, r)
    target = 2.0 ** (-2 * n)
    threshold = 2.0 ** (-r)
    round_cap = math.ceil(group_count_bound(n, r, 0)) + 1
    masses = list(probs)  # a taken member's mass becomes 0.0, which sums exactly
    live = [True] * len(keys)
    table = None
    if (sum(map(len, keys)) > _TABLE_MIN_IDS << (n + 1)
            and min([p for p in probs if p], default=0.0) * 2.0 ** 1000 >= sum(probs)):
        table = _RunningTable(n, keys, masses)
        # per pivot bit, then member: _image's key ids, built once per call
        cleared: dict[int, dict[int, list[int]]] = {}
    rounds: list[tuple[list[int], list[int]]] = []
    while (total := sum(masses)) > target:
        if len(rounds) >= round_cap:
            raise RuntimeError(f"partition failed to converge within {round_cap} rounds")
        if len(rounds) == max_rounds:
            return None
        if table is None:
            ids = [j for j, alive in enumerate(live) if alive]
            chosen, inside = _find_ids(n, [keys[j] for j in ids],
                                       [masses[j] / total for j in ids], r, n)
            taken = [ids[i] for i in inside]
        else:
            top, key, members, qs = table.first_max(masses, live, total)
            if top > threshold:
                chosen, inside = _find_ids(n, *_image(key, keys, members, qs, cleared),
                                           r - 0.5, n - 1)
                chosen.insert(0, key)
                taken = [members[i] for i in inside]
            else:
                chosen, taken = [], [j for j, alive in enumerate(live) if alive]
            table.remove(taken)
        rounds.append((chosen, taken))
        for j in taken:
            live[j] = False
            masses[j] = 0.0
    return rounds, [j for j, alive in enumerate(live) if alive]


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
                               [p for _, p in mix.support], r, mix.n)
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
