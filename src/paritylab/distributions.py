"""Exact distributions over {0,1}^n, mixtures of subspace-uniform laws,
Walsh-Fourier transforms, and the Fourier closeness criterion."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable

import numpy as np

from .gf2 import (
    LABEL_MEMO,
    AffineSubspace,
    DimensionMismatch,
    EmptySubspaceError,
    hyperplane_keys,
)

MAX_TABLE_DIM = 12  # exact 2^n tables stop making sense past desk scale
PROB_TOL = 1e-9   # absolute tolerance when validating mixture probabilities
SLACK = 1e-12     # absolute slack when comparing a measured quantity with its bound


def _check_support(support: Iterable[tuple[Hashable, float]]) -> None:
    """The mixture invariants on (member, weight) pairs, members given as
    subspaces or as canonical (rows, offset) pairs: at least one member,
    distinct members, positive weights, and a total (summed in order)
    within PROB_TOL of 1."""
    seen = set()
    total = 0.0
    for w, p in support:
        if w in seen:
            raise ValueError(f"duplicate support element {w}")
        seen.add(w)
        if p <= 0:
            raise ValueError(f"probabilities must be positive, got {p}")
        total += p
    if not seen:
        raise ValueError("mixture support must be non-empty")
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class SubspaceMixture:
    """Finite-support distribution over non-empty affine subspaces."""

    n: int
    support: tuple[tuple[AffineSubspace, float], ...]

    def __post_init__(self) -> None:
        for w, _ in self.support:
            if w.n != self.n:
                raise DimensionMismatch(f"{w.n} != {self.n}")
            if w.is_empty:
                raise EmptySubspaceError("mixture support must avoid the empty subspace")
        _check_support(self.support)

    @classmethod
    def from_pairs(cls, n: int, pairs: list[tuple[AffineSubspace, float]]) -> "SubspaceMixture":
        """Merge duplicates and normalize; order of first appearance is kept."""
        acc: dict[AffineSubspace, float] = {}
        for w, p in pairs:
            if p == 0.0:
                continue
            acc[w] = acc.get(w, 0.0) + p
        total = sum(acc.values())
        if total <= 0:
            raise ValueError("mixture has no mass")
        return cls(n, tuple((w, p / total) for w, p in acc.items()))


def uniform_weights(w: AffineSubspace) -> np.ndarray:
    """Length-2^n table of the uniform law on w: 2^{-dim} on each point of
    w, zero elsewhere (all zero for Empty)."""
    table = np.zeros(1 << w.n)
    if not w.is_empty:
        table[w.points()] = 2.0 ** (-w.dim)
    return table


@lru_cache(maxsize=LABEL_MEMO)
def uniform_row(w: AffineSubspace) -> np.ndarray:
    """uniform_weights(w), read-only: one per-process memo entry per
    label (see gf2.LABEL_MEMO)."""
    row = uniform_weights(w)
    row.flags.writeable = False
    return row


def uniform_rows(labels: Iterable[AffineSubspace]) -> np.ndarray:
    """The uniform_row of each of a layer of labels, stacked in order
    (C-contiguous)."""
    return np.array([uniform_row(w) for w in labels])


def check_table_dim(n: int) -> None:
    """Raise ValueError unless an exact 2^n table fits: 0 <= n <= MAX_TABLE_DIM."""
    if not 0 <= n <= MAX_TABLE_DIM:
        raise ValueError(f"exact tables support 0 <= n <= {MAX_TABLE_DIM}, got {n}")


def mixture_table(n: int, members: Iterable[tuple[list[int], float]]) -> np.ndarray:
    """The length-2^n table of sum_i p_i * 2^-dim_i on each point of
    member i, a member given as its points (2^dim_i of them) and its
    weight p_i, added in member order (p_i 2^-dim_i into each point, the
    float additions of the table sum); n past MAX_TABLE_DIM is refused
    before it is built."""
    check_table_dim(n)
    table = [0.0] * (1 << n)
    for points, p in members:
        q = p * 2.0 ** -(len(points).bit_length() - 1)
        for x in points:
            table[x] += q
    return np.array(table)


def mixture_distribution(mix: SubspaceMixture) -> np.ndarray:
    """The weight table of the mixture's expected uniform law."""
    return mixture_table(mix.n, ((w.points(), p) for w, p in mix.support))


def l1_distance(p: np.ndarray, q: np.ndarray) -> float:
    if p.shape != q.shape:
        raise DimensionMismatch(f"{p.shape} != {q.shape}")
    return float(np.abs(p - q).sum())


def walsh_transform(weights: np.ndarray) -> np.ndarray:
    """Coefficients c(a) = 2^{-n} sum_x P(x) (-1)^{a.x} of a length-2^n
    table, indexed by the packed frequency a (Walsh-Hadamard butterfly).

    Under this normalization the uniform distribution transforms to
    2^{-n} at a=0 and zero elsewhere, and Parseval reads
    sum_a c(a)^2 = 2^{-n} sum_x P(x)^2.  For a subspace mixture,
    2^n c(a) = mass(a, 0) - mass(a, 1) at every a != 0, with mass the
    hyperplane_mass table, so the transform is an oracle for it.
    """
    out = np.array(weights, dtype=np.float64)
    size = out.size
    if out.ndim != 1 or size < 1 or size & (size - 1):
        raise ValueError(f"expected 2^n weights, got shape {out.shape}")
    h = 1
    while h < size:
        v = out.reshape(-1, 2, h)
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
        h *= 2
    return out / size


def key_table(n: int, keys: Iterable[Iterable[int]], probs: Iterable[float]) -> list[float]:
    """Per key id 2a + b, the members' probabilities summed in member
    order (another order can flip a tie in the last place); entries 0 and
    1 (a = 0) stay 0.0."""
    table = [0.0] * (2 << n)
    for ids, p in zip(keys, probs):
        for k in ids:
            table[k] += p
    return table


def hyperplane_mass(mix: SubspaceMixture) -> list[float]:
    """Pr[W ⊆ {x : a.x = b}] at each key id 2a + b, a key_table."""
    return key_table(mix.n, [hyperplane_keys(w) for w, _ in mix.support],
                     [p for _, p in mix.support])


def heaviest_hyperplane(table: list[float]) -> tuple[int, float]:
    """(key id, mass) of the first maximum of a key table at a != 0.

    The first maximum has the smallest id: a compared as a packed
    integer, then b = 0 before b = 1.  An all-zero table gives (2, 0.0),
    the key id of {x : x_1 = 0}.
    """
    top = max(table)
    return (table.index(top, 2) if top else 2), top


def check_r(n: int, r: float, top: int = 2) -> None:
    """Raise ValueError unless n/2 <= r <= top * n (so for NaN and inf too):
    up to r = 2n, a partition's round cap 4n * 2^{sum_{i<n} (r - i/2)}
    stays a float for every n <= 24."""
    if not n / 2 <= r <= top * n:
        upper = "n" if top == 1 else f"{top}n"
        raise ValueError(f"r must lie in [n/2, {upper}] = [{n / 2}, {top * n}], got {r}")


def _within(measured: float, bound: float) -> bool:
    """measured <= bound up to SLACK: the one rule that compares a
    measured quantity with its bound (a lower bound negates both)."""
    return measured <= bound + SLACK


def _closeness_bound(n: int, r: float) -> float:
    """2^{-(r - n/2)}: the l1 distance to uniform that the Fourier lemma
    allows a flat mixture, and that the grouping lemma allows each
    group's conditional law from its representative."""
    return 2.0 ** (-(r - n / 2))


@dataclass(frozen=True)
class BoundCheck:
    """A measured value against its bound: an upper bound, or a lower one
    when lower is set.  binding is False where the bound lies at or past
    the quantity's trivial range, so the row is vacuous.  ok applies
    SLACK by _within; a positive margin means room."""

    name: str
    measured: float
    bound: float
    binding: bool
    lower: bool = False

    @property
    def ok(self) -> bool:
        if self.lower:
            return _within(-self.measured, -self.bound)
        return _within(self.measured, self.bound)

    @property
    def margin(self) -> float:
        return self.measured - self.bound if self.lower else self.bound - self.measured

    def to_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured, "bound": self.bound,
                "binding": self.binding, "ok": self.ok}


@dataclass(frozen=True)
class FourierCheck:
    hypothesis_holds: bool
    max_concentration: float
    closeness: BoundCheck   # l1 distance to uniform against 2^{-(r - n/2)}
    worst_hyperplane: tuple[int, int] | None


def _fourier_closeness(n: int, r: float, keys: Iterable[Iterable[int]],
                       points: Iterable[list[int]], weights: list[float]) -> FourierCheck:
    """The spectral-flatness criterion on a mixture's member data: per
    member its key ids (gf2.coset_keys), its points and its weight.

    The hypothesis is that no hyperplane {x : a.x = b}, a != 0, contains
    the random subspace with probability above 2^{-r}; when it holds, the
    mixture's expected uniform law is within 2^{-(r - n/2)} of uniform in
    l1 distance.  The closeness row binds below 2, the l1 ceiling; r >= n/2
    keeps its bound at most 1.  points is read before keys, so either may
    be a lazy iterable: the weight table refuses n > 12 before a key is
    listed or the 2^(n+1)-entry key table is built.
    """
    check_r(n, r)
    distance = l1_distance(mixture_table(n, zip(points, weights)), np.full(1 << n, 2.0 ** -n))
    key, conc = heaviest_hyperplane(key_table(n, keys, weights))
    worst = (key >> 1, key & 1) if conc > 0.0 else None
    bound = _closeness_bound(n, r)
    return FourierCheck(_within(conc, 2.0 ** (-r)), conc,
                        BoundCheck("closeness", distance, bound, binding=bound < 2.0), worst)


def check_fourier_closeness(mix: SubspaceMixture, r: float) -> FourierCheck:
    """The spectral-flatness check of _fourier_closeness on a SubspaceMixture."""
    return _fourier_closeness(mix.n, r, (hyperplane_keys(w) for w, _ in mix.support),
                              (w.points() for w, _ in mix.support), [p for _, p in mix.support])
