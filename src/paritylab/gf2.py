"""Bit-packed GF(2) vectors, subspaces, and affine subspaces in canonical form.

Vectors are packed into Python ints: bit i of the word is coordinate i+1,
so coordinate 1 is the least significant bit, and the length n comes
from the context (a subspace's or a program's n).  BitVector is a
vector's external form, carrying its own n: 0/1 text for labels, and
that text read as bits for the bytes of keys and cipher frames.  Subspace
bases are kept in reduced row echelon form (RREF) and affine offsets are
reduced to have a 0 in every pivot column, which makes equality and
hashing purely structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable

# Canonical subspace machinery keeps exact 2^n tables elsewhere in the
# package; 24 coordinates is the supported ceiling for it.  Plain vectors
# (stream-mode crypto) may be longer.
MAX_SUBSPACE_DIM = 24

# Entries each per-process memo of a subspace conversion keeps: mask_keys,
# mask_subspace, point_mask and AffineSubspace.to_text here, and
# distributions.uniform_row.  Each key holds its n (a mask's n is an
# argument, a subspace carries its own), and each value is immutable.
# F_2^n has 1, 3, 11, 51 and 307 non-empty affine subspaces at n = 0..4,
# so the tables hold every subspace up to n = 4 at once; filled with all
# of n = 4 they take about 0.44 MiB.  Past the bound the least recently
# used entry goes.  An entry grows with n, a point's most: 2^n - 1 key
# ids, a 2^n-bit mask and a 2^n-float row.  So the worst case is 1024
# points: about 69 MiB for the five tables at n = 10 (70 KiB a point),
# and about four times that at n = 12.
LABEL_MEMO = 1024


class DimensionMismatch(ValueError):
    pass


class EmptySubspaceError(ValueError):
    pass


def parity(v: int) -> int:
    """Parity of the popcount of v."""
    return v.bit_count() & 1


def lowest_set_bit(v: int) -> int:
    """Index of the least significant set bit (v must be nonzero)."""
    return (v & -v).bit_length() - 1


@dataclass(frozen=True, slots=True)
class BitVector:
    """A vector in {0,1}^n, packed LSB-first (bit i = coordinate i+1).  Its
    text and bytes lead with coordinate 1; the bytes pad with zeros."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    def __str__(self) -> str:
        # bin() with a sentinel bit n reads "0b1" then coordinates n..1
        return bin(self.bits | 1 << self.n)[:2:-1]

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text[::-1] or "0", 2))

    def to_bytes(self) -> bytes:
        nbytes = (self.n + 7) // 8
        return (int(str(self) or "0", 2) << (8 * nbytes - self.n)).to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitVector":
        """Inverse of to_bytes; the padding bits are ignored."""
        nbytes = (n + 7) // 8
        if len(data) != nbytes:
            raise ValueError(f"expected {nbytes} bytes for n={n}, got {len(data)}")
        # a sentinel bit above the data keeps its leading zeros in the text
        return cls.from_string(bin(int.from_bytes(data, "big") | 1 << 8 * nbytes)[3:3 + n])


def _reduce(basis: Iterable[int], v: int) -> int:
    """Clear every pivot column of v.

    The basis rows have distinct pivots (lowest set bits) and no row has a
    bit in another row's pivot column, so the order of the rows is free.
    """
    for b in basis:
        if v & b & -b:
            v ^= b
    return v


def _insert(basis: list[int], v: int) -> None:
    """Add the reduced nonzero row v and clear its pivot column from the
    other rows, keeping the invariant _reduce relies on."""
    p = v & -v
    for i, b in enumerate(basis):
        if b & p:
            basis[i] = b ^ v
    basis.append(v)


def _rref_ints(rows: Iterable[int]) -> list[int]:
    """RREF a collection of packed rows; returns rows sorted by pivot."""
    basis: list[int] = []
    for row in rows:
        v = _reduce(basis, row)
        if v:
            _insert(basis, v)
    basis.sort(key=lowest_set_bit)
    return basis


@dataclass(frozen=True, slots=True)
class VectorSubspace:
    """A linear subspace of {0,1}^n, basis rows in RREF (pivots increasing).

    The constructor takes any spanning n-bit rows and puts them in RREF.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_SUBSPACE_DIM:
            raise ValueError(f"ambient dimension {self.n} outside [0, {MAX_SUBSPACE_DIM}]")
        if any(r >> self.n for r in self.rows):  # also rejects negative rows
            raise ValueError("basis rows must be n-bit words")
        object.__setattr__(self, "rows", tuple(_rref_ints(self.rows)))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "VectorSubspace":
        return cls(n, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """Reduce v modulo the row span (zeroes every pivot coordinate)."""
        return _reduce(self.rows, v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def _span(offset: int, rows: Iterable[int]) -> list[int]:
    """Every point of the coset offset + span(rows), the rows linearly
    independent: point number mask is offset XOR the rows i with bit i
    set in mask."""
    points = [offset]
    for r in rows:
        points += [p ^ r for p in points]
    return points


@lru_cache(maxsize=65536)
def _null_space_cached(n: int, rows: tuple[int, ...]) -> VectorSubspace:
    """The space {a : a.r = 0 for every RREF row r}."""
    piv = {lowest_set_bit(r) for r in rows}
    gens = []
    for f in range(n):
        if f in piv:
            continue
        v = 1 << f
        for r in rows:
            if (r >> f) & 1:
                v |= 1 << lowest_set_bit(r)
        gens.append(v)
    return VectorSubspace.from_rows(n, gens)


@dataclass(frozen=True, slots=True)
class AffineSubspace:
    """A coset of a linear subspace of {0,1}^n, or the distinguished Empty.

    Canonical form: RREF direction basis, packed n-bit offset zero on all
    pivot columns (the constructor reduces any offset).
    Empty is represented with direction == offset == None; dim is undefined
    for it and must not be queried.
    """

    n: int
    direction: VectorSubspace | None
    offset: int | None

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_SUBSPACE_DIM:
            raise ValueError(f"ambient dimension {self.n} outside [0, {MAX_SUBSPACE_DIM}]")
        if (self.direction is None) != (self.offset is None):
            raise ValueError("direction and offset must both be set or both be None")
        if self.direction is not None:
            if self.direction.n != self.n:
                raise DimensionMismatch("ambient dimension mismatch")
            _check_vector(self.n, self.offset)
            object.__setattr__(self, "offset", self.direction.reduce(self.offset))

    @property
    def is_empty(self) -> bool:
        return self.direction is None

    @property
    def dim(self) -> int:
        if self.is_empty:
            raise EmptySubspaceError("dim of the empty subspace is undefined")
        return self.direction.dim

    @classmethod
    def empty(cls, n: int) -> "AffineSubspace":
        return cls(n, None, None)

    @classmethod
    def full(cls, n: int) -> "AffineSubspace":
        return cls(n, VectorSubspace.from_rows(n, (1 << i for i in range(n))), 0)

    @classmethod
    def point(cls, n: int, p: int) -> "AffineSubspace":
        return cls(n, VectorSubspace(n, ()), p)

    def points(self) -> list[int]:
        """Every point in _span's order, [] for Empty."""
        if self.is_empty:
            return []
        return _span(self.offset, self.direction.rows)

    @lru_cache(maxsize=LABEL_MEMO)
    def to_text(self) -> str:
        if self.is_empty:
            return "EMPTY"
        rows = ",".join(str(BitVector(self.n, r)) for r in self.direction.rows)
        return f"{BitVector(self.n, self.offset)}|{rows}"

    def __str__(self) -> str:
        return self.to_text()


def parse_subspace(text: str, n: int) -> AffineSubspace:
    """Inverse of AffineSubspace.to_text for a known ambient dimension."""
    if text == "EMPTY":
        return AffineSubspace.empty(n)
    try:
        offset_part, rows_part = text.split("|")
    except ValueError:
        raise ValueError(f"malformed subspace text: {text!r}") from None
    offset = BitVector.from_string(offset_part)
    rows = [BitVector.from_string(r) for r in rows_part.split(",")] if rows_part else []
    for v in (offset, *rows):
        if v.n != n:
            raise DimensionMismatch(f"expected n={n}, got a {v.n}-bit vector in {text!r}")
    return AffineSubspace(n, VectorSubspace.from_rows(n, [r.bits for r in rows]), offset.bits)


def _check_vector(n: int, v: int) -> None:
    """Raise DimensionMismatch unless v packs a vector of {0,1}^n."""
    if v >> n:  # also rejects a negative v
        raise DimensionMismatch(f"{v:#x} is not an n={n} vector")


def intersect_hyperplane(w: AffineSubspace, a: int, b: int) -> AffineSubspace:
    """Canonical form of w ∩ {x : a.x = b}.

    Returns Empty when the constraint contradicts w, w itself when it is
    redundant, and otherwise drops the dimension by exactly one.
    """
    if b not in (0, 1):
        raise ValueError(f"b must be a bit, got {b}")
    _check_vector(w.n, a)
    if w.is_empty:
        return w
    hit = [r for r in w.direction.rows if parity(a & r)]
    c = parity(a & w.offset)
    if not hit:
        return w if c == b else AffineSubspace.empty(w.n)
    d0 = hit[0]
    new_rows = [r ^ d0 if parity(a & r) and r != d0 else r
                for r in w.direction.rows if r != d0]
    new_offset = w.offset ^ d0 if c != b else w.offset
    return AffineSubspace(w.n, VectorSubspace.from_rows(w.n, new_rows), new_offset)


def orthogonal_space(w: AffineSubspace) -> VectorSubspace:
    """The space of directions a that are constant (a.x = const) on w."""
    if w.is_empty:
        raise EmptySubspaceError("orthogonal space of the empty subspace")
    return _null_space_cached(w.n, w.direction.rows)


def hyperplane_keys(w: AffineSubspace) -> frozenset[int]:
    """The key ids 2a + b (a packed) of the hyperplanes {x : a.x = b},
    a != 0, that contain w.

    These are the nonzero a of the orthogonal space of w, each with its
    constant value b = a.offset on w.  A non-empty w is the intersection
    of these hyperplanes, so w1 ⊆ w2 exactly when every key of w2 is a
    key of w1.  The key id is the package's one form of a hyperplane;
    keys_subspace, keys_mask, mask_keys and mask_subspace convert it.
    """
    if w.is_empty:
        raise EmptySubspaceError("hyperplane keys of the empty subspace")
    return coset_keys(w.n, w.direction.rows, w.offset)


def coset_keys(n: int, rows: tuple[int, ...], offset: int) -> frozenset[int]:
    """hyperplane_keys of the coset offset + span(rows), given by the
    fields of its canonical form: RREF rows sorted by pivot, and an
    offset."""
    # point 0 is a = 0, and no other: the rows are independent
    return frozenset((a << 1) | parity(a & offset)
                     for a in _span(0, _null_space_cached(n, rows).rows)[1:])


def keys_subspace(n: int, ids: Iterable[int]) -> AffineSubspace:
    """The solution set of the key ids' equations a.x = b."""
    return solve_affine_system(n, ((k >> 1) | (k & 1) << n for k in ids))


def contains(w: AffineSubspace, x: int) -> bool:
    """Whether the point x lies in w (always False for Empty)."""
    _check_vector(w.n, x)
    if w.is_empty:
        return False
    return w.direction.contains(x ^ w.offset)


def is_subset(w1: AffineSubspace, w2: AffineSubspace) -> bool:
    """Whether every point of w1 lies in w2 (Empty is a subset of anything)."""
    if w1.n != w2.n:
        raise DimensionMismatch(f"{w1.n} != {w2.n}")
    if w1.is_empty:
        return True
    if w2.is_empty:
        return False
    if not w2.direction.contains(w1.offset ^ w2.offset):
        return False
    return all(w2.direction.contains(r) for r in w1.direction.rows)


@cache
def hyperplane_masks(n: int) -> tuple[int, ...]:
    """Entry a is the point mask (see point_mask) of {x : a.x = 0}.

    The mask of {x : a.x = 1} is the rest of the 2^n points.  The table
    is odd(a) = XOR of C_i over the bits i of a, where odd(a) is the mask
    of {x : a.x = 1} and C_i that of {x : x_i = 1}: _span(0, C), one
    2^n-bit XOR per entry.  It holds 4^n bits, so callers bound n.
    """
    size = 1 << n
    columns = []
    for i in range(n):
        c = ((1 << (1 << i)) - 1) << (1 << i)  # one period: x_i = 0 for 2^i points, then 1
        span = 2 << i
        while span < size:
            c |= c << span
            span <<= 1
        columns.append(c)
    full = (1 << size) - 1
    return tuple(full ^ o for o in _span(0, columns))


@lru_cache(maxsize=LABEL_MEMO)
def point_mask(w: AffineSubspace) -> int:
    """The points of w as a 2^n-bit int: bit x is set iff x lies in w
    (0 for Empty).

    A non-empty w is the intersection of the hyperplanes
    {x : a.x = a.offset} over a basis of its orthogonal space.  Uses the
    4^n-bit hyperplane_masks table, so callers bound n.
    """
    if w.is_empty:
        return 0
    return keys_mask(hyperplane_masks(w.n),
                     ((a << 1) | parity(a & w.offset) for a in orthogonal_space(w).rows))


def keys_mask(even: tuple[int, ...], ids: Iterable[int]) -> int:
    """The point mask of the key ids' solution set, the AND of their
    hyperplane masks, with even = hyperplane_masks(n)."""
    mask = even[0]  # every point
    for k in ids:
        mask &= ~even[k >> 1] if k & 1 else even[k >> 1]
    return mask


@lru_cache(maxsize=LABEL_MEMO)
def mask_keys(n: int, e: int) -> frozenset[int]:
    """The key ids of a non-empty subspace of {0,1}^n from its point mask
    e: 2a when e lies in {a.x = 0}, 2a + 1 when in {a.x = 1}."""
    even = hyperplane_masks(n)
    ids = []
    for a in range(1, len(even)):
        if not e & ~even[a]:
            ids.append(a << 1)
        elif not e & even[a]:
            ids.append((a << 1) | 1)
    return frozenset(ids)


@lru_cache(maxsize=LABEL_MEMO)
def mask_subspace(n: int, e: int) -> AffineSubspace:
    """The non-empty subspace of {0,1}^n with point mask e."""
    return keys_subspace(n, mask_keys(n, e))


def edge_masks(mask: int, even: tuple[int, ...]) -> list[int]:
    """The point mask of mask ∩ {a.x = b} at each key id (a << 1) | b,
    with even = hyperplane_masks(n)."""
    return [e for h in even for e in (mask & h, mask & ~h)]


def _sample_coset(offset: int, rows: tuple[int, ...], mask: int) -> int:
    """Point number mask of _span(offset, rows), without the list: a
    uniform point of the coset for a mask uniform on [0, 2^len(rows))."""
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            offset ^= r
    return offset


def solve_affine_system(n: int, rows: Iterable[int]) -> AffineSubspace:
    """Solution set of the system {a.x = b}, one packed row a | b << n per
    equation.

    Returns Empty for an inconsistent system and the full space for an
    empty one.
    """
    solution = _solve_rows(n, rows)
    if solution is None:
        return AffineSubspace.empty(n)
    return AffineSubspace(n, solution[1], solution[0])


def _solve_rows(n: int, rows: Iterable[int]) -> tuple[int, VectorSubspace] | None:
    """solve_affine_system without the AffineSubspace: (an offset, not yet
    reduced by the direction, and the direction), or None when the system
    is inconsistent."""
    mask = (1 << n) - 1
    coeff_rows = []
    offset = 0
    for row in _rref_ints(rows):
        a = row & mask
        if a == 0:  # the reduced row 0 = 1
            return None
        coeff_rows.append(a)
        if row >> n:
            offset |= a & -a
    # the coefficient parts of RREF rows with pivots below n are in RREF
    return offset, _null_space_cached(n, tuple(coeff_rows))
