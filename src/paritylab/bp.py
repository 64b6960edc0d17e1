"""Layered branching programs for parity learning.

A program of length m has m+1 layers of vertices; every non-leaf vertex
has exactly 2^{n+1} out-edges, one per sample (a, b), a packed n-bit
vector a and a bit b, indexed by (a << 1) | b.  Leaves carry
affine-subspace output labels.  All last-layer vertices are leaves;
earlier layers may declare extra leaves.
The exact forward dynamic program tracks the joint law of (vertex, x)
with leaf weight absorbed at the leaf's own layer.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Callable, Hashable, Sequence

import numpy as np

from .config import BudgetExceeded, dp_budget, state_budget
from .gf2 import (
    AffineSubspace,
    DimensionMismatch,
    _span,
    edge_masks,
    hyperplane_masks,
    parse_subspace,
    point_mask,
)


@dataclass(frozen=True)
class BranchingProgram:
    """transitions[t][v] is a tuple of 2^{n+1} next-layer indices, or None
    for an early leaf; layer m vertices have no transition entry at all."""

    n: int
    m: int
    layer_sizes: tuple[int, ...]
    transitions: tuple[tuple[tuple[int, ...] | None, ...], ...]
    leaf_labels: dict[tuple[int, int], AffineSubspace]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) != self.m + 1:
            raise ValueError("need m+1 layer sizes")
        if self.layer_sizes[0] != 1:
            raise ValueError("layer 0 must hold exactly the start vertex")
        if any(sz < 1 for sz in self.layer_sizes):
            raise ValueError("layers must be non-empty")
        if len(self.transitions) != self.m:
            raise ValueError("need transition tables for layers 0..m-1")
        degree = 1 << (self.n + 1)
        for t, layer in enumerate(self.transitions):
            if len(layer) != self.layer_sizes[t]:
                raise ValueError(f"layer {t} transition count mismatch")
            size = self.layer_sizes[t + 1]
            for v, row in enumerate(layer):
                if row is None:
                    continue
                if len(row) != degree:
                    raise ValueError(f"vertex ({t},{v}) needs {degree} out-edges")
                if min(row) < 0 or max(row) >= size:
                    raise ValueError(f"vertex ({t},{v}) has an out-of-range target")
        for t, v in self.iter_leaves():
            lab = self.leaf_labels.get((t, v))
            if lab is None:
                raise ValueError(f"leaf ({t},{v}) has no output label")
            if lab.n != self.n:
                raise ValueError(f"leaf ({t},{v}) label has wrong dimension")
        for (t, v) in self.leaf_labels:
            if not (0 <= t <= self.m and 0 <= v < self.layer_sizes[t]):
                raise ValueError(f"output label at ({t},{v}), a vertex the program lacks")
            if not self.is_leaf(t, v):
                raise ValueError(f"non-leaf ({t},{v}) carries an output label")

    @property
    def width(self) -> int:
        return max(self.layer_sizes)

    def is_leaf(self, t: int, v: int) -> bool:
        return t == self.m or self.transitions[t][v] is None

    def iter_leaves(self):
        for t in range(self.m):
            for v in range(self.layer_sizes[t]):
                if self.transitions[t][v] is None:
                    yield (t, v)
        for v in range(self.layer_sizes[self.m]):
            yield (self.m, v)

    def has_early_leaves(self) -> bool:
        return any(t < self.m for t, _ in self.iter_leaves())


# An affine subspace per vertex, not only per leaf: labels[t][v].
Labels = tuple[tuple[AffineSubspace, ...], ...]


def labelled_program(n: int, transitions: Sequence[tuple[tuple[int, ...] | None, ...]],
                     labels: Labels) -> BranchingProgram:
    """The program of these rows, with the label layers' lengths as its
    layer sizes and its leaves (None rows, last layer) labelled by labels."""
    m = len(transitions)
    leaf_labels = {(t, v): w for t, layer in enumerate(labels) for v, w in enumerate(layer)
                   if t == m or transitions[t][v] is None}
    return BranchingProgram(n, m, tuple(map(len, labels)), tuple(transitions), leaf_labels)


def check_layer_shape(bp: BranchingProgram, layers: Sequence[Sequence], name: str) -> None:
    """Raise ValueError naming the first layer whose length is not bp's."""
    for t, (got, want) in enumerate(zip_longest(map(len, layers), bp.layer_sizes, fillvalue=0)):
        if got != want:
            raise ValueError(f"{name} layer {t} has {got} entries, not the program's {want}")


# Most (vertex, a, x) cells per np.add.at call in forward_tables, one
# (vertex, a) row from n = 14 on.  The chunk's index and weight buffers are
# allocated once, one pair for every n up to 14, and refilled in place: at
# 128 KiB apiece, glibc's default mmap threshold, fresh ones per call would
# page-fault or not depending on what the process ran before.
_SCATTER_CELLS = 1 << 14


def check_dp_budget(bp: BranchingProgram) -> None:
    _check_dp_cost(bp.width, bp.n, bp.m)


def _check_dp_cost(width: int, n: int, m: int) -> None:
    """Raise BudgetExceeded when the DP of a program of this width, n
    and length m exceeds the DP budget."""
    cost = width * (4 ** n) * max(m, 1)
    if cost > dp_budget():
        raise BudgetExceeded(
            f"exact DP cost {cost} exceeds budget {dp_budget()}; "
            "set PARITYLAB_DP_BUDGET to override")


def _check_layer_edges(width: int, n: int, t: int) -> None:
    """Raise BudgetExceeded when layer t's width times its 2^{n+1}
    out-edges exceeds the state budget."""
    degree = 1 << (n + 1)
    if width * degree > state_budget():
        raise BudgetExceeded(
            f"{width} vertices x {degree} edges in layer {t} exceeds the state budget; "
            "set PARITYLAB_STATE_BUDGET to override")


# The last program forward_tables swept, by weak reference, and its
# read-only tables; the weakref's callback drops both when the program is
# collected.
_last_sweep: tuple[weakref.ref, list[np.ndarray]] | None = None


def _drop_sweep(ref: weakref.ref) -> None:
    """The weakref callback: forget the kept sweep if it is this ref's."""
    global _last_sweep
    if _last_sweep is not None and _last_sweep[0] is ref:
        _last_sweep = None


def forward_tables(bp: BranchingProgram) -> list[np.ndarray]:
    """Exact joint weights of (vertex, x) per layer, absorbing at leaves.

    tables[t][v, x] is the probability that the computation-path occupies
    v at time t (or was absorbed there, for early leaves) jointly with the
    key being x, under uniform x and uniform sample vectors.

    The sweep of the last program is kept until the program is collected:
    another call on the same object (matched by identity; n, layer_sizes
    and transitions, all it reads, are immutable) returns the same
    read-only arrays in a fresh list.  The DP budget is checked on every
    call.
    """
    global _last_sweep
    check_dp_budget(bp)
    if _last_sweep is not None and _last_sweep[0]() is bp:
        return list(_last_sweep[1])
    _last_sweep = None  # the old sweep's memory is free for this one
    tables = [np.zeros((width, 1 << bp.n)) for width in bp.layer_sizes]
    tables[0][0, :] = 2.0 ** (-bp.n)
    buffers = _scatter_buffers(bp.n)
    for t in range(bp.m):
        _scatter_layer(tables[t], tables[t + 1], bp.transitions[t], *buffers)
    for table in tables:
        table.flags.writeable = False
    _last_sweep = (weakref.ref(bp, _drop_sweep), tables)
    return list(tables)


def _scatter_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_scatter_layer's edge table 2i + i.x over the block of sample
    vectors i < span and the keys x < 2^n (one byte an entry, 2^14
    entries at most up to n = 14 and one row beyond), built per call,
    and one chunk's index and weight buffers, shaped views of
    _chunk_buffers.  A chunk is `verts` whole vertices (n <= 7, where
    span = 2^n) or one block of `span` sample vectors of one vertex, as
    (vertex, a, x) cells."""
    size = 1 << n
    per = max(1, _SCATTER_CELLS // size)
    verts, span = max(1, per // size), min(per, size)
    # span <= 128: 2i + 1 fits a byte, and i & x reads only x's low byte
    i = np.arange(span, dtype=np.uint8)[:, None]
    edge = (i << 1) | (np.bitwise_count(i & np.arange(size).astype(np.uint8)) & 1)
    index, weight = _chunk_buffers(verts * span * size)
    return edge, index.reshape(verts, span, size), weight.reshape(verts, span, size)


@functools.cache
def _chunk_buffers(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index and weight buffers of `cells` cells, kept for the
    process: every n up to 14 shares the one pair of _SCATTER_CELLS cells
    (128 KiB apiece)."""
    return np.empty(cells, dtype=np.intp), np.empty(cells)


def _scatter_layer(cur: np.ndarray, nxt: np.ndarray, rows: tuple, edge: np.ndarray,
                   index: np.ndarray, weight: np.ndarray) -> None:
    """nxt[rows[v][2a + a.x], x] += cur[v, x] / 2^n for every non-leaf v
    of nonzero weight and every a, in (v, a, x) order, one chunk of the
    index and weight buffers at a time.  np.add.at is unbuffered and adds
    in index order, so each cell gets the same float additions in the
    same order as a loop over v, then a, would make; the zero additions
    such a loop makes change nothing.

    The live vertices, their targets (times 2^n) and their weights are
    built once per layer.  While a chunk holds several vertices (n <= 6),
    so are the edge-plus-row-offset index rows of up to `verts` of them,
    and a chunk is a copy, a gather and the scatter.  Otherwise a chunk is
    the block of sample vectors a0 + i (a0 a multiple of span, i < span)
    of one vertex, which reads the row's targets from 2 a0 on, at
    2i + (i.x ^ a0.x): i and a0 share no bit, so a.x = i.x ^ a0.x."""
    verts, span, size = index.shape
    live = [v for v in np.flatnonzero(cur.any(axis=1)).tolist() if rows[v] is not None]
    targets = np.fromiter(chain.from_iterable(rows[v] for v in live), np.intp,
                          len(live) * 2 * size).reshape(len(live), 2 * size)
    targets *= size
    weights = np.take(cur, live, axis=0)
    weights /= size
    if verts > 1:
        blocks = edge + np.arange(min(verts, len(live)))[:, None, None] * (2 * span)
    xs = np.arange(size)
    flat = nxt.reshape(-1)
    for j in range(0, len(live), verts):
        k = min(verts, len(live) - j)
        idx, wt = index[:k], weight[:k]
        np.copyto(wt, weights[j:j + k, None, :])
        for a0 in range(0, size, span):
            at = (blocks[:k] if verts > 1
                  else np.bitwise_xor(edge, np.bitwise_count(xs & a0) & 1, out=idx))
            # the indices are in range; mode="raise" would buffer the output
            np.take(targets[j:j + k, 2 * a0:2 * (a0 + span)], at, out=idx, mode="wrap")
            idx += xs
            np.add.at(flat, idx.reshape(-1), wt.reshape(-1))


def success_probability(bp: BranchingProgram) -> float:
    """Pr[x ∈ the output label], absorbed at each leaf's layer: label
    containment, so a leaf labelled with the full space always succeeds
    (not Pr[the output is the point x]).

    Each layer's leaf cells v·2^n + x, x over the leaf's label, are summed
    in one gather per layer.  Layer t of forward_tables holds integer
    multiples of 2^-(t+1)n summing to at most 1, so while (m+1)·n <= 53
    every partial sum is exact in any order and the result equals a
    per-leaf sum bit for bit; past that the two differ only by summation
    order.
    """
    tables = forward_tables(bp)
    size = 1 << bp.n
    cells: list[list[int]] = [[] for _ in tables]
    for t, v in bp.iter_leaves():
        w = bp.leaf_labels[(t, v)]
        if not w.is_empty:
            # v·2^n shares no bit with a point x < 2^n: its cells are a coset
            cells[t] += _span(v * size | w.offset, w.direction.rows)
    total = 0.0
    for table, idx in zip(tables, cells):
        if idx:
            total += float(np.take(table, idx).sum())
    return total


def output_dimension_distribution(bp: BranchingProgram) -> dict[int, float]:
    """Reach probability per output-label dimension (-1 buckets Empty)."""
    tables = forward_tables(bp)
    # sum(axis=1) of a C-contiguous table is each row's .sum(), bit for bit
    mass = functools.cache(lambda t: tables[t].sum(axis=1).tolist())
    out: dict[int, float] = {}
    for t, v in bp.iter_leaves():
        lab = bp.leaf_labels[(t, v)]
        key = -1 if lab.is_empty else lab.dim
        out[key] = out.get(key, 0.0) + mass(t)[v]
    return out


@dataclass(frozen=True)
class AffineValidation:
    ok: bool
    violations: list[tuple]
    notes: list[str]


def validate_affine(bp: BranchingProgram, labels: Labels) -> AffineValidation:
    """Check the labels' shape (else ValueError), the start label and the
    per-edge inclusion label(u) ∩ {x : a.x = b} ⊆ label(v).

    Each label is its point mask (gf2.point_mask, memoized per process),
    so an edge is one int test: the edge (a, b) violates iff
    gf2.edge_masks of label(u)'s mask has a point outside label(v)'s mask
    at index (a << 1) | b.  The 4^n-bit hyperplane_masks table is under
    the DP budget, checked first.
    """
    check_layer_shape(bp, labels, "labels")
    check_dp_budget(bp)
    violations: list[tuple] = []
    notes: list[str] = []
    if labels[0][0] != AffineSubspace.full(bp.n):
        violations.append(("start", 0, 0))
    masks = []
    for t, layer_labels in enumerate(labels):
        layer = []
        for v, lab in enumerate(layer_labels):
            if lab.n != bp.n:
                raise DimensionMismatch(f"vertex ({t},{v}) label has n={lab.n}, "
                                        f"the program n={bp.n}")
            if lab.is_empty:
                notes.append(f"vertex ({t},{v}) is labeled Empty")
            layer.append(point_mask(lab))
        masks.append(layer)
    even = hyperplane_masks(bp.n)
    for t in range(bp.m):
        outside = [~mask for mask in masks[t + 1]]
        for v, row in enumerate(bp.transitions[t]):
            if row is None:
                continue
            for k, (e, tgt) in enumerate(zip(edge_masks(masks[t][v], even), row)):
                if e & outside[tgt]:
                    violations.append(("edge", t, v, k >> 1, k & 1))
    return AffineValidation(not violations, violations, notes)


def layer_accuracy(bp: BranchingProgram, rows: list[np.ndarray],
                   tables: list[np.ndarray]) -> list[float]:
    """Per layer t: E over the layer-t vertex of the l1 distance between
    the conditional key law and the uniform law on the vertex label.

    rows[t] is the uniform_rows of layer t's labels and tables is bp's
    forward sweep (forward_tables); both serve every layer, and a caller
    may share them with other checks.
    """
    if bp.has_early_leaves():
        raise ValueError("layer accuracy is defined only when all leaves "
                         "are in the last layer")
    accuracy = []
    for t, table in enumerate(tables):
        # sum(axis=1) of a C-contiguous table is each row's .sum(), bit for bit
        mass = table.sum(axis=1)
        dev = np.abs(table - mass[:, None] * rows[t]).sum(axis=1)
        total = 0.0
        for d in dev[mass > 0.0].tolist():  # the live rows, in vertex order
            total += d
        accuracy.append(total)
    return accuracy


def unroll(n: int, m: int, start: Hashable,
           step: Callable[[Hashable, int, int], Hashable],
           stop: Callable[[Hashable], bool] | None = None,
           successors: Callable[[np.ndarray], np.ndarray] | None = None,
           ) -> tuple[list[list], list[tuple[tuple[int, ...] | None, ...]]]:
    """Breadth-first unrolling of a deterministic machine into m layers.

    step(state, a, b) consumes one sample.  Returns the states per layer
    and the transition rows, edge index (a << 1) | b.  Equal states share
    a vertex, numbered per layer in first-seen (state, edge) order.  A
    state with stop(state) becomes an early leaf (a None row); a layer
    whose states all stop carries its first state forward so the next
    layer stays non-empty.  Raises BudgetExceeded, before stepping it,
    when a layer's states times its 2^{n+1} out-edges exceed the state
    budget.

    A layer's states that do not stop are stepped a chunk of at most
    _UNROLL_CELLS next states at a time: through successors, when given,
    which is step over arrays (int64 states (S,) to their next states
    (S, 2^{n+1}), column (a << 1) | b), and through step otherwise.
    """
    samples = [(a, b) for a in range(1 << n) for b in (0, 1)]
    degree = len(samples)
    per = max(1, _UNROLL_CELLS // degree)
    layers: list[list] = [[start]]
    transitions = []
    for t in range(m):
        layer = layers[t]
        _check_layer_edges(len(layer), n, t)
        index: dict = {}
        rows: list[tuple[int, ...] | None] = [None] * len(layer)
        live = [v for v, state in enumerate(layer) if stop is None or not stop(state)]
        for j in range(0, len(live), per):
            chunk = live[j:j + per]
            states = [layer[v] for v in chunk]
            if successors is not None:
                nxt = successors(np.array(states, dtype=np.int64)).ravel().tolist()
            else:
                nxt = [step(state, a, b) for state in states for a, b in samples]
            ids = [index.setdefault(s, len(index)) for s in nxt]
            del nxt  # freed before the next chunk is stepped, not alongside it
            for k, v in enumerate(chunk):
                rows[v] = tuple(ids[k * degree:(k + 1) * degree])
        transitions.append(tuple(rows))
        layers.append(list(index) or [layer[0]])
    return layers, transitions


# Most next states per chunk in unroll.  A chunk's int64 next states take
# 32 KiB, and the Gaussian successors' pivot-major rows n times that: 128
# KiB at n = 4, 224 KiB at n = 7, at or over glibc's default 128 KiB mmap
# threshold.  glibc raises the threshold to the size of each mmapped block
# it frees, so only a process's first such array is mmapped and the rest
# come from the heap however large the layer.  Unrolling the Gaussian n =
# 3, 4 layers at m = 2, 3 raises a process's peak RSS by about 1 MiB, the
# n = 7, m = 2 layers by about 2.7 MiB (numpy 2.4, glibc, x86-64).
_UNROLL_CELLS = 1 << 12


def to_json_dict(bp: BranchingProgram,
                 labels: Labels | None = None,
                 gamma: tuple[tuple[int, ...], ...] | None = None) -> dict:
    doc: dict = {
        "n": bp.n,
        "m": bp.m,
        "layer_sizes": list(bp.layer_sizes),
        "transitions": [
            [list(row) if row is not None else None for row in layer]
            for layer in bp.transitions
        ],
        "leaf_labels": {f"{t},{v}": lab.to_text() for (t, v), lab in sorted(bp.leaf_labels.items())},
    }
    if labels is not None:
        check_layer_shape(bp, labels, "labels")
        doc["labels"] = [[w.to_text() for w in layer] for layer in labels]
    if gamma is not None:
        check_layer_shape(bp, gamma, "gamma")
        doc["gamma"] = [list(layer) for layer in gamma]
    return doc


def _field(doc: dict, key: str, convert: Callable, required: bool = True):
    """convert(doc[key]), with a missing or ill-typed field reported as a
    ValueError that names it."""
    if key not in doc:
        if required:
            raise ValueError(f"program JSON lacks the field {key!r}")
        return None
    try:
        return convert(doc[key])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"program JSON field {key!r} is malformed: {exc}") from None


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _parse_leaf_labels(entries: dict, n: int) -> dict[tuple[int, int], AffineSubspace]:
    out = {}
    for key, text in entries.items():
        t, v = key.split(",")
        out[(int(t), int(v))] = parse_subspace(text, n)
    return out


def from_json_dict(doc: dict) -> tuple[BranchingProgram, Labels | None,
                                       tuple[tuple[int, ...], ...] | None]:
    """Inverse of to_json_dict; malformed documents, labels or gamma not
    of the program's shape among them, raise ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("program JSON must be an object")
    n = _field(doc, "n", _integer)
    m = _field(doc, "m", _integer)
    sizes = _field(doc, "layer_sizes", lambda sizes: tuple(_integer(s) for s in sizes))
    transitions = _field(doc, "transitions", lambda layers: tuple(
        tuple(None if row is None else tuple(_integer(tgt) for tgt in row) for row in layer)
        for layer in layers))
    leaf_labels = _field(doc, "leaf_labels", lambda entries: _parse_leaf_labels(entries, n))
    bp = BranchingProgram(n, m, sizes, transitions, leaf_labels)
    labels = _field(doc, "labels", lambda layers: tuple(
        tuple(parse_subspace(text, n) for text in layer) for layer in layers), required=False)
    gamma = _field(doc, "gamma", lambda layers: tuple(
        tuple(_integer(g) for g in layer) for layer in layers), required=False)
    for name, layers in (("labels", labels), ("gamma", gamma)):
        if layers is not None:
            check_layer_shape(bp, layers, name)
    return bp, labels, gamma
