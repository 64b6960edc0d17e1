import gc
import itertools
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    _recorder_step,
    object_greedy_recorder,
    object_selective_recorder,
    per_leaf_output_dimensions,
    per_leaf_success_probability,
    per_vertex_layer_accuracy,
    per_vertex_program_with_labels,
    run_path,
    scalar_unroll,
)

import paritylab.bp as bp_module
from paritylab.bp import (
    _SCATTER_CELLS,
    _chunk_buffers,
    _scatter_buffers,
    _scatter_layer,
    BranchingProgram,
    forward_tables,
    from_json_dict,
    layer_accuracy,
    output_dimension_distribution,
    success_probability,
    to_json_dict,
    validate_affine,
)
from paritylab.config import BudgetExceeded
from paritylab.distributions import uniform_rows
from paritylab.generators import (
    _selective_learner,
    greedy_recorder_program,
    learner_program_with_labels,
    random_program,
    random_subspace,
    selective_recorder_program,
)
from paritylab.gf2 import (
    AffineSubspace,
    DimensionMismatch,
    contains,
    intersect_hyperplane,
    is_subset,
    parity,
    parse_subspace,
)
from paritylab.crypto import window_attacker
from paritylab.learners import (
    exhaustive_learner,
    gaussian_learner,
    learner_state_layers,
    prefix_pivot_learner,
)
from paritylab.lowerbound import trim_to_min_dimension
from paritylab.reduction import reduce_to_affine


def record_first_sample_program(n, m):
    """Layer 1 keyed by the first (a, b); every leaf labeled by the
    recorded constraint (full space when a = 0); later layers pass through."""
    full = AffineSubspace.full(n)
    deg = 1 << (n + 1)
    sizes = [1] + [deg] * m
    transitions = [tuple([tuple(range(deg))])]
    for _ in range(m - 1):
        transitions.append(tuple(tuple([v] * deg) for v in range(deg)))
    labels = {}
    for idx in range(deg):
        a, b = idx >> 1, idx & 1
        w = intersect_hyperplane(full, a, b) if a else full
        labels[(m, idx)] = w
    return BranchingProgram(n, m, tuple(sizes), tuple(transitions), labels)


def chain_program(n, m, label):
    deg = 1 << (n + 1)
    transitions = tuple((tuple([0] * deg),) for _ in range(m))
    return BranchingProgram(n, m, (1,) * (m + 1), transitions, {(m, 0): label})


def sized_program(n, sizes, rng):
    """Random transitions between layers of the given sizes; full-space
    labels on the last layer."""
    deg = 1 << (n + 1)
    transitions = tuple(tuple(tuple(int(v) for v in rng.integers(0, sizes[t + 1], deg))
                              for _ in range(sizes[t]))
                        for t in range(len(sizes) - 1))
    m = len(sizes) - 1
    return BranchingProgram(n, m, tuple(sizes), transitions,
                            {(m, v): AffineSubspace.full(n) for v in range(sizes[m])})


def zero_weight_program(n):
    """Vertices 2 and 3 of layer 1 are non-leaves that no edge reaches."""
    bp = sized_program(n, (1, 4, 4, 2), np.random.default_rng(4))
    start = tuple(i % 2 for i in range(2 << n))
    return replace(bp, transitions=((start,),) + bp.transitions[1:])


def loop_forward_tables(bp):
    """Reference for forward_tables: loop_scatter_layer per layer."""
    tables = [np.zeros((bp.layer_sizes[t], 1 << bp.n)) for t in range(bp.m + 1)]
    tables[0][0, :] = 2.0 ** (-bp.n)
    for t in range(bp.m):
        loop_scatter_layer(tables[t], tables[t + 1], bp.transitions[t], bp.n)
    return tables


def loop_scatter_layer(cur, nxt, rows, n):
    """Reference for one layer of the DP: a loop over vertices and then
    sample vectors a, adding the weight of the keys with a.x = 0 to the
    (a, 0) target and of the rest to the (a, 1) target."""
    size = 1 << n
    xs = np.arange(size)
    par = np.zeros(size, dtype=np.uint8)
    for i in range(1, size):
        par[i] = par[i >> 1] ^ (i & 1)
    scale = 2.0 ** (-n)
    masks0 = [par[a & xs] == 0 for a in range(size)]
    for v, row in enumerate(rows):
        if row is None:
            continue
        wx = cur[v]
        if not wx.any():
            continue
        for a in range(size):
            w0 = np.where(masks0[a], wx, 0.0)
            nxt[row[a << 1]] += w0 * scale
            nxt[row[(a << 1) | 1]] += (wx - w0) * scale


def loop_validate_affine(bp, labels):
    """Reference for validate_affine: every vertex builds its own edge
    subspaces."""
    violations, notes = [], []
    if labels[0][0] != AffineSubspace.full(bp.n):
        violations.append(("start", 0, 0))
    for t in range(bp.m + 1):
        for v in range(bp.layer_sizes[t]):
            if labels[t][v].is_empty:
                notes.append(f"vertex ({t},{v}) is labeled Empty")
    for t in range(bp.m):
        for v in range(bp.layer_sizes[t]):
            row = bp.transitions[t][v]
            if row is None:
                continue
            lab = labels[t][v]
            for a in range(1 << bp.n):
                for b in (0, 1):
                    edge_space = intersect_hyperplane(lab, a, b)
                    if not is_subset(edge_space, labels[t + 1][row[(a << 1) | b]]):
                        violations.append(("edge", t, v, a, b))
    return violations, notes


class TestRunPath:
    def test_keyed_leaves_n1(self):
        # one-layer program with 4 leaves keyed by (a, b); for x=1 the
        # sample (1,1) lands on the leaf labeled {1}
        n = 1
        full = AffineSubspace.full(n)
        labels = {}
        for idx in range(4):
            a, b = idx >> 1, idx & 1
            labels[(1, idx)] = intersect_hyperplane(full, a, b) if a else full
        bp = BranchingProgram(n, 1, (1, 4), ((tuple(range(4)),),), labels)
        for x in (0, 1):
            for a in (0, 1):
                b = a & x
                leaf, out = run_path(bp, [(a, b)])
                assert contains(out, x)
        leaf, out = run_path(bp, [(1, 1)])
        assert out.points() == [1]

    def test_chain_ignores_inputs(self):
        bp = chain_program(2, 3, AffineSubspace.full(2))
        rng = np.random.default_rng(0)
        for _ in range(5):
            samples = [(int(rng.integers(0, 4)), int(rng.integers(0, 2))) for _ in range(3)]
            assert run_path(bp, samples)[0] == (3, 0)

    def test_path_incomplete(self):
        bp = chain_program(2, 3, AffineSubspace.full(2))
        with pytest.raises(RuntimeError, match="ran out of samples at layer 1"):
            run_path(bp, [(0, 0)])

    def test_vector_wider_than_n_rejected(self):
        bp = chain_program(2, 1, AffineSubspace.full(2))
        for a in (0b100, -1):
            with pytest.raises(ValueError):
                run_path(bp, [(a, 0)])


class TestReachDistribution:
    def test_layer_zero_uniform(self):
        bp = record_first_sample_program(2, 1)
        assert np.allclose(forward_tables(bp)[0], 0.25)

    def test_route_on_b_n1(self):
        # routes on b only; joint weights enumerated over (x, a)
        n = 1
        bp = BranchingProgram(n, 1, (1, 2), (((0, 1, 0, 1),),),
                              {(1, 0): AffineSubspace.full(n), (1, 1): AffineSubspace.full(n)})
        table = forward_tables(bp)[1]
        assert table[0, 0] == pytest.approx(0.5)
        assert table[0, 1] == pytest.approx(0.25)
        assert table[1, 0] == pytest.approx(0.0)
        assert table[1, 1] == pytest.approx(0.25)

    def test_conservation(self):
        rng = np.random.default_rng(1)
        from paritylab.generators import random_program
        for _ in range(10):
            bp = random_program(3, 3, 5, rng)
            for table in forward_tables(bp):
                assert table.sum() == pytest.approx(1.0)


def _random_programs():
    rng = np.random.default_rng(17)
    return [random_program(n, 3, width, rng) for n in range(1, 8)
            for width in ((1, 6) if n < 6 else (1, 3))]


SCATTER_CASES = {
    "random": _random_programs,
    "greedy": lambda: [greedy_recorder_program(n, m, k)[0]
                       for n, m, k in [(2, 3, 1), (3, 4, 1), (4, 3, 2)]],
    "selective": lambda: [selective_recorder_program(n, m, 1)[0] for n, m in [(2, 4), (3, 3)]],
    "gaussian": lambda: [learner_program_with_labels(gaussian_learner(n), m)[0]
                         for n, m in [(3, 3), (4, 2)]],
    "reduced": lambda: [reduce_to_affine(random_program(4, 3, 6, np.random.default_rng(2)),
                                         2.0).program],
    "zero-weight": lambda: [zero_weight_program(n) for n in (2, 5)],
    "n8": lambda: [sized_program(8, (1, 3, 2), np.random.default_rng(8))],
    # A layer-t weight is a multiple of 2^-n(t+1): float sums are exact,
    # and their order cannot show, until n(t+1) passes 53 bits.
    "deep": lambda: [sized_program(n, (1,) + (width,) * m, np.random.default_rng(n))
                     for n, m, width in [(3, 20, 5), (5, 12, 8)]],
}


class TestForwardScatter:
    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_equals_loop(self, case):
        """Every layer's table is bit-identical to the loop's."""
        for bp in SCATTER_CASES[case]():
            got, want = forward_tables(bp), loop_forward_tables(bp)
            assert len(got) == len(want) == bp.m + 1
            for t, (g, w) in enumerate(zip(got, want)):
                assert np.array_equal(g, w), (case, bp.n, bp.layer_sizes, t)

    @pytest.mark.parametrize("n,width,targets", [(5, 40, 3), (6, 40, 3), (7, 5, 2), (8, 3, 2)])
    def test_rounding_sums_equal_loop(self, n, width, targets):
        """One layer from non-dyadic weights, whose sums round, equals
        the loop's bit for bit: the additions keep the (v, a, x) order
        across chunks (16-vertex chunks at n = 5, 4-vertex chunks at
        n = 6, one whole vertex per chunk at n = 7, four a-blocks per
        vertex at n = 8).  Early leaves and zero-weight rows sit between
        the live ones, and at n = 5 and 6 the last chunk is partial."""
        rng = np.random.default_rng(n)
        size = 1 << n
        cur = rng.integers(1, 10, (width, size)) / 10
        rows = [tuple(int(v) for v in rng.integers(0, targets, 2 * size)) for _ in range(width)]
        for v in range(1, width, 3):
            rows[v] = None  # an early leaf
        cur[3::5] = 0.0  # unreached
        got, want, flipped = (np.zeros((targets, size)) for _ in range(3))
        buffers = _scatter_buffers(n)
        verts = buffers[1].shape[0]
        live = [v for v in range(width) if rows[v] is not None and cur[v].any()]
        assert buffers[1].size < len(live) * 4 ** n  # several chunks
        assert verts == 1 or len(live) % verts  # a partial last chunk
        _scatter_layer(cur, got, rows, *buffers)
        loop_scatter_layer(cur, want, rows, n)
        assert np.array_equal(got, want)
        loop_scatter_layer(cur[::-1], flipped, rows[::-1], n)
        assert not np.array_equal(flipped, want)  # the sums depend on the vertex order

    @pytest.mark.parametrize("n", [2, 5, 7, 8])
    def test_layer_without_live_vertex(self, n):
        """A layer whose vertices are all early leaves or of zero weight
        (vertices 2 and 3 of the zero-weight programs' layer 1) adds
        nothing."""
        bp = zero_weight_program(n)
        tables = forward_tables(bp)
        unreached = tables[1][2:], bp.transitions[1][2:]
        leaves = np.ones((2, 1 << n)), (None, None)
        for cur, rows in (unreached, leaves):
            nxt = np.zeros((bp.layer_sizes[2], 1 << n))
            _scatter_layer(cur, nxt, rows, *_scatter_buffers(n))
            assert not nxt.any()

    def test_buffers_shared_across_calls(self):
        """Repeated and interleaved calls at n = 2..8 share one pair of
        chunk buffers and give the tables of fresh buffers, bit for bit."""
        programs = [sized_program(n, sizes, np.random.default_rng(10 * n + len(sizes)))
                    for n in range(2, 9) for sizes in [(1, 5, 3, 2), (1, 2, 6)]]
        want = []
        for bp in programs:
            tables = [np.zeros((width, 1 << bp.n)) for width in bp.layer_sizes]
            tables[0][0, :] = 2.0 ** (-bp.n)
            edge, index, weight = _scatter_buffers(bp.n)
            fresh = np.empty_like(index), np.empty_like(weight)
            for t in range(bp.m):
                _scatter_layer(tables[t], tables[t + 1], bp.transitions[t], edge, *fresh)
            want.append(tables)
        for order in (range(len(programs)), reversed(range(len(programs))), [0, 13, 0, 6, 7, 6]):
            for i in order:
                got = forward_tables(programs[i])
                assert all(np.array_equal(g, w) for g, w in zip(got, want[i], strict=True)), i
        shared = _chunk_buffers(_SCATTER_CELLS)
        for n in range(2, 9):
            _, index, weight = _scatter_buffers(n)
            assert index.base is shared[0] and weight.base is shared[1]

    def test_cases_cover_what_they_name(self):
        assert all(bp.has_early_leaves() for bp in SCATTER_CASES["greedy"]())
        for bp in SCATTER_CASES["zero-weight"]():
            assert not forward_tables(bp)[1][2:].any()
        assert 4 ** 8 > _SCATTER_CELLS  # one n = 8 vertex spans several chunks
        assert 4 ** 6 < _SCATTER_CELLS  # an n = 6 chunk holds several whole vertices

    def test_scratch_memory_is_chunked(self):
        """n = 8, width 64: 4M cells per layer; n = 12, one vertex: a
        16M-cell layer.  Yet the traced peak beyond the returned tables
        stays under 1 MiB at both."""
        for n, sizes in [(8, (1, 64, 64)), (12, (1, 1))]:
            bp = sized_program(n, sizes, np.random.default_rng(3))
            tracemalloc.start()
            try:
                tables = forward_tables(bp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - sum(table.nbytes for table in tables) <= 1 << 20, n



class TestSweepReuse:
    """forward_tables keeps the last program's sweep: later calls on the
    same object share it, read-only, while the budget is checked on every
    call and the sweep goes when the program does."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The _scatter_layer calls made so far, one per program layer."""
        calls = []

        def counting(*args):
            calls.append(1)
            return _scatter_layer(*args)

        monkeypatch.setattr(bp_module, "_scatter_layer", counting)
        return calls

    @staticmethod
    def program(seed=5):
        return random_program(4, 3, 6, np.random.default_rng(seed))

    def test_readers_share_one_sweep(self, sweeps):
        bp = self.program()
        success_probability(bp)
        output_dimension_distribution(bp)
        assert len(sweeps) == bp.m
        forward_tables(bp)
        assert len(sweeps) == bp.m

    def test_reduction_sweeps_each_program_once(self, sweeps):
        """reduce_to_affine's verification sweeps the source program once
        (success probability) and the reduced one once (accuracy,
        inductive and output-dimension checks)."""
        bp = random_program(3, 3, 4, np.random.default_rng(1))
        red = reduce_to_affine(bp, 3.0)
        assert len(sweeps) == bp.m + red.program.m == 6

    def test_equal_program_gets_its_own_sweep(self, sweeps):
        bp = self.program()
        twin = from_json_dict(to_json_dict(bp))[0]
        assert twin == bp and twin is not bp
        mine, theirs = forward_tables(bp), forward_tables(twin)
        assert len(sweeps) == 2 * bp.m
        assert all(a is not b and np.array_equal(a, b)
                   for a, b in zip(mine, theirs, strict=True))

    def test_tables_are_read_only(self):
        tables = forward_tables(self.program())
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_returned_list_is_the_callers(self, sweeps):
        bp = self.program()
        first = forward_tables(bp)
        want = list(first)
        first[0] = None
        first.append(np.zeros(1))
        again = forward_tables(bp)
        assert len(sweeps) == bp.m
        assert len(again) == bp.m + 1
        assert all(a is b for a, b in zip(again, want, strict=True))

    def test_budget_checked_on_a_kept_sweep(self, monkeypatch):
        bp = self.program()
        forward_tables(bp)
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            forward_tables(bp)
        with pytest.raises(BudgetExceeded):
            success_probability(bp)

    def test_sweep_dropped_with_its_program(self):
        bp = self.program()
        program = weakref.ref(bp)
        tables = [weakref.ref(table) for table in forward_tables(bp)]
        del bp
        gc.collect()
        assert program() is None
        assert all(table() is None for table in tables)


class TestSuccess:
    def test_full_labels(self):
        bp = record_first_sample_program(3, 2)
        full_bp = BranchingProgram(
            bp.n, bp.m, bp.layer_sizes, bp.transitions,
            {k: AffineSubspace.full(3) for k in bp.leaf_labels})
        assert success_probability(full_bp) == 1.0

    def test_fixed_point_labels(self):
        n = 2
        bp = chain_program(n, 2, AffineSubspace.point(n, 0))
        assert success_probability(bp) == pytest.approx(2.0 ** (-n))

    def test_record_one_equation(self):
        bp = record_first_sample_program(2, 2)
        assert success_probability(bp) == 1.0
        dims = output_dimension_distribution(bp)
        assert dims == {1: pytest.approx(0.75), 2: pytest.approx(0.25)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_leaf_oracle(self, n):
        """One gather per layer against the per-leaf loop, compared with
        ==: random programs whose leaves share labels (as one object and
        as equal copies) or are Empty, and recorder programs with early
        leaves."""
        for bp in per_leaf_programs(n):
            assert success_probability(bp) == per_leaf_success_probability(bp)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_output_dimensions_per_leaf_oracle(self, n):
        """Each layer's row sums, read per leaf, against each leaf's own
        row sum, added in the same order, compared with ==."""
        for bp in per_leaf_programs(n):
            want = per_leaf_output_dimensions(bp, forward_tables(bp))
            assert output_dimension_distribution(bp) == want


class TestLeafGather:
    """success_probability sums each layer's leaf cells in one gather.
    Layer t of the sweep holds integer multiples of 2^-(t+1)n, at most 1
    in all, so while (m+1)·n <= 53 every partial sum is exact and the
    gather equals the per-leaf loop under ==."""

    @pytest.fixture(scope="class")
    def bench_programs(self):
        """The bench's DP shapes (random_program(n, 3, width), n = 5, 6,
        width 16–64) and its validate programs (Gaussian and greedy
        recorders, n = 3, 4, m = 2, 3)."""
        rng = np.random.default_rng(45)
        programs = [random_program(n, 3, width, rng) for n in (5, 6) for width in (16, 40, 64)]
        programs += [learner_program_with_labels(gaussian_learner(n), m)[0]
                     for n in (3, 4) for m in (2, 3)]
        programs += [greedy_recorder_program(n, m, k)[0]
                     for n in (3, 4) for m in (2, 3) for k in range(n)]
        return programs

    def test_layers_on_the_dyadic_grid(self, bench_programs):
        """Every entry of layer t times 2^(t+1)n is an integer, for
        per_leaf_programs at n = 1…6 and the bench's programs."""
        programs = [bp for n in range(1, 7) for bp in per_leaf_programs(n)]
        for bp in programs + bench_programs:
            assert (bp.m + 1) * bp.n <= 53
            for t, table in enumerate(forward_tables(bp)):
                scaled = table * 2.0 ** ((t + 1) * bp.n)  # a power of two: exact
                assert np.array_equal(scaled, np.trunc(scaled)), (bp.n, bp.m, t)

    def test_bench_programs_per_leaf_oracle(self, bench_programs):
        """Compared with ==, as TestSuccess::test_per_leaf_oracle does for
        per_leaf_programs."""
        for bp in bench_programs:
            assert success_probability(bp) == per_leaf_success_probability(bp)

    def test_past_the_grid(self):
        """Past (m+1)·n = 53 the last layers' multiples of 2^-(t+1)n can
        need more than float64's 53 bits, so the sweep's cells and the
        sums round, and the per-layer gather and the per-leaf loop add in
        different orders: only there may they differ, within 1e-12."""
        rng = np.random.default_rng(53)
        for n, m in ((6, 9), (5, 11)):
            for width in (2, 3, 4):
                bp = random_program(n, m, width, rng)
                assert (m + 1) * n > 53
                got, want = success_probability(bp), per_leaf_success_probability(bp)
                assert abs(got - want) <= 1e-12, (n, m, width)


def per_leaf_programs(n):
    """Random programs with shared, copied and Empty leaf labels, and
    recorder programs with early leaves."""
    rng = np.random.default_rng(60 + n)
    pool = [random_subspace(n, rng) for _ in range(3)] + [AffineSubspace.empty(n)]
    pool += [parse_subspace(w.to_text(), n) for w in pool]
    programs = [greedy_recorder_program(n, 3, k)[0] for k in (0, 1)]
    for _ in range(3):
        bp = random_program(n, 2, 8, rng)
        leaves = {k: pool[int(rng.integers(len(pool)))] for k in bp.leaf_labels}
        programs += [bp, replace(bp, leaf_labels=leaves)]
    return programs


class TestValidateAffine:
    def test_all_full_ok(self):
        bp = record_first_sample_program(2, 1)
        full = AffineSubspace.full(2)
        labels = ((full,), (full,) * 8)
        report = validate_affine(bp, labels)
        assert report.ok and not report.violations

    def test_violation_listed(self):
        n = 2
        bp = record_first_sample_program(n, 1)
        layer1 = [bp.leaf_labels[(1, i)] for i in range(8)]
        layer1[2] = AffineSubspace.point(n, 3)  # breaks inclusion for edge (a=1,b=0)
        labels = ((AffineSubspace.full(n),), tuple(layer1))
        report = validate_affine(bp, labels)
        assert not report.ok
        assert any(v[0] == "edge" and v[3] == 1 and v[4] == 0 for v in report.violations)

    def test_empty_label_permitted_and_flagged(self):
        n = 2
        bp = chain_program(n, 1, AffineSubspace.empty(n))
        # the program itself is legal and contributes zero success
        assert success_probability(bp) == 0.0
        labels = ((AffineSubspace.full(n),), (AffineSubspace.empty(n),))
        report = validate_affine(bp, labels)
        assert any("Empty" in note for note in report.notes)
        # an Empty label on a consistently-reachable vertex does break
        # the per-edge inclusion, and the report says where
        assert not report.ok and report.violations


def _misshapen_labels(labels):
    """The Gaussian n = 2, m = 2 labels with the last layer doubled, an
    extra layer appended and layer 1 cut short, with the layer each one
    breaks first and its entry count there."""
    last, one = len(labels[2]), len(labels[1])
    return [(labels[:2] + (labels[2] * 2,), 2, 2 * last),
            (labels + (labels[2],), 3, last),
            (labels[:1] + (labels[1][:-1],) + labels[2:], 1, one - 1)]


class TestLabelShape:
    """Labels not of the program's shape raise ValueError naming the
    first layer that differs, wherever they are read or written."""

    @pytest.mark.parametrize("check", [validate_affine,
                                       lambda bp, labels: trim_to_min_dimension(bp, labels, 0),
                                       to_json_dict])
    def test_misshapen_labels_rejected(self, check):
        bp, labels = learner_program_with_labels(gaussian_learner(2), 2)
        assert validate_affine(bp, labels).ok
        for bad, t, got in _misshapen_labels(labels):
            want = bp.layer_sizes[t] if t <= bp.m else 0
            with pytest.raises(ValueError, match=fr"^labels layer {t} has {got} entries, "
                                                 fr"not the program's {want}$"):
                check(bp, bad)

    def test_short_gamma_layer_not_written(self):
        """to_json_dict writes gamma only of the program's shape, so every
        document it writes reads back."""
        bp, labels = learner_program_with_labels(gaussian_learner(2), 2)
        gamma = tuple((0,) * size for size in bp.layer_sizes)
        assert from_json_dict(to_json_dict(bp, labels, gamma))[1:] == (labels, gamma)
        short = gamma[:1] + (gamma[1][:-1],) + gamma[2:]
        with pytest.raises(ValueError, match=fr"^gamma layer 1 has {len(short[1])} entries, "
                                             fr"not the program's {len(gamma[1])}$"):
            to_json_dict(bp, labels, short)

    @pytest.mark.parametrize("field", ["labels", "gamma"])
    def test_json_fields_of_another_shape_rejected(self, field):
        """Three layers of sizes 1, 3, 1 for a program of sizes 1, 1."""
        doc = {"n": 0, "m": 1, "layer_sizes": [1, 1], "transitions": [[[0, 0]]],
               "leaf_labels": {"1,0": "|"}}
        entry = "|" if field == "labels" else 0
        from_json_dict(dict(doc, **{field: [[entry], [entry]]}))
        with pytest.raises(ValueError, match=fr"^{field} layer 1 has 3 entries, "
                                             r"not the program's 1$"):
            from_json_dict(dict(doc, **{field: [[entry], [entry] * 3, [entry]]}))


def _random_labelings():
    """Random programs with a random label, Empty one time in eight, on
    every vertex: a fifth of the edges or more violate."""
    rng = np.random.default_rng(23)
    out = []
    for n in range(1, 6):
        bp = random_program(n, 3, 6, rng)
        labels = tuple(
            tuple(AffineSubspace.empty(n) if rng.integers(8) == 0 else random_subspace(n, rng)
                  for _ in range(size))
            for size in bp.layer_sizes)
        out.append((bp, labels))
    return out


def _reduced_labelings():
    return [(red.program, red.labels) for red in (
        reduce_to_affine(random_program(n, 3, 5, np.random.default_rng(n)), r)
        for n, r in [(3, 2.0), (4, 3.0)])]


def _shared_labelings():
    """Most vertices of a layer share one label but have their own rows,
    into next-layer labels of every dimension."""
    rng = np.random.default_rng(29)
    out = []
    for n in (2, 3, 4):
        bp = sized_program(n, (1, 12, 12, 12), rng)
        shared = [AffineSubspace.full(n)] + [random_subspace(n, rng) for _ in range(3)]
        labels = tuple(
            tuple(shared[t] if v % 4 else random_subspace(n, rng) for v in range(size))
            for t, size in enumerate(bp.layer_sizes))
        out.append((bp, labels))
    return out


def _recorder_labelings():
    """Greedy recorders (early leaves: rows of None) and selective
    recorders, each with its own labels and with some made Empty."""
    programs = ([greedy_recorder_program(n, m, k) for n, m, k in [(2, 3, 1), (3, 4, 1), (4, 3, 2)]]
                + [selective_recorder_program(n, m, 1) for n, m in [(2, 4), (3, 3)]])
    return programs + [with_empty_labels(bp, labels) for bp, labels in programs]


def _bench_labelings():
    """The programs of the benchmark's validation jobs (Gaussian learners
    and greedy recorders, n = 3, 4, m = 2, 3), then each Gaussian one
    with every third label replaced by a random subspace."""
    rng = np.random.default_rng(31)
    gaussian = [learner_program_with_labels(gaussian_learner(n), m) for n in (3, 4) for m in (2, 3)]
    greedy = [greedy_recorder_program(n, m, k) for n in (3, 4) for m in (2, 3) for k in range(n)]
    scrambled = [(bp, tuple(
        tuple(random_subspace(bp.n, rng) if (t + v) % 3 == 2 else w for v, w in enumerate(layer))
        for t, layer in enumerate(labels))) for bp, labels in gaussian]
    return gaussian + greedy + scrambled


def _n1_labelings():
    rng = np.random.default_rng(37)
    bp = random_program(1, 4, 3, rng)
    labels = tuple(
        tuple(AffineSubspace.empty(1) if rng.integers(4) == 0 else random_subspace(1, rng)
              for _ in range(size))
        for size in bp.layer_sizes)
    return [greedy_recorder_program(1, 3, 0), selective_recorder_program(1, 3, 1), (bp, labels)]


def _empty_next_labelings():
    """Layer 2's labels are all Empty, so an edge out of layer 1
    violates exactly when its edge set is not empty."""
    rng = np.random.default_rng(41)
    out = []
    for n in (2, 3, 4):
        bp = sized_program(n, (1, 6, 3, 4), rng)
        labels = tuple(
            tuple(AffineSubspace.empty(n) if t == 2 else random_subspace(n, rng)
                  for _ in range(size))
            for t, size in enumerate(bp.layer_sizes))
        out.append((bp, labels))
    return out


VALIDATE_CASES = {"random": _random_labelings, "reduced": _reduced_labelings,
                  "shared": _shared_labelings, "recorders": _recorder_labelings,
                  "bench": _bench_labelings, "n1": _n1_labelings,
                  "empty-next": _empty_next_labelings}


class TestValidateOracle:
    @pytest.mark.parametrize("case", VALIDATE_CASES)
    def test_equals_loop(self, case):
        """Same violations in the same order, and the same notes."""
        for bp, labels in VALIDATE_CASES[case]():
            got = validate_affine(bp, labels)
            violations, notes = loop_validate_affine(bp, labels)
            assert got.violations == violations and got.notes == notes
            assert got.ok == (not violations)

    def test_cases_cover_what_they_name(self):
        for bp, labels in VALIDATE_CASES["random"]():
            violations, notes = loop_validate_affine(bp, labels)
            edges = sum(bp.layer_sizes[:-1]) << (bp.n + 1)
            assert 5 * len(violations) >= edges and notes
        assert all(not loop_validate_affine(*case)[0] for case in VALIDATE_CASES["reduced"]())
        for bp, labels in VALIDATE_CASES["shared"]():
            for t in range(1, bp.m):
                sharing = [v for v in range(bp.layer_sizes[t]) if v % 4]
                assert len({labels[t][v] for v in sharing}) == 1
                assert len({bp.transitions[t][v] for v in sharing}) == len(sharing)
            violations = loop_validate_affine(bp, labels)[0]
            assert 0 < len(violations) < sum(bp.layer_sizes[:-1]) << (bp.n + 1)
        recorders = VALIDATE_CASES["recorders"]()
        assert any(bp.has_early_leaves() and loop_validate_affine(bp, labels)[0]
                   for bp, labels in recorders)
        bench = VALIDATE_CASES["bench"]()
        assert {(bp.n, bp.m) for bp, _ in bench} == {(3, 2), (3, 3), (4, 2), (4, 3)}
        assert all(not loop_validate_affine(*case)[0] for case in bench[:-4])
        assert all(loop_validate_affine(*case)[0] for case in bench[-4:])
        assert all(bp.n == 1 for bp, _ in VALIDATE_CASES["n1"]())
        for bp, labels in VALIDATE_CASES["empty-next"]():
            assert all(w.is_empty for w in labels[2])
            from_layer1 = [v for v in loop_validate_affine(bp, labels)[0] if v[1] == 1]
            assert 0 < len(from_layer1) < bp.layer_sizes[1] << (bp.n + 1)


class TestRecorderOracle:
    """The recorders, unrolled Gaussian learners, against the reference
    recorders stepped on AffineSubspace states: equal programs and labels,
    vertices in the same first-seen order.  Greedy covers every k at
    n <= 4, m <= 4; at n = 5 the m = 3, 4 cases with k <= 2 are left out
    (0.6-2.1 s each on a 2-vCPU machine, against 1.5 s for the rest)."""

    def test_greedy(self):
        for n in range(1, 6):
            for m in range(5):
                for k in range(n + 1):
                    if n == 5 and m >= 3 and k <= 2:
                        continue
                    assert (to_json_dict(*greedy_recorder_program(n, m, k))
                            == to_json_dict(*object_greedy_recorder(n, m, k))), (n, m, k)

    def test_selective(self):
        cases = [(n, m, trigger) for n in range(1, 5) for m in range(5)
                 for trigger in range(1 << n)]
        cases += [(5, m, trigger) for m in (2, 4) for trigger in (0, 1, 22, 31)]
        for n, m, trigger in cases:
            assert (to_json_dict(*selective_recorder_program(n, m, trigger))
                    == to_json_dict(*object_selective_recorder(n, m, trigger))), (n, m, trigger)


def reachable_states(learner, rng, count):
    """States reached from the start by walks of 0..n+1 random samples
    (a, b), b tied to no key, as an unrolled layer's edges are."""
    n = learner.n
    states = []
    for _ in range(count):
        state = learner.initial_state
        for _ in range(int(rng.integers(0, n + 2))):
            state = learner.step(state, int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)))
        states.append(state)
    return states


def assert_successors_match_step(learner, states):
    nxt = learner.successors(np.array(states, dtype=np.int64))
    assert nxt.shape == (len(states), 2 << learner.n)
    for i, state in enumerate(states):
        assert [learner.step(state, k >> 1, k & 1) for k in range(2 << learner.n)] \
            == nxt[i].tolist(), state


def unroll_machines(n):
    """A machine of every kind that bp.unroll steps, as (start, step,
    successors, rank): the Gaussian learner, the only one with
    successors, the other learners, the window attacker, the selective
    recorder's learner and the reference recorder on AffineSubspace
    states.  rank(state) is the rank of the system whose solutions are
    the state's output: n minus their dimension, n + 1 when there are
    none."""
    def rank(w):
        return n + 1 if w.is_empty else n - w.dim

    learners = [gaussian_learner(n), prefix_pivot_learner(n), exhaustive_learner(n),
                window_attacker(n, 2 * n + 2), _selective_learner(n, 1)]
    machines = [(learner.initial_state, learner.step, learner.successors,
                 lambda state, f=learner.output: rank(f(state))) for learner in learners]
    return machines + [(AffineSubspace.full(n), _recorder_step, None, rank)]


class TestArrayUnroll:
    """bp.unroll through a learner's successors, the array form of its
    scalar step, which stays the definition."""

    @pytest.mark.parametrize("n", range(8))
    def test_gaussian_successors_match_step(self, n):
        """On every state of the unrolled layers (m = 3, m = 2 from n = 6)
        and on 40 random walks, a chunk of unroll's size at a time."""
        learner = gaussian_learner(n)
        layers, _ = learner_state_layers(learner, 3 if n <= 5 else 2)
        states = sorted({state for layer in layers for state in layer})
        states += reachable_states(learner, np.random.default_rng(n), 40)
        per = max(1, bp_module._UNROLL_CELLS >> (n + 1))
        for i in range(0, len(states), per):
            assert_successors_match_step(learner, states[i:i + per])

    def test_no_successors_past_int64(self):
        """The Gaussian state takes n(n+1) bits: 56 at n = 7, 72 at n = 8.
        The selective recorder steps its scalar map at every n."""
        assert gaussian_learner(7).successors is not None
        assert gaussian_learner(8).successors is None
        assert all(_selective_learner(n, 1).successors is None for n in range(1, 9))

    @pytest.mark.parametrize("cells", [1, 64, bp_module._UNROLL_CELLS])
    def test_equals_scalar_unroll(self, monkeypatch, cells):
        """Layers and rows equal the reference scalar loop's on every kind
        of machine, without stops and stopped at each rank, with chunks of
        one state, of two states at n = 4, and of the default size."""
        monkeypatch.setattr(bp_module, "_UNROLL_CELLS", cells)
        for n, m in [(1, 4), (2, 4), (3, 3), (4, 3), (5, 2)]:
            for start, step, successors, rank in unroll_machines(n):
                stops = [None] + [lambda state, k=k: rank(state) >= k for k in range(n + 1)]
                for stop in stops:
                    assert (bp_module.unroll(n, m, start, step, stop, successors)
                            == scalar_unroll(n, m, start, step, stop)), (n, m, start, stop)

    def test_plain_int_contract(self):
        """Every unrolled state and target is a Python int, never a numpy
        integer: the bench digests repr(program.transitions) and the JSON
        goldens need plain ints."""
        programs = [greedy_recorder_program(4, 3, 1), selective_recorder_program(4, 3, 5),
                    learner_program_with_labels(gaussian_learner(4), 3)]
        for bp, _ in programs:
            for layer in bp.transitions:
                for row in layer:
                    assert row is None or all(type(tgt) is int for tgt in row)
        for learner in (gaussian_learner(4), _selective_learner(4, 5)):
            layers, transitions = learner_state_layers(learner, 3)
            assert all(type(state) is int for layer in layers for state in layer)
            assert all(type(tgt) is int for layer in transitions for row in layer for tgt in row)


class TestLabelledPrograms:
    """learner_program_with_labels computes each distinct state's output
    once; the program and labels equal the per-vertex builder's."""

    @pytest.mark.parametrize("make", [gaussian_learner, prefix_pivot_learner,
                                      exhaustive_learner, lambda n: window_attacker(n, 2 * n + 2)])
    def test_matches_per_vertex_builder(self, make):
        for n in (2, 3, 4):
            for m in range(4):
                learner = make(n)
                calls = []
                counted = replace(learner, output=lambda s, f=learner.output: calls.append(s) or f(s))
                built = learner_program_with_labels(counted, m)
                assert to_json_dict(*built) == to_json_dict(*per_vertex_program_with_labels(learner, m))
                layers, _ = learner_state_layers(learner, m)
                assert sorted(calls) == sorted({s for layer in layers for s in layer})

    def test_shared_states_on_validation_shapes(self):
        """The Gaussian shapes of the benchmark's validation slots unroll to
        866 vertices over 556 distinct states."""
        vertices = states = 0
        for n in (3, 4):
            for m in (2, 3):
                layers, _ = learner_state_layers(gaussian_learner(n), m)
                vertices += sum(len(layer) for layer in layers)
                states += len({s for layer in layers for s in layer})
        assert (vertices, states) == (866, 556)


def label_rows(labels):
    """The uniform_rows of each layer's labels, layer_accuracy's rows."""
    return [uniform_rows(layer) for layer in labels]


class TestLayerAccuracy:
    def test_start_layer(self):
        bp = record_first_sample_program(2, 1)
        labels = ((AffineSubspace.full(2),),
                  tuple(bp.leaf_labels[(1, i)] for i in range(8)))
        assert layer_accuracy(bp, label_rows(labels), forward_tables(bp))[0] == 0.0

    def test_matching_labels_zero(self):
        bp = record_first_sample_program(2, 1)
        labels = ((AffineSubspace.full(2),),
                  tuple(bp.leaf_labels[(1, i)] for i in range(8)))
        accuracy = layer_accuracy(bp, label_rows(labels), forward_tables(bp))
        assert accuracy[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_labels_after_one_equation(self):
        """Enumeration oracle at n=2: conditioned on a layer-1 vertex
        (a, b) with a != 0, x is uniform on a 2-point hyperplane, at l1
        distance 1 from uniform over the full label; the a = 0 vertex is
        exactly uniform.  Expectation = Pr[a != 0] * 1 = 3/4."""
        n = 2
        bp = record_first_sample_program(n, 1)
        full = AffineSubspace.full(n)
        labels = ((full,), (full,) * 8)
        got = layer_accuracy(bp, label_rows(labels), forward_tables(bp))[1]

        counts = {}
        for x in range(4):
            for a in range(4):
                b = parity(a & x)
                counts.setdefault((a, b), []).append(x)
        expected = 0.0
        for (a, b), xs in counts.items():
            pv = len(xs) / 16
            cond = np.zeros(4)
            for x in xs:
                cond[x] += 1 / len(xs)
            expected += pv * np.abs(cond - 0.25).sum()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.75)

    def test_early_leaves_rejected(self):
        n = 2
        deg = 1 << (n + 1)
        bp = BranchingProgram(n, 2, (1, 1, 1),
                              ((None,), ((0,) * deg,)),
                              {(0, 0): AffineSubspace.full(n), (2, 0): AffineSubspace.full(n)})
        labels = ((AffineSubspace.full(n),),) * 3
        with pytest.raises(ValueError):
            layer_accuracy(bp, label_rows(labels), forward_tables(bp))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_per_vertex_oracle(self, n):
        """The array form against the per-vertex loop, floats compared
        with ==, on the program's own sweep and on random tables of its
        shapes whose sums round in the last place.  Rows of 4 to 256
        cells reach numpy's 8-wide unrolled and 128-cell pairwise sums;
        about a fifth of the rows are zero, and the labels repeat (as
        one object and as equal copies) or are Empty."""
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            bp = random_program(n, 2, 16, rng)
            pool = [random_subspace(n, rng) for _ in range(4)] + [AffineSubspace.empty(n)]
            pool += [parse_subspace(w.to_text(), n) for w in pool]
            labels = tuple(tuple(pool[i] for i in rng.integers(0, len(pool), size))
                           for size in bp.layer_sizes)
            swept = forward_tables(bp)
            noisy = [rng.random(table.shape) * (rng.random((len(table), 1)) < 0.8)
                     for table in swept]
            for tables in (swept, noisy):
                for table in tables:
                    assert (table.sum(axis=1) == [row.sum() for row in table]).all()
                assert (layer_accuracy(bp, label_rows(labels), tables)
                        == per_vertex_layer_accuracy(bp, labels, tables))


class TestSoundnessInvariant:
    @pytest.mark.parametrize("maker,k", [(greedy_recorder_program, 1),
                                         (greedy_recorder_program, 0)])
    def test_pathwise_containment_exhaustive(self, maker, k):
        n, m = 2, 2
        bp, labels = maker(n, m, k)
        assert validate_affine(bp, labels).ok
        for x in range(1 << n):
            for a_seq in itertools.product(range(1 << n), repeat=m):
                t, v = 0, 0
                assert contains(labels[t][v], x)
                for a in a_seq:
                    if bp.is_leaf(t, v):
                        break
                    v = bp.transitions[t][v][(a << 1) | parity(a & x)]
                    t += 1
                    assert contains(labels[t][v], x)

    def test_affine_success_is_one(self):
        for n, m in ((2, 2), (3, 2)):
            bp, labels = selective_recorder_program(n, m, 1)
            assert validate_affine(bp, labels).ok
            assert success_probability(bp) == 1.0


def assert_json_round_trip(bp, labels, gamma):
    doc = json.loads(json.dumps(to_json_dict(bp, labels, gamma)))
    assert from_json_dict(doc) == (bp, labels, gamma)


def with_empty_labels(bp, labels):
    """bp and labels with the vertex labels at (t + v) % 3 == 1, (1, 0)
    and leaf labels included, replaced by Empty."""
    empty = AffineSubspace.empty(bp.n)
    layers = tuple(tuple(empty if (t + v) % 3 == 1 else w for v, w in enumerate(layer))
                   for t, layer in enumerate(labels))
    leaf_labels = {(t, v): layers[t][v] for t, v in bp.leaf_labels}
    return replace(bp, leaf_labels=leaf_labels), layers


class TestSerialization:
    def test_round_trip(self):
        """Random programs, bare and with random labels (some Empty) and
        a random gamma."""
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            bp = random_program(n, int(rng.integers(1, 4)), 5, rng)
            assert_json_round_trip(bp, None, None)
            labels = tuple(tuple(random_subspace(n, rng) for _ in range(size))
                           for size in bp.layer_sizes)
            gamma = tuple(tuple(int(g) for g in rng.integers(0, 9, size))
                          for size in bp.layer_sizes)
            assert_json_round_trip(*with_empty_labels(bp, labels), gamma)

    def test_with_labels_and_gamma(self):
        """Recorder programs with early leaves, with their own labels and
        with some made Empty."""
        for n, m, k in [(2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 4, 2), (4, 3, 2)]:
            bp, labels = greedy_recorder_program(n, m, k)
            assert bp.has_early_leaves() == (m > n - k)
            gamma = tuple(tuple(range(sz)) for sz in bp.layer_sizes)
            assert_json_round_trip(bp, labels, gamma)
            assert_json_round_trip(*with_empty_labels(bp, labels), None)


class TestGuards:
    def test_budget(self, monkeypatch):
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", "10")
        bp = record_first_sample_program(2, 1)
        with pytest.raises(BudgetExceeded):
            forward_tables(bp)

    def test_validate_budget(self, monkeypatch):
        """The validator's 4^n-bit hyperplane table is under the DP budget."""
        bp, labels = greedy_recorder_program(2, 2, 0)
        assert validate_affine(bp, labels).ok
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            validate_affine(bp, labels)

    @pytest.mark.parametrize("other", [1, 3])
    @pytest.mark.parametrize("vertex", [(0, 0), (1, 2), (2, 0)])
    def test_validate_label_dimension(self, other, vertex):
        """A label of another n raises, narrower or wider, as a source,
        a target or a last-layer leaf."""
        bp, labels = greedy_recorder_program(2, 2, 0)
        layers = [list(layer) for layer in labels]
        layers[vertex[0]][vertex[1]] = AffineSubspace.full(other)
        with pytest.raises(DimensionMismatch):
            validate_affine(bp, tuple(map(tuple, layers)))

    @pytest.mark.parametrize("make", [lambda: greedy_recorder_program(2, 2, 0),
                                      lambda: selective_recorder_program(2, 2, 1)])
    def test_state_budget_guards_recorders(self, monkeypatch, make):
        """The budget trips at layer 0, and with layer 0 inside it first at
        layer 1 (7 greedy vertices, 3 selective)."""
        width = make()[0].layer_sizes[1]
        for budget, over in (("4", "1 vertices x 8 edges in layer 0"),
                             ("8", f"{width} vertices x 8 edges in layer 1")):
            monkeypatch.setenv("PARITYLAB_STATE_BUDGET", budget)
            with pytest.raises(BudgetExceeded, match=f"^{over} exceeds the state budget; "
                               "set PARITYLAB_STATE_BUDGET to override$"):
                make()

    def test_state_budget_checked_before_stepping(self, monkeypatch):
        """No successors call is made for a layer over budget."""
        learner = gaussian_learner(2)
        calls = []
        counted = replace(learner, successors=lambda states: calls.append(len(states))
                          or learner.successors(states))
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", "8")
        with pytest.raises(BudgetExceeded, match="^7 vertices x 8 edges in layer 1 "):
            learner_state_layers(counted, 2)
        assert calls == [1]

    def test_state_budget_checked_before_scalar_stepping(self, monkeypatch):
        """Without successors, the layer-0 state's 8 step calls are the
        only ones made."""
        learner = prefix_pivot_learner(2)
        assert learner.successors is None
        calls = []
        counted = replace(learner, step=lambda *args: calls.append(args) or learner.step(*args))
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", "8")
        with pytest.raises(BudgetExceeded, match="^5 vertices x 8 edges in layer 1 exceeds the "
                           "state budget; set PARITYLAB_STATE_BUDGET to override$"):
            learner_state_layers(counted, 2)
        assert calls == [(learner.initial_state, a, b) for a in range(4) for b in (0, 1)]

    def test_structural_validation(self):
        full = AffineSubspace.full(1)
        with pytest.raises(ValueError):
            BranchingProgram(1, 1, (2, 1), ((None, None),), {})
        with pytest.raises(ValueError):
            BranchingProgram(1, 1, (1, 1), (((0, 0, 0),),), {(1, 0): full})
        with pytest.raises(ValueError):
            BranchingProgram(1, 1, (1, 1), (((0, 0, 0, 9),),), {(1, 0): full})
        with pytest.raises(ValueError):
            BranchingProgram(1, 1, (1, 1), (((0,) * 4,),), {})  # missing leaf label
        # a negative or too-large target at a later vertex names that
        # vertex, the first offender even when a later layer offends too
        layer0, fine = ((0, 1, 0, 1),), (0, 0, 1, 1)
        for bad in (-1, 2):
            for edge in (0, 3):
                row = [1, 0, 0, 1]
                row[edge] = bad
                for late in ((0,) * 4, (0, 0, bad, 0)):
                    with pytest.raises(ValueError,
                                       match=r"^vertex \(1,1\) has an out-of-range target$"):
                        BranchingProgram(1, 3, (1, 2, 2, 1),
                                         (layer0, (fine, tuple(row)), ((0,) * 4, late)),
                                         {(3, 0): full})

    @pytest.mark.parametrize("m,key", [(1, (0, 5)), (1, (2, 0)), (1, (1, 3)), (1, (-1, 0)),
                                       (0, (-1, 0)), (0, (0, 1)), (0, (1, 0))])
    def test_label_at_missing_vertex(self, m, key):
        """A label keyed past a layer's width, past the last layer or
        before layer 0 names its key, before is_leaf indexes (or, with a
        negative layer, wraps round) the transitions."""
        full = AffineSubspace.full(1)
        transitions = (((0,) * 4,),) * m
        with pytest.raises(ValueError, match=fr"^output label at \({key[0]},{key[1]}\), "
                           "a vertex the program lacks$"):
            BranchingProgram(1, m, (1,) * (m + 1), transitions, {(m, 0): full, key: full})
