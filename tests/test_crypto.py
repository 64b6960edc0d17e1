import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stepping_run_attack

from paritylab import crypto

from paritylab.crypto import (
    MAGIC,
    VERSION,
    FormatError,
    SecretKey,
    decode_stream,
    decrypt_bit,
    encode_stream,
    encrypt_bit,
    expected_point_recovery,
    keygen,
    rank_distribution,
    run_attack,
    window_attacker,
)
from paritylab.bp import forward_tables, validate_affine
from paritylab.generators import learner_program_with_labels
from paritylab.gf2 import AffineSubspace, BitVector, VectorSubspace, parity
from paritylab.learners import (
    Learner,
    _decode_rows,
    exhaustive_learner,
    gaussian_learner,
    rank_success_probability,
)

bv = BitVector.from_string


class TestKeygen:
    def test_reproducible(self):
        k1 = keygen(10, np.random.default_rng(7))
        k2 = keygen(10, np.random.default_rng(7))
        assert k1 == k2

    def test_coordinate_frequencies(self):
        rng = np.random.default_rng(0)
        n, count = 4, 100_000
        sums = np.zeros(n)
        for _ in range(count):
            x = keygen(n, rng).x.bits
            for i in range(n):
                sums[i] += (x >> i) & 1
        assert np.all(np.abs(sums / count - 0.5) < 0.01)

    def test_n1(self):
        assert keygen(1, np.random.default_rng(1)).x.bits in (0, 1)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            SecretKey(0, BitVector(0, 0))


class TestBitCipher:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        key = keygen(5, rng)
        for m in (0, 1):
            for _ in range(20):
                assert decrypt_bit(key, encrypt_bit(key, m, rng)) == m

    def test_zero_vector_degenerate_pad(self):
        key = SecretKey(3, bv("101"))
        assert decrypt_bit(key, bv("0001")) == 1

    def test_unit_key(self):
        key = SecretKey(3, bv("100"))
        rng = np.random.default_rng(3)
        f = encrypt_bit(key, 1, rng)
        assert f.n == 4 and f.bits >> 3 == 1 ^ (f.bits & 1)

    def test_dimension_mismatch(self):
        key = SecretKey(3, bv("101"))
        with pytest.raises(ValueError):
            decrypt_bit(key, BitVector(5, 0))
        with pytest.raises(ValueError):
            decrypt_bit(key, BitVector(3, 0))

    def test_pad_bit_uniform_exhaustive(self):
        # for every nonzero key and fixed plaintext bit, the cipher bit is
        # 0 for exactly half of the sample vectors
        for n in (2, 3, 4):
            for x in range(1, 1 << n):
                for m in (0, 1):
                    zeros = sum((m ^ parity(a & x)) == 0 for a in range(1 << n))
                    assert zeros == (1 << n) // 2


class TestWireFormat:
    def test_exact_frame_layout(self):
        raw = bv("1011001").to_bytes()  # pad 101100, cipher bit 1
        assert raw == bytes([0b10110010])
        assert BitVector.from_bytes(raw, 7) == bv("1011001")

    def test_frame_spans_bytes(self):
        f = bv("1100000011")  # n=9 -> 2 frame bytes
        raw = f.to_bytes()
        assert raw == bytes([0b11000000, 0b11000000])
        assert BitVector.from_bytes(raw, 10) == f

    def test_header_and_lengths(self):
        key = SecretKey(6, bv("010101"))
        rng = np.random.default_rng(4)
        blob = encode_stream(key, b"", rng)
        assert blob == b"BSC1" + bytes([1]) + (6).to_bytes(2, "big") + (0).to_bytes(8, "big")
        blob1 = encode_stream(key, b"\xff", rng)
        assert len(blob1) == 15 + 8 * 1  # one frame byte each for n=6

    def test_round_trip_random_payloads(self):
        rng = np.random.default_rng(5)
        key = keygen(9, rng)
        for _ in range(50):
            size = int(rng.integers(0, 200))
            payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            blob = encode_stream(key, payload, rng)
            assert decode_stream(key, blob) == payload

    def test_fixed_seed_byte_identical(self):
        key = SecretKey(8, bv("10110101"))
        payload = bytes(np.random.default_rng(6).integers(0, 256, 4096, dtype=np.uint8))
        blob1 = encode_stream(key, payload, np.random.default_rng(77))
        blob2 = encode_stream(key, payload, np.random.default_rng(77))
        assert blob1 == blob2
        assert decode_stream(key, blob1) == payload

    def test_large_n_stream_mode(self):
        rng = np.random.default_rng(7)
        key = keygen(40, rng)
        blob = encode_stream(key, b"stream mode", rng)
        assert decode_stream(key, blob) == b"stream mode"

    def test_format_errors_with_offsets(self):
        key = SecretKey(6, bv("010101"))
        blob = encode_stream(key, b"ab", np.random.default_rng(8))
        with pytest.raises(FormatError) as err:
            decode_stream(key, b"XXXX" + blob[4:])
        assert err.value.offset == 0
        with pytest.raises(FormatError) as err:
            decode_stream(key, blob[:4] + bytes([9]) + blob[5:])
        assert err.value.offset == 4
        with pytest.raises(FormatError):
            decode_stream(key, blob[:-3])
        with pytest.raises(FormatError):
            decode_stream(key, blob + b"\x00")
        other = SecretKey(7, bv("0101010"))
        with pytest.raises(FormatError) as err:
            decode_stream(other, blob)
        assert err.value.offset == 5


def framewise_encode(key, plaintext, rng):
    """encode_stream's reference: one encrypt_bit and frame per bit."""
    header = MAGIC + bytes([VERSION]) + key.n.to_bytes(2, "big") + (
        8 * len(plaintext)).to_bytes(8, "big")
    bits = [(byte >> i) & 1 for byte in plaintext for i in range(7, -1, -1)]
    return header + b"".join(encrypt_bit(key, b, rng).to_bytes() for b in bits)


def framewise_decode(key, blob):
    frame_len = (key.n + 1 + 7) // 8
    bits = [decrypt_bit(key, BitVector.from_bytes(blob[i:i + frame_len], key.n + 1))
            for i in range(15, len(blob), frame_len)]
    return bytes(int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8))


class TestArrayCoding:
    @pytest.mark.parametrize("n", [*range(1, 19), 31, 32, 33, 40, 63, 64, 65, 100, 1024, 65535])
    def test_matches_framewise_coding(self, n):
        """Same blob bytes and same generator state as one frame per bit.
        At n = 1024 the cipher bit opens a new byte after a multi-word
        pad; n = 65535, the header's maximum, has n = 7 (mod 8)."""
        rng = np.random.default_rng(n)
        key = keygen(n, rng)
        for size in (0, 1, 3, 17):
            payload = rng.bytes(size)
            ours, ref = np.random.default_rng(size), np.random.default_rng(size)
            blob = encode_stream(key, payload, ours)
            assert blob == framewise_encode(key, payload, ref)
            assert ours.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
            assert decode_stream(key, blob) == framewise_decode(key, blob) == payload

    def test_chunked_stream(self, monkeypatch):
        """n = 11 frames are 16 bits: 384 frame bits per pass code 3
        plaintext bytes, and 1 bit still codes one byte per pass."""
        key = keygen(11, np.random.default_rng(1))
        payload = bytes(range(10))
        for chunk_bits in (384, 1):
            monkeypatch.setattr(crypto, "CHUNK_BITS", chunk_bits)
            blob = encode_stream(key, payload, np.random.default_rng(2))
            assert blob == framewise_encode(key, payload, np.random.default_rng(2))
            assert decode_stream(key, blob) == payload

    def test_blob_held_once(self, monkeypatch):
        """Passes of 21 plaintext bytes at n = 16 need little scratch, so
        encode_stream's peak is about its 0.75 MiB blob: the frames go
        into the one bytearray it returns (a bytes copy of the frames
        held them twice)."""
        monkeypatch.setattr(crypto, "CHUNK_BITS", 1 << 12)
        rng = np.random.default_rng(4)
        key = keygen(16, rng)
        payload = rng.bytes(1 << 15)
        tracemalloc.start()
        try:
            blob = encode_stream(key, payload, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(blob) is bytearray and len(blob) == 15 + 24 * len(payload)
        assert peak < 1.1 * len(blob), (peak, len(blob))
        assert decode_stream(key, blob) == payload

    def test_frames_coded_in_place(self):
        """n = 2048, 8 KiB of plaintext: passes of 2,040 frames code each
        frame in its wire bytes, so encode's peak beyond its 16.1 MiB blob
        and decode's peak are about 1.5 and 0.5 MiB (12.5 and 8.0 MiB with
        a byte per frame bit)."""
        rng = np.random.default_rng(5)
        key = keygen(2048, rng)
        payload = rng.bytes(8192)
        tracemalloc.start()
        try:
            blob = encode_stream(key, payload, rng)
            encode_peak = tracemalloc.get_traced_memory()[1] - len(blob)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = decode_stream(key, blob)
            decode_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back == payload
        assert encode_peak < 4 << 20 and decode_peak < 4 << 20, (encode_peak, decode_peak)

    def test_scratch_memory_bounded_at_large_n(self):
        """n = 4096, 512 plaintext bytes: a 2 MiB blob, coded in passes
        of a few MiB of scratch (about 46 MiB for encode and 32 MiB for
        decode when each pass coded 8 KiB of plaintext at any n)."""
        rng = np.random.default_rng(3)
        key = keygen(4096, rng)
        payload = rng.bytes(512)
        tracemalloc.start()
        try:
            blob = encode_stream(key, payload, rng)
            encode_peak = tracemalloc.get_traced_memory()[1] - len(blob)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = decode_stream(key, blob)
            decode_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back == payload
        assert encode_peak < 16 << 20 and decode_peak < 16 << 20, (encode_peak, decode_peak)


DECODE_KEYS = [SecretKey(6, bv("010101")), SecretKey(9, bv("110000001"))]
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def _decodes_or_format_error(key, data):
    try:
        out = decode_stream(key, data)
    except FormatError:
        return
    assert len(out) == int.from_bytes(data[7:15], "big") // 8


class TestDecodeProperties:
    @PROPERTY
    @given(st.sampled_from(DECODE_KEYS), st.binary(max_size=64))
    def test_arbitrary_bytes(self, key, data):
        _decodes_or_format_error(key, data)

    @PROPERTY
    @given(st.sampled_from(DECODE_KEYS), st.binary(max_size=6), st.data())
    def test_mutated_blobs(self, key, payload, data):
        blob = bytearray(encode_stream(key, payload, np.random.default_rng(len(payload))))
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["set", "cut", "add"]))
            if op == "set" and blob:
                blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
            elif op == "cut":
                del blob[data.draw(st.integers(0, len(blob))):]
            else:
                blob += data.draw(st.binary(min_size=1, max_size=4))
        _decodes_or_format_error(key, bytes(blob))

    @PROPERTY
    @given(st.sampled_from(DECODE_KEYS), st.binary(max_size=6), st.data())
    def test_padding_bits_ignored(self, key, payload, data):
        blob = bytearray(encode_stream(key, payload, np.random.default_rng(1)))
        frame_len = (key.n + 1 + 7) // 8
        pad_mask = (1 << (8 * frame_len - key.n - 1)) - 1    # low bits of the last byte
        for end in range(15 + frame_len - 1, len(blob), frame_len):
            blob[end] |= data.draw(st.integers(0, 255)) & pad_mask
        assert decode_stream(key, bytes(blob)) == payload == framewise_decode(key, bytes(blob))


class TestWindowAttacker:
    def test_fifo_eviction(self):
        att = window_attacker(3, 2 * 4 + 3)  # capacity 2
        assert att.name == "window[2]" and att.memory_bits == 11
        state = att.initial_state
        for a, b in [(1, 0), (2, 1), (4, 0), (3, 1)]:
            state = att.step(state, a, b)
        # newest first: (3, 1), then (4, 0); (1, 0) and (2, 1) are evicted
        assert _decode_rows(state, 4) == [3 | 1 << 3, 4]
        assert state.bit_length() <= 2 * 4

    @pytest.mark.parametrize("n, c, m", [(2, 1, 3), (3, 2, 3), (3, 1, 4), (2, 2, 4),
                                         (3, 3, 3), (4, 1, 3), (3, 0, 2)])
    def test_unrolled_program_matches_exact_oracle(self, n, c, m):
        """The unrolled attacker labelled by its outputs is a sound affine
        program, and its exact key-recovery rate is E[2^{rank - n}] of
        its last min(m, c) samples."""
        bp, labels = learner_program_with_labels(window_attacker(n, c * (n + 1)), m)
        assert validate_affine(bp, labels).ok
        reach = forward_tables(bp)[m].sum(axis=1)
        rate = sum(reach[v] * 2.0 ** -labels[m][v].dim
                   for v in range(bp.layer_sizes[m]) if not labels[m][v].is_empty)
        assert abs(rate - expected_point_recovery(n, min(m, c))) <= 1e-12

    def test_capacity_zero_uniform(self):
        att = window_attacker(6, 0)
        rep = run_attack(att, m=4, trials=30_000, rng=np.random.default_rng(9))
        p = 2.0 ** (-6)
        sigma = (p * (1 - p) / 30_000) ** 0.5
        assert abs(rep.key_guess_rate - p) <= 3 * sigma
        assert rep.next_bit_advantage < 0.01

    def test_capacity_n_matches_exact_oracle(self):
        n = 6
        att = window_attacker(n, n * (n + 1))
        trials = 20_000
        rep = run_attack(att, m=n, trials=trials, rng=np.random.default_rng(10))
        exact = expected_point_recovery(n, n)
        sigma = (exact * (1 - exact) / trials) ** 0.5
        assert abs(rep.key_guess_rate - exact) <= 3 * sigma
        # full-rank probability alone undercounts: lucky point guesses on
        # rank-deficient systems contribute E[2^{rank-n}] - Pr[rank = n]
        assert exact - rank_success_probability(n, n) > 10 * sigma

    def test_large_capacity_matches_rank_formula(self):
        n, w = 6, 18
        att = window_attacker(n, w * (n + 1))
        trials = 3_000
        rep = run_attack(att, m=w, trials=trials, rng=np.random.default_rng(11))
        p = rank_success_probability(n, w)
        sigma = max((p * (1 - p) / trials) ** 0.5, 1e-9)
        assert abs(rep.key_guess_rate - p) <= 3 * sigma

    def test_capacity_one_halves_key_space(self):
        n = 6
        att = window_attacker(n, n + 1)
        trials = 20_000
        rep = run_attack(att, m=3, trials=trials, rng=np.random.default_rng(12))
        bound = 2.0 ** (-(n - 1))
        sigma = (bound * (1 - bound) / trials) ** 0.5
        assert rep.key_guess_rate <= bound + 3 * sigma

    def test_monotone_in_memory(self):
        n = 5
        rates = []
        for w in (0, 2, 5, 10):
            att = window_attacker(n, w * (n + 1))
            rep = run_attack(att, m=10, trials=4_000, rng=np.random.default_rng(13 + w))
            rates.append(rep.key_guess_rate)
        slack = 3 * (0.25 / 4_000) ** 0.5
        assert all(rates[i + 1] >= rates[i] - slack for i in range(len(rates) - 1))

    def test_prediction_advantage_with_full_rank(self):
        n = 5
        att = window_attacker(n, 3 * n * (n + 1))
        rep = run_attack(att, m=3 * n, trials=4_000, rng=np.random.default_rng(14))
        # knowing the key makes the next bit deterministic
        assert rep.next_bit_advantage > 0.45


class TestHarnessContracts:
    def test_memory_bound_enforced(self):
        def cheat(start):
            return Learner("cheat", 4, 2, start,
                           step=lambda s, a, b: (s << 5) | a | b << 4 | 16,
                           output=lambda s: AffineSubspace.full(4))
        with pytest.raises(AssertionError):
            run_attack(cheat(0), m=2, trials=1, rng=np.random.default_rng(15))
        with pytest.raises(AssertionError):  # no step taken: the initial state
            run_attack(cheat(1 << 2), m=0, trials=1, rng=np.random.default_rng(15))

    @pytest.mark.parametrize("n", [1, 3, 6, 8, 16, 24])
    def test_pad_block_draw_matches_scalar_draws(self, n):
        """One rng.integers(0, 2^n, k) call gives k scalar draws and leaves
        the generator in the same state, up to k = 2^10 + 2: the mask draws
        of every dimension d that follow read the same."""
        for seed in range(32):
            for m in (0, 1, 5, 18, 40, 1 << 10):
                for k in (m, m + 1, m + 2):
                    scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
                    pads = [int(scalar.integers(0, 1 << n)) for _ in range(k)]
                    assert block.integers(0, 1 << n, k).tolist() == pads
                    for d in range(1, n + 1):
                        assert block.integers(0, 1 << d) == scalar.integers(0, 1 << d)
                    assert block.integers(0, 1 << 62) == scalar.integers(0, 1 << 62)

    def test_dimension_ceiling(self):
        with pytest.raises(ValueError):
            run_attack(window_attacker(25, 26), 1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("m, trials", [(3, 0), (3, -2), (-1, 5)])
    def test_run_size_rejected(self, m, trials):
        with pytest.raises(ValueError):
            run_attack(window_attacker(4, 20), m, trials, np.random.default_rng(0))

    def test_rank_distribution_vs_exhaustive(self):
        n, m = 2, 2
        probs = rank_distribution(n, m)
        counts = [0] * (n + 1)
        for a1 in range(4):
            for a2 in range(4):
                counts[VectorSubspace.from_rows(n, [a1, a2]).dim] += 1
        for r in range(n + 1):
            assert probs[r] == pytest.approx(counts[r] / 16)


def _same_attack(attacker, m, trials, seed):
    """run_attack and the stepping reference give equal reports and leave
    their generators in the same state, from a fresh generator and from
    one with a half-word buffered; returns the fresh generator's report."""
    reports = []
    for buffered in (False, True):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert fast.integers(0, 2) == slow.integers(0, 2)
            assert fast.bit_generator.state["has_uint32"] == 1
        got = run_attack(attacker, m, trials, fast).to_dict()
        want = stepping_run_attack(attacker, m, trials, slow).to_dict()
        assert got == want, (attacker.name, m, trials, seed, buffered)
        assert fast.bit_generator.state == slow.bit_generator.state, \
            (attacker.name, m, trials, seed, buffered)
        reports.append(got)
    return reports[0]


class TestAttackOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_window_grid(self, n):
        """Capacities 0, 1, below n, n, above m and huge; m = 0, below
        and above the capacity; trials from 1 to 300, one seed a case;
        budgets that are and are not multiples of n + 1."""
        grid = np.random.default_rng(100 + n)
        huge = 10 ** 20 // (n + 1)
        for capacity in sorted({0, 1, n // 2, n, 2 * n + 3, huge}):
            ms = {0, capacity + int(grid.integers(1, 12))} if capacity < huge else {0, 3 * n}
            if capacity > 1:
                ms.add(int(grid.integers(1, capacity)) if capacity < huge else n)
            for m in sorted(ms):
                s = capacity * (n + 1) + int(grid.integers(0, n + 1))
                trials = int(grid.choice([1, 300, int(grid.integers(2, 300))]))
                _same_attack(window_attacker(n, s), m, trials, int(grid.integers(0, 1 << 30)))

    @pytest.mark.parametrize("seed", range(20))
    def test_bench_shape(self, seed):
        _same_attack(window_attacker(6, 126), 18, 300, seed)

    @pytest.mark.parametrize("factory", [gaussian_learner, lambda n: exhaustive_learner(n, 2)])
    def test_stepped_learners(self, factory):
        """Other learners are stepped; the exhaustive learner's wrong
        committed points exercise a point guess that misses the key."""
        for seed in range(20):
            _same_attack(factory(4), seed % 9, 1 + 37 * seed % 300, seed)

    @pytest.mark.parametrize("m", [0, 5])
    def test_empty_output_guesses_from_full_space(self, m):
        """An attacker that outputs Empty guesses a uniform point of the
        full space: key hits near 2^-n."""
        empty = Learner("empty", 3, 3, 0, step=lambda s, a, b: 0,
                        output=lambda s: AffineSubspace.empty(3))
        report = _same_attack(empty, m, 200, m)
        assert abs(report["key_guess_rate"] - 1 / 8) < 0.05


class TestRawDraws:
    """run_attack's draws come from one raw-word reader."""

    @pytest.mark.parametrize("s", [0, 3])
    def test_zero_dimension_draws_nothing(self, s):
        """n = 0: every key, pad, a_{m+1} and mask is 0 and draws nothing."""
        rng = np.random.default_rng(2)
        rng.integers(0, 2)  # leaves a half-word in the buffer
        before = rng.bit_generator.state
        report = _same_attack(window_attacker(0, s), 4, 10, 2)
        assert report["key_guess_rate"] == 1.0
        run_attack(window_attacker(0, s), 4, 10, rng)
        assert rng.bit_generator.state == before

    def test_long_stream_skips_to_the_window(self):
        """m = 10^5: the pads before the 18-sample window are drawn unread,
        crossing many blocks of raw words."""
        _same_attack(window_attacker(6, 126), 10 ** 5, 3, 4)

    def test_long_stream_memory_is_bounded(self):
        """One trial at m = 10^6 holds no more than a block of raw words."""
        rng = np.random.default_rng(6)
        run_attack(window_attacker(6, 126), 40, 1, rng)  # first-call set-up is not the run's
        tracemalloc.start()
        try:
            run_attack(window_attacker(6, 126), 10 ** 6, 1, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("buffered", [False, True])
    def test_budget_error_leaves_the_reference_state(self, buffered):
        """An attacker that overflows its budget mid-call leaves the
        generator where the reference leaves it, buffer included."""
        att = dataclasses.replace(window_attacker(4, 3 * 5), memory_bits=2 * 5)
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        if buffered:
            assert fast.integers(0, 2) == slow.integers(0, 2)
        with pytest.raises(AssertionError):
            run_attack(att, 5, 50, fast)
        with pytest.raises(AssertionError):
            stepping_run_attack(att, 5, 50, slow)
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_refuses_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            run_attack(window_attacker(4, 20), 3, 2, np.random.Generator(np.random.MT19937(0)))


class TestWindowBudget:
    @pytest.mark.parametrize("n, capacity", [(1, 1), (3, 2), (4, 3), (6, 5), (8, 4)])
    def test_undeclared_window_is_caught(self, n, capacity):
        """A window declaring (capacity - 1) * (n+1) bits is stepped: it
        overflows once m fills it, with the message and at the generator
        state of the reference; shorter streams pass."""
        att = dataclasses.replace(window_attacker(n, capacity * (n + 1)),
                                  memory_bits=(capacity - 1) * (n + 1))
        _same_attack(att, capacity - 1, 200, n)
        for m in (capacity, capacity + 3):
            fast_rng, slow_rng = np.random.default_rng(n), np.random.default_rng(n)
            with pytest.raises(AssertionError) as fast:
                run_attack(att, m, 200, fast_rng)
            with pytest.raises(AssertionError) as slow:
                stepping_run_attack(att, m, 200, slow_rng)
            assert str(fast.value) == str(slow.value)
            assert fast_rng.integers(0, 1 << 30) == slow_rng.integers(0, 1 << 30)

    def test_negative_budget_fails_on_the_initial_state(self):
        att = dataclasses.replace(window_attacker(3, 8), memory_bits=-1)
        for m in (0, 4):
            with pytest.raises(AssertionError, match="needs 0 bits, declared -1"):
                run_attack(att, m, 5, np.random.default_rng(0))

    def test_window_within_budget_is_solved(self, monkeypatch):
        """Windows whose capacity * (n+1) bits fit the declared budget,
        exactly or not, never step."""
        monkeypatch.setattr(crypto, "run_learner", None)
        for n, s in [(1, 2), (4, 15), (4, 19), (6, 10 ** 20)]:
            run_attack(window_attacker(n, s), 7, 20, np.random.default_rng(n))
