"""Inner-product one-time-pad encryption with a memory-bounded attacker
harness.

Each plaintext bit M is sent as a frame (a, M xor a.x) with a fresh
uniform a, the (n+1)-bit vector a | (M xor a.x) << n, whose to_bytes()
go on the wire; the receiver, sharing the key x, recovers M by XORing
a.x back out.  An attacker is a streaming learner: the attack harness
feeds it the pad stream (a_t, b_t) with b_t = a_t.x through
learners.run_learner, which asserts its declared memory budget on every
step, and measures exact-key recovery and next-bit prediction from its
output.  A window attacker whose window fits its budget is solved
straight from its last pads instead.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .gf2 import (
    AffineSubspace,
    BitVector,
    _reduce,
    _sample_coset,
    _solve_rows,
    parity,
    solve_affine_system,
)
from .generators import _Words
from .learners import Learner, _check_run, _decode_rows, run_learner, wilson_interval

MAGIC = b"BSC1"
VERSION = 1


class FormatError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class SecretKey:
    n: int
    x: BitVector

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("key length must be at least 1")
        if self.x.n != self.n:
            raise ValueError("key vector dimension mismatch")


def random_vector(n: int, rng: np.random.Generator) -> BitVector:
    """Uniform n-bit vector (n may exceed the subspace-machinery cap)."""
    nbytes = (n + 7) // 8
    bits = int.from_bytes(rng.bytes(nbytes), "big") & ((1 << n) - 1)
    return BitVector(n, bits)


def _check_header_n(n: int) -> None:
    """Raise ValueError when n exceeds the stream header's 2-byte field."""
    if n > 0xFFFF:
        raise ValueError(f"n = {n} exceeds the stream header's 2-byte limit (n <= 65535)")


def keygen(n: int, rng: np.random.Generator) -> SecretKey:
    """A uniform key; raises ValueError when no stream can carry n."""
    _check_header_n(n)
    return SecretKey(n, random_vector(n, rng))


def encrypt_bit(key: SecretKey, m: int, rng: np.random.Generator) -> BitVector:
    """Bit m's frame: the pad, then the cipher bit at coordinate n + 1."""
    if m not in (0, 1):
        raise ValueError(f"plaintext bit must be 0 or 1, got {m}")
    a = random_vector(key.n, rng).bits
    return BitVector(key.n + 1, a | (m ^ parity(a & key.x.bits)) << key.n)


def decrypt_bit(key: SecretKey, frame: BitVector) -> int:
    if frame.n != key.n + 1:
        raise ValueError(f"frame dimension {frame.n} != key dimension {key.n} + 1")
    return parity(frame.bits & (key.x.bits | 1 << key.n))


# Frame bits coded per array pass (see encode_stream).
CHUNK_BITS = 1 << 22

# Each byte with its bit order reversed.
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def _parities(frames: np.ndarray, mask: bytes) -> np.ndarray:
    """Parity of each row of frames ANDed with the bytes mask."""
    return np.bitwise_count(np.bitwise_xor.reduce(frames & np.frombuffer(mask, np.uint8), axis=1)) & 1


def encode_stream(key: SecretKey, plaintext: bytes, rng: np.random.Generator) -> bytearray:
    """Header (magic, version, n, bit count) followed by one frame per
    plaintext bit, bits taken MSB-first within each byte, as one
    bytearray that each pass writes its frames' wire bytes into.

    The frames are encrypt_bit's, bit by bit.  A pass codes frames of
    about CHUNK_BITS bits in all, at least one plaintext byte's; its pads
    come from one rng.bytes call of 4 * ceil(nbytes / 4) bytes per pad,
    the same bytes and generator state as one random_vector call per bit
    (rng.bytes(k) draws ceil(k / 4) 32-bit words, but rng.bytes(0) draws
    one, so an empty plaintext makes no call).  Raises ValueError when n
    exceeds the header's 2-byte field.
    """
    n = key.n
    _check_header_n(n)
    nbytes = (n + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    frame_len = (n + 1 + 7) // 8
    key_bytes = key.x.to_bytes()
    out = bytearray(15 + 8 * len(plaintext) * frame_len)
    out[:15] = MAGIC + bytes([VERSION]) + n.to_bytes(2, "big") + (8 * len(plaintext)).to_bytes(8, "big")
    framed = np.frombuffer(out, np.uint8, offset=15).reshape(-1, frame_len)
    step = max(1, CHUNK_BITS // (64 * frame_len))
    for start in range(0, len(plaintext), step):
        bits = np.unpackbits(np.frombuffer(plaintext[start:start + step], np.uint8))
        pads = np.frombuffer(rng.bytes(len(bits) * stride), np.uint8).reshape(-1, stride)
        frames = framed[8 * start:8 * start + len(bits)]
        # random_vector reads the pad big-endian, so coordinate 1 is the
        # low bit of its byte nbytes - 1: reversed bytes of reversed bits
        frames[:, :nbytes] = _REVERSED[pads[:, nbytes - 1::-1]]
        frames[:, nbytes - 1] &= 0xFF << (8 * nbytes - n) & 0xFF
        frames[:, n // 8] |= (bits ^ _parities(frames[:, :nbytes], key_bytes)) << (7 - n % 8)
    return out


def decode_stream(key: SecretKey, data: bytes) -> bytes:
    """Inverse of encode_stream: decrypt_bit on each frame's wire bytes,
    whose padding bits are ignored.  Raises FormatError, with the
    offending byte offset, on a malformed stream."""
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", 0)
    if len(data) < 15:
        raise FormatError("truncated header", len(data))
    if data[4] != VERSION:
        raise FormatError(f"unsupported version {data[4]}", 4)
    n = int.from_bytes(data[5:7], "big")
    if n != key.n:
        raise FormatError(f"stream n={n} does not match key n={key.n}", 5)
    bit_count = int.from_bytes(data[7:15], "big")
    if bit_count % 8:
        raise FormatError(f"bit count {bit_count} is not byte-aligned", 7)
    frame_len = (n + 1 + 7) // 8
    expected = 15 + bit_count * frame_len
    if len(data) != expected:
        raise FormatError(
            f"expected {expected} bytes for {bit_count} frames, got {len(data)}",
            min(len(data), expected))
    mask = BitVector(n + 1, key.x.bits | 1 << n).to_bytes()
    frames = np.frombuffer(data, np.uint8, offset=15).reshape(bit_count, frame_len)
    step = 8 * max(1, CHUNK_BITS // (64 * frame_len))  # encode_stream's passes
    return b"".join(np.packbits(_parities(frames[start:start + step], mask)).tobytes()
                    for start in range(0, bit_count, step))


@dataclass(frozen=True)
class WindowAttacker(Learner):
    """A learner that remembers its last `capacity` samples (FIFO) and
    outputs their solution subspace.

    State: the window's rows a | b << n, n+1 bits apiece, newest in the
    low bits; older rows are cut off at capacity * (n+1) bits.  When those
    bits fit the declared budget no step can overflow it, and run_attack
    solves the window from the pads themselves (solve).
    """

    capacity: int = 0

    def solve(self, x: int, pads: list[int]) -> tuple[int, tuple[int, ...]]:
        """output(state) after the honest stream (a, a.x) over pads, as
        (offset, direction rows): the solution of the last
        min(len(pads), capacity) rows, a point (x itself) once they reach
        rank n."""
        n = self.n
        # echelon rows (a << 1) | a.x by highest coefficient bit: honest
        # rows are consistent, so a row is dependent once it is 0 or 1
        pivots = [0] * (n + 1)
        rank = 0
        for a in pads[len(pads) - min(len(pads), self.capacity):]:
            v = a << 1 | (a & x).bit_count() & 1
            while v > 1:
                h = v.bit_length() - 1
                if not pivots[h]:
                    pivots[h] = v
                    rank += 1
                    break
                v ^= pivots[h]
            if rank == n:
                return x, ()
        offset, direction = _solve_rows(n, (v >> 1 | (v & 1) << n for v in pivots if v))
        return _reduce(direction.rows, offset), direction.rows


def window_attacker(n: int, s: int) -> WindowAttacker:
    """The window attacker of floor(s / (n+1)) samples, declaring s bits."""
    if s < 0:
        raise ValueError("memory budget must be nonnegative")
    width = n + 1
    capacity = s // width
    limit = capacity * width

    def step(state: int, a: int, b: int) -> int:
        state = (state << width) | a | (b << n)
        if state.bit_length() > limit:  # never build a mask of the (huge) limit
            state &= (1 << limit) - 1
        return state

    def output(state: int) -> AffineSubspace:
        return solve_affine_system(n, _decode_rows(state, width))

    return WindowAttacker(f"window[{capacity}]", n, s, 0, step, output, capacity=capacity)


@dataclass(frozen=True)
class AttackReport:
    """The attack game's figures, its fields in their JSON order."""

    attacker: str
    n: int
    m: int
    trials: int
    memory_bits: int
    key_guess_rate: float
    key_guess_ci: tuple[float, float]
    next_bit_advantage: float
    next_bit_ci: tuple[float, float]

    def to_dict(self) -> dict:
        return asdict(self)


def _advantage_interval(lo: float, hi: float) -> tuple[float, float]:
    """The range of the advantage |p - 1/2| over p in [lo, hi]: 0 at the
    low end when the interval holds 1/2."""
    return max(0.0, lo - 0.5, 0.5 - hi), max(abs(lo - 0.5), abs(hi - 0.5))


def run_attack(attacker: Learner, m: int, trials: int,
               rng: np.random.Generator) -> AttackReport:
    """Key-recovery and next-bit-prediction game against the pad stream.

    Per trial: fresh uniform key, m observed pairs (a_t, a_t.x) fed to
    the attacker, whose output is computed once; a key guess is sampled
    from it, then a fresh a_{m+1} is revealed and the prediction uses a
    second sample.  An Empty output (impossible on honest streams) is
    replaced by the full space.

    Draws: per trial the key, its m pads, the guess's coset mask, a_{m+1}
    and the prediction's mask, in that order, with the values and
    generator state of one rng.integers(0, 2^k) call each (k = n, or the
    output's dimension for a mask; a point draws no mask).  All come from
    one generators._Words reader over the PCG64's raw words: Lemire's
    multiply-shift never rejects a power-of-two span, so each draw is one
    next_uint32 half-word shifted right by 32 - k.  Other bit generators
    raise TypeError.  A WindowAttacker whose capacity * (n+1) bits fit
    its memory_bits is solved from its last pads (its state never
    outgrows them), and the pads before its window are drawn without
    being read (past the reader's block, the generator jumps over them);
    any other attacker, an over-budget window included, is stepped
    through run_learner.
    """
    _check_run(attacker, m, trials)
    n = attacker.n
    if isinstance(attacker, WindowAttacker) and attacker.capacity * (n + 1) <= attacker.memory_bits:
        solve, window = attacker.solve, min(m, attacker.capacity)
    else:
        solve, window = functools.partial(_stepped_solution, attacker), m
    key_hits = 0
    bit_hits = 0
    with _Words(rng) as words:
        for _ in range(trials):
            if window == m:
                x, *pads = words.bits(n, m + 1)
            else:
                x = words.bits(n, 1)[0]
                pads = words.bits(n, window, skip=m - window)
            offset, rows = solve(x, pads)
            dim = len(rows)
            key_hits += _sample_coset(offset, rows, words.bits(dim, 1)[0]) == x
            a_next = words.bits(n, 1)[0]
            # the prediction p hits when a_{m+1}.p = a_{m+1}.x
            bit_hits += 1 - parity(a_next & (_sample_coset(offset, rows, words.bits(dim, 1)[0]) ^ x))
    key_lo, key_hi = wilson_interval(key_hits, trials)
    return AttackReport(
        n=n, m=m, trials=trials,
        key_guess_rate=key_hits / trials,
        key_guess_ci=(key_lo, key_hi),
        next_bit_advantage=abs(bit_hits / trials - 0.5),
        next_bit_ci=_advantage_interval(*wilson_interval(bit_hits, trials)),
        attacker=attacker.name,
        memory_bits=attacker.memory_bits,
    )


def _stepped_solution(attacker: Learner, x: int, pads: list[int]) -> tuple[int, tuple[int, ...]]:
    """The attacker's output after run_learner over the honest stream, as
    (offset, direction rows); Empty becomes the full space."""
    w = attacker.output(run_learner(attacker, x, pads))
    if w.is_empty:
        w = AffineSubspace.full(attacker.n)
    return w.offset, w.direction.rows


def rank_distribution(n: int, m: int) -> list[float]:
    """Distribution of the rank of m uniform vectors in {0,1}^n."""
    probs = [1.0] + [0.0] * n
    for _ in range(m):
        nxt = [0.0] * (n + 1)
        for r, p in enumerate(probs):
            if p == 0.0:
                continue
            stay = 2.0 ** (r - n)
            nxt[r] += p * stay
            if r < n:
                nxt[r + 1] += p * (1 - stay)
        probs = nxt
    return probs


def expected_point_recovery(n: int, window: int) -> float:
    """Exact key-recovery rate of a solver that guesses a uniform point of
    the solution set of `window` random equations: E[2^{rank - n}]."""
    probs = rank_distribution(n, window)
    return sum(p * 2.0 ** (r - n) for r, p in enumerate(probs))
