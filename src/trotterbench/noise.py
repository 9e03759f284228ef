"""Stochastic Pauli fault emulation and classical readout errors.

Gate noise is modelled as at most one fault per gate: after every
single-qubit gate a uniformly random X/Y/Z hits its qubit with probability
p1, and after every CNOT one of the 15 non-identity two-qubit Paulis hits
the gate's pair with probability p2. Averaging exact per-step expectations
over many such trajectories reproduces the depolarizing-channel values.

Trajectory t draws its faults from numpy's PCG64 stream seeded by
SeedSequence((seed, t)), the stream of `np.random.default_rng((seed, t))`,
bit for bit, computed here with uint64 array arithmetic so that noisy mode
never imports numpy.random. The SeedSequence hash of a whole block of
trajectories runs as one vectorized uint32 pass (`_seed_words`). PCG64 steps
a 128-bit LCG, so k draws are one affine map of the state (`_jump`), and the
states of all draws of a block fill an array by doubling: a few passes over
whole arrays of 64-bit words, not one generator call per trajectory.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .circuit import Circuit, check_integer, check_real, encode
from .kernels import KIND_CNOT
from .statevector import check_state


@dataclass(frozen=True)
class NoiseParams:
    """Fault probabilities per gate plus classical readout flip rates."""

    p1: float = 0.0  # depolarizing fault after a single-qubit gate
    p2: float = 0.0  # depolarizing fault after a CNOT
    read01: float = 0.0  # measured 0 flips to 1
    read10: float = 0.0  # measured 1 flips to 0

    def __post_init__(self):
        for name in ("p1", "p2", "read01", "read10"):
            v = check_real(name, getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
            object.__setattr__(self, name, v)

    def is_zero(self) -> bool:
        return self.p1 == self.p2 == self.read01 == self.read10 == 0.0


#: Calibration used for device-like runs; chosen so that gate faults dominate
#: the Trotter error at moderate fields. Plain config defaults, not measured
#: properties of any hardware.
DEVICE_LIKE = NoiseParams(p1=0.002, p2=0.02, read01=0.02, read10=0.02)


#: Trajectories simulated together as one (2^n, block) batch; memory is
#: bounded by this many states whatever the trajectory count.
TRAJECTORY_BLOCK = 256

#: Most trajectories of one run: trajectory t's stream takes t as one
#: uint32 word of SeedSequence entropy, so t < 2^32.
MAX_TRAJECTORIES = 1 << 32

#: PCG64 states held at once while a block's fault codes are computed, in
#: chunks of trajectories: 29 bytes of buffers per state, at most 1.9 MB.
_DRAW_STATES = 1 << 16


def noisy_execute(
    circuits: Circuit | Sequence[Circuit],
    initial: np.ndarray,
    noise: NoiseParams,
    trajectories: int,
    rng_seed: int,
) -> np.ndarray:
    """Trajectory-averaged per-qubit <sigma_z> at every step mark.

    Each trajectory replays the circuit from the (2^n,) complex128 state
    `initial` (left unchanged) with independently drawn faults and records
    exact expectations at the step marks; the return value has shape
    (n_steps, n_qubits). Trajectory t draws from a stream seeded by
    (rng_seed, t), so its faults and amplitudes do not depend on how
    trajectories are batched. Its <Z> readout may differ in the last bit
    with the size of its block, because BLAS picks its kernel by matrix
    size: a block of one trajectory reads <Z> through another path than a
    block of 256 at every n, and at n = 10 so do blocks of 2 and 44.
    Trajectories run in blocks of TRAJECTORY_BLOCK and are summed in order.

    `circuits` may also be a sequence of G circuits with one gate list that
    differ only in their angles, such as the g values of a sweep; the
    result then has shape (G, n_steps, n_qubits). Every circuit meets the
    same faults, so each block's codes are drawn once for all of them, and
    each circuit's values are those of its own call.
    """
    single = isinstance(circuits, Circuit)
    circuits = [circuits] if single else list(circuits)
    if not circuits:
        raise ValueError("circuits must be a Circuit or a nonempty sequence of them")
    trajectories = check_integer("trajectories", trajectories)
    if not 1 <= trajectories <= MAX_TRAJECTORIES:
        raise ValueError(f"trajectories must be in [1, 2**32], got {trajectories}")
    rng_seed = check_integer("rng_seed", rng_seed, 0)
    encoded = [encode(circuit) for circuit in circuits]
    kinds, qa, qb, _, marks = encoded[0]
    n = circuits[0].n_qubits
    for circuit, (k, a, b, _, m) in zip(circuits, encoded):
        same = map(np.array_equal, (k, a, b, m), (kinds, qa, qb, marks))
        if circuit.n_qubits != n or not all(same):
            raise ValueError("circuits must share one gate list")
    check_state(initial, n, block=False)
    acc = np.zeros((len(circuits), len(marks), n), dtype=np.float64)
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        # identity channel: every trajectory is the ideal run, so return it
        # as-is instead of averaging T identical values (which would round)
        for out, (*_, theta, _) in zip(acc, encoded):
            kernels.run_gates_record(initial.copy(), n, kinds, qa, qb, theta, marks, out)
        return acc[0] if single else acc
    for first in range(0, trajectories, TRAJECTORY_BLOCK):
        block = range(first, min(first + TRAJECTORY_BLOCK, trajectories))
        faults = _fault_codes(kinds, noise, rng_seed, block)
        out = np.empty((len(block), len(marks), n), dtype=np.float64)
        for total, (*_, theta, _) in zip(acc, encoded):
            amps = np.repeat(initial[:, None], len(block), axis=1)
            kernels.run_gates_noisy(amps, n, kinds, qa, qb, theta, marks, faults, out)
            for row in out:  # one trajectory after another, as a running sum
                total += row
    acc /= trajectories
    return acc[0] if single else acc


def _fault_codes(kinds, noise: NoiseParams, rng_seed: int, block: range) -> np.ndarray:
    """int8 fault codes of shape (n_gates, len(block)) in the kernels' layout
    (Pauli on the first qubit in bits 2-3, on the CNOT target in bits 0-1).

    Trajectory t draws u and choice, one uniform each per gate, from the
    stream (rng_seed, t): u of gate g is draw g and its choice is draw
    n_gates + g, as `Generator.random((2, n_gates))` orders them. A
    rotation faults when u < p1, with X, Y or Z by choice; a CNOT faults
    when u < p2, with one of the 15 non-identity two-qubit Paulis by choice.
    A choice is drawn only where a gate faults, by jumping its u's state
    n_gates draws ahead.
    """
    n = len(kinds)
    codes = np.zeros((n, len(block)), dtype=np.int8)
    if n == 0:
        return codes
    cnot = kinds == KIND_CNOT
    # u = bits * 2^-53 < p exactly when bits < ceil(p * 2^53)
    limit = np.where(cnot, math.ceil(noise.p2 * 2.0**53), math.ceil(noise.p1 * 2.0**53))
    limit = limit.astype(np.uint64)[:, None]
    n_paulis = np.where(cnot, 15.0, 3.0)
    shift = np.where(cnot, 0, 2)
    start, inc = _pcg_seed(_seed_words(rng_seed, block))
    chunks = -(-len(block) * n // _DRAW_STATES)
    width = -(-len(block) // chunks)  # even chunks of about _DRAW_STATES states
    half = (n + 1) // 2
    # flat, so that a short last chunk is contiguous too
    states = np.empty(2 * n * width, dtype=np.uint64)
    scratch = np.empty(3 * half * width, dtype=np.uint64)
    faulted = np.empty(n * width, dtype=bool)
    mult, plus = map(_words, _jump(n))  # a choice is n draws after its u
    for first in range(0, len(block), width):
        cols = slice(first, first + width)
        b = len(block[cols])
        chunk_inc = inc[:, cols]
        tmp = scratch[:3 * half * b].reshape(3, half, b)
        s = _draw_states(start[:, cols], chunk_inc, states[:2 * n * b].reshape(2, n, b), tmp)
        mask = faulted[:n * b].reshape(n, b)
        for part in (slice(0, half), slice(half, n)):
            bits = _draw_bits(s[:, part], tmp[:, :part.stop - part.start])
            np.less(bits, limit[part], out=mask[part])
        gate, traj = np.nonzero(mask)
        choice_state = _mul_add(s[:, gate, traj], mult, _mul_add(chunk_inc[:, traj], plus, (0, 0)))
        choice = _draw_bits(choice_state) * 2.0**-53 * n_paulis[gate]  # Generator.random's double
        codes[gate, first + traj] = (choice.astype(np.int8) + 1) << shift[gate]
    return codes


def _draw_states(start, inc, out, tmp) -> np.ndarray:
    """PCG64 states of draws 0..n-1 of b streams, into `out` of shape
    (2, n, b): draw 0 steps `start` once, and by doubling, draws w..2w-1
    are draws 0..w-1 jumped w draws ahead. `start` and `inc` are (2, b)
    word pairs as in `_mul_add`, and `tmp` holds (3, ceil(n/2), b) words."""
    n = out.shape[1]
    widths = [1 << i for i in range((n - 1).bit_length())]
    offsets = _mul_add(inc[:, None], _words([_jump(w)[1] for w in widths]), (0, 0))
    _mul_add(start, _words(_PCG_MULT), inc, out[:, 0], tmp[:, 0])
    for w, offset in zip(widths, offsets.swapaxes(0, 1)):
        m = min(w, n - w)
        _mul_add(out[:, :m], _words(_jump(w)[0]), offset, out[:, w:w + m], tmp[:, :m])
    return out


_MASK32 = 0xFFFFFFFF


def _seed_words(rng_seed: int, block: range) -> np.ndarray:
    """(len(block), 4) uint64: row i is
    SeedSequence((rng_seed, block[i])).generate_state(4, np.uint64).

    numpy's SeedSequence hash with its default pool of 4 words, run on
    uint32 arrays over the block: the entropy of trajectory t is the 32-bit
    words of rng_seed, least significant first, then t as one word.
    """
    rng_seed = check_integer("seed", rng_seed, 0)
    if block.stop > MAX_TRAJECTORIES:
        raise ValueError(f"trajectory index must be < 2**32, got {block.stop - 1}")
    seed_words = [rng_seed & _MASK32]
    while rng_seed >> 32:
        rng_seed >>= 32
        seed_words.append(rng_seed & _MASK32)
    t = np.arange(block.start, block.stop, dtype=np.uint32)
    entropy = [np.full_like(t, w) for w in seed_words] + [t]
    entropy += [np.zeros_like(t)] * (4 - len(entropy))  # hashed zeros fill the pool
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x, y):
        result = x * 0xCA01F9DD - y * 0x4973F715
        result ^= result >> 16
        return result

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((len(t), 8), dtype=np.uint32)
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value *= hash_const
        state[:, i] = value ^ (value >> 16)
    # pairs of uint32 words, the low word first, as generate_state packs them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


#: PCG64's 128-bit LCG multiplier: each draw first steps the state
#: s -> M s + inc (mod 2^128) and then outputs the new state.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


@functools.cache
def _jump(k: int) -> tuple[int, int]:
    """(M^k, C_k) mod 2^128 with C_k = sum of M^i over i < k: k draws take
    state s to M^k s + C_k inc (F. Brown, "Random number generation with
    arbitrary strides", Trans. Am. Nucl. Soc. 71, 202 (1994))."""
    mult, plus = 1, 0
    step_mult, step_plus = _PCG_MULT, 1  # the jump by 2^i, i = 0, 1, ...
    while k:
        if k & 1:
            mult = mult * step_mult & _MASK128
            plus = (plus * step_mult + step_plus) & _MASK128
        step_plus = (step_mult + 1) * step_plus & _MASK128
        step_mult = step_mult * step_mult & _MASK128
        k >>= 1
    return mult, plus


def _words(value):
    """The (high, low) 64-bit words of a 128-bit Python int; for a list of
    them, uint64 columns of shape (2, len, 1)."""
    if isinstance(value, int):
        return value >> 64, value & _MASK64
    return np.array([_words(v) for v in value], dtype=np.uint64).reshape(-1, 2).T[:, :, None]


def _pcg_seed(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State before the first draw and increment of each trajectory, as
    (2, B) word pairs, from its `_seed_words` row w, as numpy's PCG64 seeds:
    inc = (w2:w3 << 1) | 1 and state M (w0:w1 + inc) + inc."""
    w = words.T
    inc = np.stack([(w[2] << 1) | (w[3] >> 63), (w[3] << 1) | 1])
    low = w[1] + inc[1]
    start = np.stack([w[0] + inc[0] + (low < inc[1]), low])
    return _mul_add(start, _words(_PCG_MULT), inc), inc


def _mul_add(x, k, d, out=None, tmp=None) -> np.ndarray:
    """k x + d mod 2^128, elementwise. Each operand is a 128-bit integer as a
    (high, low) pair of 64-bit words along axis 0: uint64 arrays for x, a
    pair of Python ints or uint64 arrays for k and d; they broadcast. `tmp`
    holds three uint64 scratch arrays of the result's shape, and `out` must
    not overlap x. Wrap-around happens only in array arithmetic: an
    overflowing operator on a numpy scalar would warn."""
    (x_hi, x_lo), (k_hi, k_lo), (d_hi, d_lo) = x, k, d
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(v[0]) for v in (x, k, d)))
        out, tmp = np.empty((2, *shape), np.uint64), np.empty((3, *shape), np.uint64)
    hi, lo = out
    low, high, carry = tmp
    # the high word of x_lo k_lo + d_lo from 32-bit halves; no partial sum
    # exceeds 2^64 - 1
    np.bitwise_and(x_lo, _MASK32, out=low)
    np.right_shift(x_lo, 32, out=high)
    np.multiply(low, k_lo & _MASK32, out=carry)
    carry += d_lo & _MASK32
    carry >>= 32
    np.multiply(high, k_lo & _MASK32, out=hi)
    hi += carry
    hi += d_lo >> 32
    np.bitwise_and(hi, _MASK32, out=carry)
    hi >>= 32
    low *= k_lo >> 32
    carry += low
    carry >>= 32
    hi += carry
    high *= k_lo >> 32
    hi += high
    # the cross products and d_hi count mod 2^64
    hi += np.multiply(x_lo, k_hi, out=low)
    hi += np.multiply(x_hi, k_lo, out=low)
    hi += d_hi
    np.multiply(x_lo, k_lo, out=lo)
    lo += d_lo
    return out


def _draw_bits(x, tmp=None) -> np.ndarray:
    """The 53 bits behind `Generator.random` of each PCG64 state x (word
    pairs as in `_mul_add`): the XSL-RR output, hi ^ lo rotated right by
    hi >> 58, shifted right by 11. Written to tmp[2], with tmp as there."""
    hi, lo = x
    if tmp is None:
        tmp = np.empty((3, *hi.shape), np.uint64)
    rot, right, bits = tmp
    np.right_shift(hi, 58, out=rot)
    np.bitwise_xor(hi, lo, out=bits)
    np.right_shift(bits, rot, out=right)
    np.subtract(64, rot, out=rot)
    bits <<= rot  # numpy shifts a uint64 by 64 to 0
    bits |= right
    bits >>= 11
    return bits


def apply_readout_to_expectations(values: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """Infinite-shot readout map on <sigma_z> values:
    M -> M (1 - read01 - read10) + (read10 - read01)."""
    scale = 1.0 - noise.read01 - noise.read10
    offset = noise.read10 - noise.read01
    return values * scale + offset
