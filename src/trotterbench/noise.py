"""Stochastic Pauli fault emulation and classical readout errors.

Gate noise is modelled as at most one fault per gate: after every
single-qubit gate a uniformly random X/Y/Z hits its qubit with probability
p1, and after every CNOT one of the 15 non-identity two-qubit Paulis hits
the gate's pair with probability p2. Averaging exact per-step expectations
over many such trajectories reproduces the depolarizing-channel values.

Trajectory t draws its faults from numpy's PCG64 stream seeded by
SeedSequence((seed, t)), as `np.random.default_rng((seed, t))` would. The
SeedSequence hash of a whole block of trajectories runs as one vectorized
uint32 pass (`_seed_words`), and each trajectory's generator is built from
its precomputed words, so the streams are numpy's own.
"""

from __future__ import annotations

import functools
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

#: Trajectories whose (2, n_gates) uniforms are held at once while a
#: block's fault codes are computed.
_DRAW_CHUNK = 32


def noisy_execute(
    circuit: Circuit,
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
    """
    trajectories = check_integer("trajectories", trajectories)
    if not 1 <= trajectories <= MAX_TRAJECTORIES:
        raise ValueError(f"trajectories must be in [1, 2**32], got {trajectories}")
    rng_seed = check_integer("rng_seed", rng_seed, 0)
    check_state(initial, circuit.n_qubits, block=False)
    kinds, qa, qb, theta, marks = encode(circuit)
    n = circuit.n_qubits
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        # identity channel: every trajectory is the ideal run, so return it
        # as-is instead of averaging T identical values (which would round)
        out = np.empty((len(marks), n), dtype=np.float64)
        kernels.run_gates_record(initial.copy(), n, kinds, qa, qb, theta, marks, out)
        return out
    acc = np.zeros((len(marks), n), dtype=np.float64)
    for first in range(0, trajectories, TRAJECTORY_BLOCK):
        block = range(first, min(first + TRAJECTORY_BLOCK, trajectories))
        faults = _fault_codes(kinds, noise, rng_seed, block)
        amps = np.repeat(initial[:, None], len(block), axis=1)
        out = np.empty((len(block), len(marks), n), dtype=np.float64)
        kernels.run_gates_noisy(amps, n, kinds, qa, qb, theta, marks, faults, out)
        for row in out:  # one trajectory after another, as a running sum
            acc += row
    acc /= trajectories
    return acc


def _fault_codes(kinds, noise: NoiseParams, rng_seed: int, block: range) -> np.ndarray:
    """int8 fault codes of shape (n_gates, len(block)) in the kernels' layout
    (Pauli on the first qubit in bits 2-3, on the CNOT target in bits 0-1).

    Trajectory t draws u and choice, one uniform each per gate, from the
    stream (rng_seed, t). A rotation faults when u < p1, with X, Y or Z by
    choice; a CNOT faults when u < p2, with one of the 15 non-identity
    two-qubit Paulis by choice.
    """
    cnot = kinds == KIND_CNOT
    prob = np.where(cnot, noise.p2, noise.p1)
    n_paulis = np.where(cnot, 15.0, 3.0)
    shift = np.where(cnot, 0, 2)
    codes = np.zeros((len(kinds), len(block)), dtype=np.int8)
    words = _seed_words(rng_seed, block)
    stream = _stream_factory()
    draws = np.empty((min(_DRAW_CHUNK, len(block)), 2, len(kinds)))
    for first in range(0, len(block), len(draws)):
        chunk = draws[:len(block) - first]
        for row, out in zip(words[first:], chunk):
            stream(row).random(out=out)
        traj, gate = np.nonzero(chunk[:, 0] < prob)
        choice = chunk[traj, 1, gate] * n_paulis[gate]
        codes[gate, first + traj] = (choice.astype(np.int8) + 1) << shift[gate]
    return codes


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


@functools.cache
def _stream_factory():
    """Function from a row of `_seed_words` to the Generator that
    np.random.default_rng((seed, t)) builds. numpy.random is imported here,
    on the first draw, not with the package."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A SeedSequence whose generate_state(4, np.uint64) is precomputed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words

    return lambda words: Generator(PCG64(SeedWords(words)))


def apply_readout_to_expectations(values: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """Infinite-shot readout map on <sigma_z> values:
    M -> M (1 - read01 - read10) + (read10 - read01)."""
    scale = 1.0 - noise.read01 - noise.read10
    offset = noise.read10 - noise.read01
    return values * scale + offset
