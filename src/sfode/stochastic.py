"""Equidistant time grids and reproducible Wiener paths.

Noise streams are counter-based: the generator for a given (master seed,
path index, channel index) triple is a Philox engine keyed as
``numpy.random.SeedSequence(master_seed, spawn_key=(path, channel))``
would key it, so an ensemble produces the same paths whatever the order or
batch size in which its members run.  The key is derived here, by a
Python-int copy of SeedSequence's hash (:func:`_prefix` once per draw,
:func:`_key` per stream), and one Philox engine is re-keyed through its
public ``state`` for each stream, so a stream costs no SeedSequence,
Philox or Generator object of its own.  Paths are drawn in batches: one
path is the batch of one.  Gaussians come from numpy's ziggurat sampler on
that stream, which is deterministic for a fixed numpy build.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import checks

__all__ = [
    "TimeGrid",
    "SeedSpec",
    "WienerPath",
    "make_grid",
    "generate_path",
    "increment_batches",
    "restrict_path",
]

#: Byte budget of one (paths, channels, nodes) float array of a path batch,
#: which bounds the memory of ensembles and Picard diagnostics of any size.
BATCH_BYTES = 8 * 2**20


@dataclass(frozen=True)
class TimeGrid:
    """Nodes 0 = t_0 < t_1 < ... < t_{N+1} = T with uniform spacing h.

    ``num_steps``, the number of increments N+1, is derived as round(T/h)
    once T and h pass the grid rule, so there are ``num_steps + 1`` nodes.
    """

    T: float
    h: float
    num_steps: int = field(init=False)

    def __post_init__(self):
        checks.require(checks.grid_rule(self.T, self.h))
        object.__setattr__(self, "num_steps", round(self.T / self.h))

    @property
    def num_nodes(self) -> int:
        return self.num_steps + 1

    def nodes(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h


def make_grid(T: float, h: float) -> TimeGrid:
    """Build the uniform grid on [0, T]; T/h must be an integer >= 2.

    Non-commensurate (T, h) pairs are rejected rather than silently rounded,
    so a run always covers exactly the horizon it was asked for.
    """
    return TimeGrid(float(T), float(h))


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one independent noise stream within an ensemble.

    Distinct (master_seed, path_index, channel_index) triples key distinct
    counter-based streams.  For multi-channel paths, ``channel_index`` is the
    index of the first channel.
    """

    master_seed: int
    path_index: int = 0
    channel_index: int = 0

    def __post_init__(self):
        checks.require(checks.seed_rule(self.master_seed))
        if self.path_index < 0 or self.channel_index < 0:
            raise ValueError("path_index and channel_index must be >= 0")


@dataclass
class WienerPath:
    """Sampled Brownian motion on a grid; immutable after construction.

    ``cumulative`` (shape (d_w, num_steps + 1), W(0) = 0), a private copy of
    the array it is built from, is the one record; the read-only
    ``increments`` (shape (d_w, num_steps)) are derived from it as its exact
    floating-point differences, so the two views agree bitwise.
    """

    grid: TimeGrid
    cumulative: np.ndarray
    increments: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cumulative = np.array(self.cumulative, dtype=float)
        if self.cumulative.ndim != 2 or self.cumulative.shape[1] != self.grid.num_nodes:
            raise ValueError("cumulative shape does not match grid")
        if np.any(self.cumulative[:, 0] != 0.0):
            raise ValueError("W(0) must be 0")
        self.cumulative.flags.writeable = False
        self.increments = np.diff(self.cumulative, axis=1)
        self.increments.flags.writeable = False

    @property
    def num_channels(self) -> int:
        return self.cumulative.shape[0]


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes the pool into the state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715    # mixes a hashed word into a pool word
_POOL = 4                                  # pool words


def _words(n: int) -> list:
    """The uint32 words of n >= 0, least significant first; [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _absorb(pool: list, h: int, words: list) -> int:
    """Mix each of words into every pool word in place, as SeedSequence mixes
    the entropy past its pool size; returns the advanced hash constant."""
    for w in words:
        for d in range(_POOL):
            v = w ^ h
            h = h * _MULT_A & _MASK32
            v = v * h & _MASK32
            v = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
            pool[d] = v ^ v >> 16
    return h


def _prefix(master_seed: int) -> tuple:
    """The SeedSequence pool and hash constant after the run entropy
    master_seed, zero-padded to the pool size as numpy pads it when a spawn
    key follows: the part of every stream key that :func:`_key` shares."""
    words = _words(master_seed)
    pool, h = [], _INIT_A
    for w in (words + [0] * _POOL)[:_POOL]:  # hash the first words into the pool
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        pool.append(v ^ v >> 16)
    for s in range(_POOL):  # mix every pool word into every other
        for d in range(_POOL):
            if s != d:
                v = pool[s] ^ h
                h = h * _MULT_A & _MASK32
                v = v * h & _MASK32
                v = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
                pool[d] = v ^ v >> 16
    h = _absorb(pool, h, words[_POOL:])
    return tuple(pool), h


def _key(prefix: tuple, path: int, channel: int) -> tuple:
    """The Philox key (two uint64 as Python ints) of stream (path, channel)
    after prefix = _prefix(master_seed): bit for bit
    SeedSequence(master_seed, spawn_key=(path, channel)).generate_state(2, np.uint64)."""
    pool = list(prefix[0])
    _absorb(pool, prefix[1], _words(path) + _words(channel))
    state, h = [], _INIT_B
    for v in pool:
        v ^= h
        h = h * _MULT_B & _MASK32
        v = v * h & _MASK32
        state.append(v ^ v >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _wiener(master_seed: int, paths: range, channel: int, grid: TimeGrid,
            num_channels: int) -> np.ndarray:
    """W at the nodes, (len(paths), num_channels, num_nodes), with W(0) = 0.

    Channel c of path i draws its N(0, 1) Gaussians from the Philox stream
    keyed by _key(_prefix(master_seed), i, channel + c), from counter 0 with
    an empty buffer, as a fresh Philox(SeedSequence) starts; it scales them
    by sqrt(h) and sums them along the steps into nodes 1..N.
    """
    sqrt_h = math.sqrt(grid.h)
    draws = np.empty((len(paths), num_channels, grid.num_steps))
    prefix = _prefix(master_seed)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh engine's: counter 0, empty buffer
    for b, i in enumerate(paths):
        for c in range(num_channels):
            state["state"]["key"] = _key(prefix, i, channel + c)
            bitgen.state = state
            draws[b, c] = rng.standard_normal(grid.num_steps) * sqrt_h
    W = np.zeros(draws.shape[:-1] + (grid.num_nodes,))
    np.cumsum(draws, axis=-1, out=W[..., 1:])
    return W


def generate_path(seed: SeedSpec, grid: TimeGrid, num_channels: int = 1) -> WienerPath:
    """Draw a Wiener path with i.i.d. Normal(0, h) increments per channel.

    The batch of one: channel c of the path uses the stream keyed by
    (master_seed, path_index, channel_index + c), so channels are mutually
    independent and the whole path is reproducible bit-for-bit from its
    SeedSpec.  With channel_index 0 its increments are bit for bit those
    that :func:`increment_batches` yields for path path_index.
    """
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    paths = range(seed.path_index, seed.path_index + 1)
    return WienerPath(grid, _wiener(seed.master_seed, paths, seed.channel_index, grid,
                                    num_channels)[0])


def increment_batches(master_seed: int, M: int, grid: TimeGrid, num_channels: int):
    """Yield (start, dW) for paths 0..M-1 in contiguous index batches of B paths.

    Row b of dW, shape (B, num_channels, num_steps), holds the increments of
    path start + b, bit for bit those of
    generate_path(SeedSpec(master_seed, start + b, 0), grid, num_channels).
    B >= 1 is the most paths whose (B, num_channels, num_nodes) floats fit
    BATCH_BYTES.  master_seed must be a 64-bit unsigned integer (else
    ConfigError).
    """
    checks.require(checks.seed_rule(master_seed))
    size = max(1, BATCH_BYTES // (8 * num_channels * grid.num_nodes))
    for start in range(0, M, size):
        paths = range(start, min(M, start + size))
        yield start, np.diff(_wiener(master_seed, paths, 0, grid, num_channels), axis=-1)


def restrict_path(path: WienerPath, grid: TimeGrid) -> WienerPath:
    """Restrict a fine path to a coarser grid on the same horizon.

    grid must share the path's T and have a step count that divides the
    path's; the coarse path carries grid itself, so restrictions nest
    exactly.  The coarse cumulative values are taken directly from the fine
    ones (every factor-th node, factor = path steps / grid steps), so the
    coarse path's endpoint W(T) equals the fine endpoint bitwise.  A coarse
    increment is a difference of two fine W values: the sum of the fine
    increments it spans, up to rounding.
    """
    fine = path.grid
    if grid.T != fine.T or fine.num_steps % grid.num_steps != 0:
        raise ValueError(
            f"cannot restrict a path of {fine.num_steps} steps on T={fine.T} "
            f"to a grid of {grid.num_steps} steps on T={grid.T}"
        )
    if grid == fine:
        return path
    return WienerPath(grid, path.cumulative[:, ::fine.num_steps // grid.num_steps])
