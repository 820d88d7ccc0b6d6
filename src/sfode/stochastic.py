"""Equidistant time grids and reproducible Wiener paths.

Noise streams are counter-based: the generator for a given (master seed,
path index, channel index) triple is a Philox engine keyed as
``numpy.random.SeedSequence(master_seed, spawn_key=(path, channel))``
would key it, so an ensemble produces the same paths whatever the order or
batch size in which its members run.  The keys are derived here:
:func:`_prefix` takes the pool of the master seed from numpy's SeedSequence,
and :func:`_keys` hashes the spawn keys of one channel of every path of the
batch into it together, in uint32 arrays, by a copy of SeedSequence's hash.
A batch stops at the next multiple of 2**32, so the path indices of a draw
all have the same number of 32-bit words.  One Philox engine is then
re-keyed through its public ``state`` for each stream and draws straight
into the batch array, so a stream costs no SeedSequence, Philox, Generator
or array of its own.
Paths are drawn in batches: one path is the batch of one.  Gaussians come
from numpy's ziggurat sampler on that stream, which is deterministic for a
fixed numpy build.
"""

import math
import operator
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
    checks.require(checks.finite_rule(h=h, T=T))
    return TimeGrid(float(T), float(h))


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one independent noise stream within an ensemble.

    Distinct (master_seed, path_index, channel_index) triples key distinct
    counter-based streams.  For multi-channel paths, ``channel_index`` is the
    index of the first channel.  Each field takes what operator.index
    accepts, Python or numpy integers, and is stored as a Python int.
    """

    master_seed: int
    path_index: int = 0
    channel_index: int = 0

    def __post_init__(self):
        checks.require(checks.seed_rule(self.master_seed) + checks.integer_rule(
            0, path_index=self.path_index, channel_index=self.channel_index))
        for name in ("master_seed", "path_index", "channel_index"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))


@dataclass
class WienerPath:
    """Sampled Brownian motion on a grid; immutable after construction.

    ``cumulative`` (finite real numbers shaped (d_w, num_steps + 1), W(0) =
    0), a private copy of the array it is built from, is the one record; the
    read-only ``increments`` (shape (d_w, num_steps)) are derived from it as
    its exact floating-point differences, so the two views agree bitwise.
    """

    grid: TimeGrid
    cumulative: np.ndarray
    increments: np.ndarray = field(init=False)

    def __post_init__(self):
        checks.require(([] if isinstance(self.grid, TimeGrid)
                        else [f"grid must be a TimeGrid; got {self.grid!r}"])
                       + checks.array_rule("cumulative", self.cumulative))
        self.cumulative = np.array(self.cumulative, dtype=float)
        shaped = self.cumulative.ndim == 2 and self.cumulative.shape[1] == self.grid.num_nodes
        checks.require([] if shaped else ["cumulative shape does not match grid"])
        checks.require(["W(0) must be 0"] if np.any(self.cumulative[:, 0] != 0.0) else [])
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


def _powers(h: int, mult: int, count: int) -> list:
    """h, h * mult, ..., h * mult**count (mod 2**32): the hash constant
    before and after each of count hashes."""
    hs = [h]
    for _ in range(count):
        hs.append(hs[-1] * mult & _MASK32)
    return hs


# The hash constants of the four state words of generate_state(2, np.uint64).
_STATE_H = np.array(_powers(_INIT_B, _MULT_B, _POOL), np.uint32).reshape(-1, 1)


def _words(n: int) -> list:
    """The uint32 words of n >= 0, least significant first; [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _prefix(master_seed: int, num_words: int) -> tuple:
    """The SeedSequence pool after the run entropy master_seed, which numpy
    pads with zero words whether or not a spawn key follows, and the hash
    constants of the num_words spawn-key words that follow, as :func:`_powers`
    gives them: two uint32 (n, 1) columns.  The pool took 4 + 12 hashes:
    one per pool word and one per ordered pair of pool words."""
    pool = np.random.SeedSequence(master_seed).pool
    hs = _powers(_INIT_A * pow(_MULT_A, _POOL * _POOL, 2**32) & _MASK32, _MULT_A, _POOL * num_words)
    return pool.reshape(-1, 1), np.array(hs, np.uint32).reshape(-1, 1)


def _keys(master_seed: int, paths: range, channel: int) -> np.ndarray:
    """The Philox keys of one channel of the paths (step 1), as a
    (len(paths), 2) uint64 array: row b is bit for bit
    SeedSequence(master_seed, spawn_key=(paths[b], channel)).generate_state(2, np.uint64).

    A hash constant depends only on how many words were hashed before it,
    and each pool word absorbs each spawn-key word on its own.  So the keys
    of paths whose indices have one word count are hashed at once, word 0
    as a uint32 array that counts up and wraps as the hash's words do, and
    paths must not cross a multiple of 2**32 (else ValueError).
    """
    if paths and paths.start >> 32 != paths[-1] >> 32:
        raise ValueError(f"paths {paths} cross a multiple of 2**32")
    low, *high = _words(paths.start)
    words = [np.arange(low, low + len(paths), dtype=np.uint32), *high, *_words(channel)]
    pool, hs = _prefix(master_seed, len(words))
    for k, w in enumerate(words):
        h = hs[_POOL * k:_POOL * (k + 1) + 1]  # word k is hashed once per pool word
        v = w ^ h[:-1]
        v *= h[1:]
        v ^= v >> 16
        v *= _MIX_R
        pool = _MIX_L * pool - v
        pool ^= pool >> 16
    pool ^= _STATE_H[:-1]  # the pool hashed into the state
    pool *= _STATE_H[1:]
    pool ^= pool >> 16
    # read little-endian, state words 0, 1 make key word 0 and words 2, 3 key word 1
    return np.ascontiguousarray(pool.T, "<u4").view("<u8")


def _wiener(master_seed: int, paths: range, channel: int, grid: TimeGrid,
            num_channels: int) -> np.ndarray:
    """W at the nodes, (len(paths), num_channels, num_nodes), with W(0) = 0.

    Channel c of path i draws its N(0, 1) Gaussians from the Philox stream
    keyed by SeedSequence(master_seed, spawn_key=(i, channel + c)), from
    counter 0 with an empty buffer, as a fresh Philox(SeedSequence) starts.
    :func:`_keys` hashes the keys of the batch channel by channel; then one
    engine is re-keyed per stream and draws straight into that stream's
    nodes 1..N.  The batch is scaled by sqrt(h) once and summed along the
    steps.  paths must not cross a multiple of 2**32.
    """
    keys = np.empty((len(paths), num_channels, 2), np.uint64)
    for c in range(num_channels):
        keys[:, c] = _keys(master_seed, paths, channel + c)
    W = np.empty((len(paths), num_channels, grid.num_nodes))  # after the hash's scratch is freed
    W[..., 0] = 0.0
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh engine's: counter 0, empty buffer
    for out, key in zip(W.reshape(-1, grid.num_nodes)[:, 1:], keys.reshape(-1, 2)):  # by stream
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=out)
    steps = W[..., 1:]
    steps *= math.sqrt(grid.h)
    np.add.accumulate(steps, axis=-1, out=steps)
    return W


def generate_path(seed: SeedSpec, grid: TimeGrid, num_channels: int = 1) -> WienerPath:
    """Draw a Wiener path with i.i.d. Normal(0, h) increments per channel.

    The batch of one: channel c of the path uses the stream keyed by
    (master_seed, path_index, channel_index + c), so channels are mutually
    independent and the whole path is reproducible bit-for-bit from its
    SeedSpec.  With channel_index 0 its increments are bit for bit those
    that :func:`increment_batches` yields for path path_index.
    """
    checks.require(checks.integer_rule(1, num_channels=num_channels))
    paths = range(seed.path_index, seed.path_index + 1)
    return WienerPath(grid, _wiener(seed.master_seed, paths, seed.channel_index, grid,
                                    num_channels)[0])


def increment_batches(master_seed: int, M: int, grid: TimeGrid, num_channels: int):
    """Yield (start, dW) for paths 0..M-1 in contiguous index batches of B paths.

    Row b of dW, shape (B, num_channels, num_steps), holds the increments of
    path start + b, bit for bit those of
    generate_path(SeedSpec(master_seed, start + b, 0), grid, num_channels).
    B >= 1 is the most paths whose (B, num_channels, num_nodes) floats fit
    BATCH_BYTES, or fewer where a batch stops at M or at a multiple of 2**32
    (where path indices gain a word).  master_seed must be a 64-bit unsigned
    integer, M >= 0 and num_channels >= 1, each a Python or numpy integer
    (else ConfigError).
    """
    checks.require(checks.seed_rule(master_seed) + checks.integer_rule(0, M=M)
                   + checks.integer_rule(1, num_channels=num_channels))
    master_seed = operator.index(master_seed)
    size = max(1, BATCH_BYTES // (8 * num_channels * grid.num_nodes))
    stop = 0
    while stop < M:
        start, stop = stop, min(M, stop + size, (stop | _MASK32) + 1)
        yield start, np.diff(_wiener(master_seed, range(start, stop), 0, grid, num_channels),
                             axis=-1)


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
    checks.require([] if grid.T == fine.T and fine.num_steps % grid.num_steps == 0 else
                   [f"cannot restrict a path of {fine.num_steps} steps on T={fine.T} "
                    f"to a grid of {grid.num_steps} steps on T={grid.T}"])
    if grid == fine:
        return path
    return WienerPath(grid, path.cumulative[:, ::fine.num_steps // grid.num_steps])
