"""Equidistant time grids and reproducible Wiener paths.

Noise streams are counter-based: channel c of path i under master seed s
draws from the stream (s, i, c), a Philox engine keyed as
``numpy.random.SeedSequence(s, spawn_key=(i, c))`` would key it, so an
ensemble produces the same paths whatever the order or batch size in which
its members run.  The keys are derived here: :func:`_pool` takes the pool
of the master seed from numpy's SeedSequence once per draw, and
:func:`_keys` hashes the spawn keys of one channel of every path of the
batch into it together, in uint32 arrays, by a copy of SeedSequence's hash.
Path indices lie below checks.KEY_SPACE, 2**32, and channel indices below
2**24 (checks.channels_rule), so each is one 32-bit word of the spawn key.
One Philox engine is then re-keyed through its public ``state`` for each
stream and draws straight into the batch array, so a stream costs no
SeedSequence, Philox, Generator or array of its own.
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
    "path_rule",
    "restrict_path",
]

#: Byte budget of one (paths, channels, nodes) float array of a path batch,
#: which bounds the memory of ensembles and Picard diagnostics of any size.
BATCH_BYTES = 8 * 2**20


@checks.ruled(h=checks.finite_rule, T=checks.finite_rule)
@dataclass(frozen=True)
class TimeGrid:
    """Nodes 0 = t_0 < t_1 < ... < t_N = T with uniform spacing h.

    ``num_steps``, the number N of steps (increments), is derived as
    round(T/h) once T and h pass the grid rule, so there are
    ``num_steps + 1`` nodes.
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


@checks.ruled(h=checks.finite_rule, T=checks.finite_rule)
def make_grid(T: float, h: float) -> TimeGrid:
    """Build the uniform grid on [0, T]; T/h must be an integer >= 2.

    Non-commensurate (T, h) pairs are rejected rather than silently rounded,
    so a run always covers exactly the horizon it was asked for.
    """
    return TimeGrid(float(T), float(h))


@checks.ruled(master_seed=checks.seed_rule, path_index=checks.count_rule(0, checks.KEY_SPACE - 1),
              channel_index=checks.count_rule(0, 0))
@dataclass(frozen=True)
class SeedSpec:
    """Identifies the noise of one path within an ensemble.

    Channel c of the path draws from the stream (master_seed, path_index, c).
    Each field takes what operator.index accepts, Python or numpy integers,
    and is stored as a Python int; path_index lies below checks.KEY_SPACE.
    ``channel_index`` must be 0: channels always start at stream c = 0.  The
    field stays only because the benchmark's tracer, perfbench/traced.py,
    calls the three-argument form SeedSpec(seed, i, 0).
    """

    master_seed: int
    path_index: int = 0
    channel_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "path_index", "channel_index"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))


@checks.ruled(grid=TimeGrid, cumulative=checks.array_rule)
@dataclass
class WienerPath:
    """Sampled Brownian motion on a grid; immutable after construction.

    ``cumulative`` (finite real numbers shaped (d_w, num_steps + 1), W(0) =
    0), a private copy of the array it is built from (the draw of
    :func:`generate_path` is kept as it is), is the one record; the
    read-only ``increments`` (shape (d_w, num_steps)) are derived from it as
    its exact floating-point differences, so the two views agree bitwise,
    and must be finite too.
    """

    grid: TimeGrid
    cumulative: np.ndarray
    increments: np.ndarray = field(init=False)

    def __post_init__(self):
        drawn = isinstance(self.cumulative, _Drawn)  # held by no caller: no copy
        self.cumulative = (self.cumulative.view(np.ndarray) if drawn
                           else np.array(self.cumulative, dtype=float))
        shaped = self.cumulative.ndim == 2 and self.cumulative.shape[1] == self.grid.num_nodes
        checks.require([] if shaped else ["cumulative shape does not match grid"])
        checks.require(["W(0) must be 0"] if np.any(self.cumulative[:, 0] != 0.0) else [])
        self.cumulative.flags.writeable = False
        try:
            self.increments = _increments(self.cumulative)
        except FloatingPointError:
            checks.require(["cumulative must have finite increments"])
        self.increments.flags.writeable = False

    @property
    def num_channels(self) -> int:
        return self.cumulative.shape[0]


class _Drawn(np.ndarray):
    """W that :func:`generate_path` has just drawn and holds no more: its
    WienerPath keeps it without the copy that an array a caller passes gets."""


def _increments(W: np.ndarray) -> np.ndarray:
    """The increments of finite W along its last axis, its exact
    floating-point differences.  A difference of finite floats is non-finite
    only past the float range, which raises FloatingPointError, so the
    result needs no scan; no drawn W gets there."""
    with np.errstate(over="raise"):
        return np.diff(W, axis=-1)


def path_rule(path: WienerPath, grid: TimeGrid, num_channels: int) -> list:
    """path, a WienerPath, is on grid with num_channels channels: the one
    check of a path against the run it drives, for :func:`sfode.solver.solve`
    and :func:`sfode.picard.picard_iterate` alike."""
    problems = []
    if path.grid != grid:
        problems.append(f"path grid T={path.grid.T!r}, h={path.grid.h!r} does not match "
                        f"the run grid T={grid.T!r}, h={grid.h!r}")
    if path.num_channels != num_channels:
        problems.append(f"path has {path.num_channels} channels, model needs {num_channels}")
    return problems


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes the pool into the state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715    # mixes a hashed word into a pool word
_POOL = 4                                  # pool words


def _powers(h: int, mult: int, count: int) -> np.ndarray:
    """h, h * mult, ..., h * mult**count (mod 2**32) as a uint32 column: the
    hash constant before and after each of count hashes."""
    return np.cumprod([h] + [mult] * count, dtype=np.uint32).reshape(-1, 1)


# The hash constants of the four state words of generate_state(2, np.uint64).
_STATE_H = _powers(_INIT_B, _MULT_B, _POOL)
# The hash constants of the two spawn-key words, path and channel, each
# hashed once per pool word; the pool took 4 + 12 hashes before them, one
# per pool word and one per ordered pair of pool words.
_KEY_H = _powers(_INIT_A, _MULT_A, _POOL * _POOL + 2 * _POOL)[_POOL * _POOL:]


def _pool(master_seed: int) -> np.ndarray:
    """The SeedSequence pool after the run entropy master_seed, which numpy
    pads with zero words whether or not a spawn key follows, as a uint32
    (4, 1) column."""
    return np.random.SeedSequence(master_seed).pool.reshape(-1, 1)


def _keys(pool: np.ndarray, paths: range, channel: int) -> np.ndarray:
    """The Philox keys of one channel of the paths (step 1) under the
    :func:`_pool` of a master seed s, as a (len(paths), 2) uint64 array:
    row b is bit for bit
    SeedSequence(s, spawn_key=(paths[b], channel)).generate_state(2, np.uint64).

    A hash constant depends only on how many words were hashed before it,
    and each pool word absorbs each spawn-key word on its own.  Every index
    is one word, below checks.KEY_SPACE, so the keys of all paths are hashed
    at once, the path word as a uint32 array.  pool is read, not written, so
    one pool serves every channel of a draw.
    """
    for k, w in enumerate((np.arange(paths.start, paths.stop, dtype=np.uint32), channel)):
        h = _KEY_H[_POOL * k:_POOL * (k + 1) + 1]  # word k is hashed once per pool word
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


def _wiener(master_seed: int, paths: range, grid: TimeGrid, num_channels: int) -> np.ndarray:
    """W at the nodes, (len(paths), num_channels, num_nodes), with W(0) = 0.

    Channel c of path i draws its N(0, 1) Gaussians from the Philox stream
    keyed by SeedSequence(master_seed, spawn_key=(i, c)), from
    counter 0 with an empty buffer, as a fresh Philox(SeedSequence) starts.
    :func:`_keys` hashes the keys of the batch channel by channel; then one
    engine is re-keyed per stream and draws straight into that stream's
    nodes 1..N.  The batch is scaled by sqrt(h) once and summed along the
    steps.
    """
    keys, pool = np.empty((len(paths), num_channels, 2), np.uint64), _pool(master_seed)
    for c in range(num_channels):
        keys[:, c] = _keys(pool, paths, c)
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


@checks.ruled(seed=SeedSpec, grid=TimeGrid, num_channels=checks.count_rule(1))
def generate_path(seed: SeedSpec, grid: TimeGrid, num_channels: int = 1) -> WienerPath:
    """Draw a Wiener path with i.i.d. Normal(0, h) increments per channel.

    The batch of one: channel c of the path uses the stream keyed by
    (master_seed, path_index, c), so channels are mutually independent and
    the whole path is reproducible bit-for-bit from its SeedSpec.  Its
    increments are bit for bit those that :func:`increment_batches` yields
    for path path_index.  The path may hold at most checks.MAX_PATH_FLOATS
    floats (else ConfigError).
    """
    checks.require(checks.channels_rule(num_channels, grid.num_nodes))
    paths = range(seed.path_index, seed.path_index + 1)
    return WienerPath(grid, _wiener(seed.master_seed, paths, grid, num_channels)[0].view(_Drawn))


@checks.ruled(grid=TimeGrid, master_seed=checks.seed_rule,
              M=checks.count_rule(0, checks.KEY_SPACE), num_channels=checks.count_rule(1))
def increment_batches(master_seed: int, M: int, grid: TimeGrid, num_channels: int):
    """Yield (start, dW) for paths 0..M-1 in contiguous index batches of B paths.

    Row b of dW, shape (B, num_channels, num_steps), holds the increments of
    path start + b, bit for bit those of
    generate_path(SeedSpec(master_seed, start + b), grid, num_channels).
    B >= 1 is the most paths whose (B, num_channels, num_nodes) floats fit
    BATCH_BYTES, or fewer in the last batch.  The declared rules, and the
    checks.MAX_PATH_FLOATS floats one path may hold, are checked at the call,
    before the first batch is asked for (else ConfigError).
    """
    checks.require(checks.channels_rule(num_channels, grid.num_nodes))
    master_seed, num_channels = operator.index(master_seed), operator.index(num_channels)
    size = max(1, BATCH_BYTES // (8 * num_channels * grid.num_nodes))
    return ((start, _increments(_wiener(master_seed, range(start, min(M, start + size)), grid,
                                        num_channels)))
            for start in range(0, M, size))


@checks.ruled(path=WienerPath, grid=TimeGrid)
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
