"""Ensemble statistics, noise-integral checks, and convergence measurement.

The Monte Carlo machinery here uses counter-based seeds (path i of a run is
SeedSpec(master_seed, i)).  :func:`path_rows` is the one many-path
driver: it runs paths in batches whose per-path results equal single-path
runs bit for bit and hands them on one path at a time, in path-index order.
Every reduction, the ensemble statistics, the Picard diagnostic and the
noise-integral check alike, adds those rows in that order, so every
statistic is bit-reproducible and independent of the batch size.
"""

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import checks
from .solver import DivergenceError, SolverConfig, solve, solve_batch
from .stochastic import SeedSpec, TimeGrid, generate_path, make_grid, restrict_path
from .stochastic import increment_batches
from .systems import SystemModel
from .table import metadata_rule, write_table

__all__ = [
    "EnsembleStats",
    "ConvergenceReport",
    "accumulate_stats",
    "ensemble_run",
    "ito_isometry_check",
    "convergence_order",
    "levels_rule",
    "write_stats_csv",
]


@checks.ruled(grid=TimeGrid, **dict.fromkeys(("mean", "variance", "l2sq"), np.ndarray),
              num_paths=checks.count_rule(1))
@dataclass
class EnsembleStats:
    """Per-node moments across M paths on one shared grid.

    ``variance`` is the population (1/M) estimator; ``l2sq`` is the mean
    squared Euclidean norm (1/M) sum |y(t)|**2, i.e. the squared L2 norm of
    the random state, with the square root left to consumers.
    """

    grid: TimeGrid
    mean: np.ndarray       # (dim, num_nodes)
    variance: np.ndarray   # (dim, num_nodes)
    l2sq: np.ndarray       # (num_nodes,)
    num_paths: int

    def __post_init__(self):
        nodes = self.grid.num_nodes
        checks.require(checks.shape_rule("mean", self.mean, ("dim", nodes))
                       or checks.shape_rule("variance", self.variance, self.mean.shape))
        checks.require(checks.shape_rule("l2sq", self.l2sq, (nodes,)))


def path_rows(master_seed: int, M: int, grid: TimeGrid, channels: int, run):
    """Yield run's rows of paths 0..M-1 of master_seed, one path at a time,
    in path-index order.

    run(dW) is called once per batch of :func:`increment_batches`, dW shaped
    (B, channels, num_steps), and returns one row per path of the batch.  A
    DivergenceError of run, its path_index an index into the batch, is
    raised as "path {index}: <message>" with the same step and time and the
    run-wide index.
    """
    for start, dW in increment_batches(master_seed, M, grid, channels):
        try:
            rows = run(dW)
        except DivergenceError as exc:
            index = start + exc.path_index
            raise DivergenceError(f"path {index}: {exc}", exc.step, exc.time, index) from None
        yield from rows
        del dW, rows  # so the batch is freed before the next one is drawn


@checks.ruled(grid=TimeGrid, states_seq=Iterable)
def accumulate_stats(grid: TimeGrid, states_seq) -> EnsembleStats:
    """Reduce an ordered sequence of state arrays to ensemble statistics.

    Welford accumulation from zeros in sequence order: deterministic,
    single-pass, and the second-moment accumulator is non-negative term by
    term, so variance can never round below zero.  Each item must be real
    numbers shaped (d, num_nodes), d the first item's, and is reduced in
    float64 (with no copy of a float64 item) unscanned, as the solvers have
    checked its values.  A one-item mean of -0.0 comes out +0.0 (0.0 + -0.0).
    """
    mean = m2 = l2 = 0.0
    count = 0
    for states in states_seq:
        try:
            states = np.asarray(states)
        except ValueError:  # a ragged nesting
            states = np.asarray(None)
        # (d, num_nodes): the accumulators' shape after the first item, d its own
        shape = np.shape(mean) or states.shape[:1] + (grid.num_nodes,)
        checks.require([] if states.dtype.kind in "biuf" and states.shape == shape else
                       [f"states_seq item {count} must be real numbers shaped (d, num_nodes), "
                        f"num_nodes = {grid.num_nodes} and d the first item's; got shape "
                        f"{states.shape} of dtype {states.dtype}"])
        states = np.asarray(states, dtype=float)
        count += 1
        delta = states - mean
        mean += delta / count
        m2 += delta * (states - mean)
        l2 += np.sum(states**2, axis=0)
        del states  # a view into its batch, which must not outlive it
    checks.require(["accumulate_stats needs at least one trajectory"] if count == 0 else [])
    return EnsembleStats(
        grid=grid,
        mean=mean,
        variance=m2 / count,
        l2sq=l2 / count,
        num_paths=count,
    )


@checks.ruled(model=SystemModel, cfg=SolverConfig, M=checks.count_rule(1, checks.KEY_SPACE),
              workers=checks.count_rule(0), master_seed=checks.seed_rule)
def ensemble_run(model: SystemModel, cfg: SolverConfig, master_seed: int, M: int,
                 workers: int = 1) -> EnsembleStats:
    """Solve M independent paths and reduce them to EnsembleStats.

    The paths are solved by :func:`solve_batch` through :func:`path_rows`
    and reduced in path-index order as they come, so memory is bounded by
    one batch and the results are the same for any batch size.  ``workers``
    (>= 0) is accepted for compatibility and has no effect.
    """
    return accumulate_stats(cfg.grid, path_rows(master_seed, M, cfg.grid, model.noise_dim,
                                                lambda dW: solve_batch(model, cfg, dW)))


@checks.ruled(alpha=checks.alpha_rule("noise integrals"),
              M=checks.count_rule(1000, checks.KEY_SPACE),
              grid=TimeGrid, master_seed=checks.seed_rule)
def ito_isometry_check(alpha: float, grid: TimeGrid, M: int,
                       master_seed: int = 0) -> float:
    """Empirical check of E|int v dW|**2 = int E|v|**2 ds for the scheme's
    kernel v(s) = (T - s)**(alpha - 1).

    Left-point Monte Carlo estimate over paths 0..M-1 of master_seed (path i
    from the stream of SeedSpec(master_seed, i)), against the closed form
    T**(2*alpha-1) / (2*alpha-1); returns the relative error.  The squares
    come from :func:`path_rows` as a stacked product, which rounds each path
    as it would alone, and are added in path-index order, so the value does
    not depend on the batch size.
    """
    T = grid.T
    t = grid.nodes()[:-1]
    v = (T - t)**(alpha - 1.0)
    mc = float(sum(path_rows(master_seed, M, grid, 1, lambda dW: (dW @ v)[:, 0]**2))) / M
    exact = T**(2.0 * alpha - 1.0) / (2.0 * alpha - 1.0)
    return abs(mc - exact) / exact


@checks.ruled(h=np.ndarray, errors=np.ndarray, order=checks.real_rule, degenerate=checks.bool_rule)
@dataclass
class ConvergenceReport:
    h: np.ndarray        # step sizes, coarse to fine, that carry an error
    errors: np.ndarray   # discrete sup-norm errors per step size
    order: float         # least-squares slope of log error vs log h
    degenerate: bool     # all errors vanished; no rate can be fitted


def levels_rule(levels: int, grid: TimeGrid | None) -> list:
    """An integer count of at least 3 levels, and a TimeGrid whose finest
    level, of step grid.h / 2**(levels - 1), is above 0 and passes the grid
    rule; a None grid (one that fails its own rule) skips the latter."""
    if problems := checks.count_rule()("levels", levels):
        return problems
    if levels < 3:
        return [f"need at least 3 grid levels; got {levels}"]
    if grid is None:
        return []
    if problems := checks.type_rule(TimeGrid)("grid", grid):
        return problems
    finest = math.ldexp(grid.h, 1 - operator.index(levels))
    if finest == 0.0:
        return [f"levels must keep the finest step h / 2**(levels - 1) above 0 for "
                f"h={grid.h!r}; got {levels}"]
    return checks.grid_rule(grid.T, finest)


def _reference_states(reference, grid: TimeGrid, dim: int) -> np.ndarray:
    """The (dim, num_nodes) values of reference at the nodes of grid; a value
    that is not dim finite real numbers is a ConfigError naming its t."""
    values = []
    for t in grid.nodes():
        value = reference(t)
        checks.require(checks.array_rule(f"reference(t) at t={float(t)!r}", value, (dim,)))
        values.append(np.asarray(value, dtype=float))
    return np.stack(values, axis=1)


@checks.ruled(model=SystemModel, cfg=SolverConfig,
              reference=checks.optional_rule(checks.callable_rule), levels=checks.count_rule(),
              master_seed=checks.optional_rule(checks.seed_rule))
def convergence_order(model: SystemModel, cfg: SolverConfig, levels: int,
                      master_seed: int | None = None, reference=None) -> ConvergenceReport:
    """Empirical convergence rate of cfg's run over ``levels`` dyadic grids.

    Level i runs cfg on the grid of cfg.grid.T with step cfg.grid.h / 2**i;
    :func:`levels_rule` is checked before any solve.  With a ``reference``
    callable (t -> exact state) errors are measured against it on every
    grid, and each of its values must be dim finite real numbers, also
    checked before any solve; otherwise the finest run is the reference and
    errors are measured for the coarser grids at their (nested) nodes.  A stochastic cfg needs
    ``master_seed``: one fine path, path 0 of that seed, is drawn and
    restricted to each coarse grid by sub-sampling its W at the coarse nodes
    (:func:`restrict_path`), so the measurement sees discretization error,
    not noise resampling.  A coarse
    increment is then a difference of two fine W values, which equals the
    sum of the fine increments it spans only up to rounding.
    """
    checks.require(levels_rule(levels, cfg.grid))
    T, h = cfg.grid.T, cfg.grid.h
    checks.require(["stochastic convergence measurement needs a master_seed"]
                   if cfg.stochastic and master_seed is None else [])

    grids = [make_grid(T, math.ldexp(h, -i)) for i in range(levels)]
    if reference is not None:
        targets = [_reference_states(reference, grid, model.dim) for grid in grids]
    fine_path = None
    if cfg.stochastic:
        fine_path = generate_path(SeedSpec(master_seed), grids[-1], model.noise_dim)
    runs = [solve(model, replace(cfg, grid=grid),
                  None if fine_path is None else restrict_path(fine_path, grid)).states
            for grid in grids]

    if reference is None:
        # the finest run is the reference at the nodes each coarser grid shares
        fine, fine_steps = runs.pop(), grids.pop().num_steps
        targets = [fine[:, ::fine_steps // grid.num_steps] for grid in grids]
    errors = np.array([float(np.max(np.abs(run - target)))
                       for run, target in zip(runs, targets)])
    h = np.array([grid.h for grid in grids])
    degenerate = bool(np.all(errors < 1e-300))
    order = float("nan") if degenerate else float(np.polyfit(np.log(h), np.log(errors), 1)[0])
    return ConvergenceReport(h=h, errors=errors, order=order, degenerate=degenerate)


@checks.ruled(stats=EnsembleStats, stream=checks.stream_rule,
              metadata=checks.optional_rule(metadata_rule))
def write_stats_csv(stats: EnsembleStats, stream, metadata: dict | None = None) -> None:
    """Rows t, mean_1..d, var_1..d, l2sq in the shared table format."""
    d = stats.mean.shape[0]
    header = (["t"] + [f"mean_{i + 1}" for i in range(d)]
              + [f"var_{i + 1}" for i in range(d)] + ["l2sq"])
    write_table(stream, metadata or {}, header,
                [stats.grid.nodes(), *stats.mean, *stats.variance, stats.l2sq])
