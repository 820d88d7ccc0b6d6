"""Ensemble statistics, noise-integral checks, and convergence measurement.

The Monte Carlo machinery here uses counter-based seeds (path i of a run is
SeedSpec(master_seed, i, 0)), solves paths in batches whose per-path results
equal single-path solves bit for bit, and runs every reduction in path-index
order, so every statistic is bit-reproducible and independent of the batch
size.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import checks
from .solver import DivergenceError, SolverConfig, Trajectory, solve, solve_batch
from .stochastic import SeedSpec, TimeGrid, generate_path, make_grid, restrict_path
from .stochastic import increment_batches
from .systems import SystemModel
from .table import write_table

__all__ = [
    "EnsembleStats",
    "ConvergenceReport",
    "BoundedCheck",
    "accumulate_stats",
    "ensemble_run",
    "ito_isometry_check",
    "convergence_order",
    "bounded_attractor_check",
    "write_stats_csv",
]


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


def accumulate_stats(grid: TimeGrid, states_seq) -> EnsembleStats:
    """Reduce an ordered sequence of state arrays to ensemble statistics.

    Welford accumulation in sequence order: deterministic, single-pass, and
    the second-moment accumulator is non-negative term by term, so variance
    can never round below zero.
    """
    mean = None
    m2 = None
    l2 = None
    count = 0
    for states in states_seq:
        count += 1
        if mean is None:
            mean = np.array(states, dtype=float)
            m2 = np.zeros_like(mean)
            l2 = np.sum(states**2, axis=0)
            continue
        delta = states - mean
        mean += delta / count
        m2 += delta * (states - mean)
        l2 += np.sum(states**2, axis=0)
    if count == 0:
        raise ValueError("accumulate_stats needs at least one trajectory")
    return EnsembleStats(
        grid=grid,
        mean=mean,
        variance=m2 / count,
        l2sq=l2 / count,
        num_paths=count,
    )


def ensemble_run(model: SystemModel, cfg: SolverConfig, master_seed: int, M: int,
                 workers: int = 1) -> EnsembleStats:
    """Solve M independent paths and reduce them to EnsembleStats.

    Paths run in the batches of :func:`increment_batches`, each reduced in
    path-index order as soon as it is solved, so memory is bounded by one
    batch and the results are the same for any batch size.  ``workers``
    (>= 0) is accepted for compatibility and has no effect.
    """
    problems = [] if M >= 1 else [f"M must be >= 1, got {M}"]
    if workers < 0:
        problems.append(f"workers must be >= 0, got {workers}")
    checks.require(problems)

    def states():
        for start, dW in increment_batches(master_seed, M, cfg.grid, model.noise_dim):
            try:
                batch = solve_batch(model, cfg, dW)
            except DivergenceError as exc:
                raise exc.in_batch(start) from None
            yield from batch

    return accumulate_stats(cfg.grid, states())


def ito_isometry_check(alpha: float, grid: TimeGrid, M: int,
                       master_seed: int = 0) -> float:
    """Empirical check of E|int v dW|**2 = int E|v|**2 ds for the scheme's
    kernel v(s) = (T - s)**(alpha - 1).

    Left-point Monte Carlo estimate over paths 0..M-1 of master_seed, drawn
    in the batches of :func:`increment_batches` (path i from the stream of
    SeedSpec(master_seed, i, 0)), against the closed form
    T**(2*alpha-1) / (2*alpha-1); returns the relative error.
    """
    checks.require(checks.alpha_rule(alpha, "noise integrals"))
    if M < 1000:
        raise ValueError(f"ito_isometry_check needs M >= 1000, got {M}")
    T = grid.T
    t = grid.nodes()[:-1]
    v = (T - t)**(alpha - 1.0)
    mc = sum(float(np.sum((dW[:, 0] @ v)**2))
             for _, dW in increment_batches(master_seed, M, grid, 1)) / M
    exact = T**(2.0 * alpha - 1.0) / (2.0 * alpha - 1.0)
    return abs(mc - exact) / exact


@dataclass
class ConvergenceReport:
    h: np.ndarray        # step sizes, coarse to fine, that carry an error
    errors: np.ndarray   # discrete sup-norm errors per step size
    order: float         # least-squares slope of log error vs log h
    degenerate: bool     # all errors vanished; no rate can be fitted


def convergence_order(model: SystemModel, cfg: SolverConfig, levels: int,
                      master_seed: int | None = None, reference=None) -> ConvergenceReport:
    """Empirical convergence rate of cfg's run over ``levels`` dyadic grids.

    Level i runs cfg on the grid of cfg.grid.T with step cfg.grid.h / 2**i;
    levels must be at least 3, and the finest grid is checked before any
    solve.  With a ``reference`` callable (t -> exact state) errors are
    measured against it on every grid; otherwise the finest run is the
    reference and errors are measured for the coarser grids at their
    (nested) nodes.  A stochastic cfg needs ``master_seed``: one fine path,
    path 0 of that seed, is drawn and restricted to each coarse grid by
    summing increments, so the measurement sees discretization error, not
    noise resampling.
    """
    if levels < 3:
        raise checks.ConfigError(f"need at least 3 grid levels; got {max(levels, 0)}")
    T, h = cfg.grid.T, cfg.grid.h
    checks.require(checks.grid_rule(T, math.ldexp(h, 1 - levels)))
    if cfg.stochastic and master_seed is None:
        raise ValueError("stochastic convergence measurement needs a master_seed")

    grids = [make_grid(T, math.ldexp(h, -i)) for i in range(levels)]
    fine_path = None
    if cfg.stochastic:
        fine_path = generate_path(SeedSpec(master_seed, 0, 0), grids[-1], model.noise_dim)
    runs = [solve(model, replace(cfg, grid=grid),
                  None if fine_path is None else restrict_path(fine_path, grid)).states
            for grid in grids]

    if reference is None:
        # the finest run is the reference at the nodes each coarser grid shares
        fine, fine_steps = runs.pop(), grids.pop().num_steps
        targets = [fine[:, ::fine_steps // grid.num_steps] for grid in grids]
    else:
        targets = [np.stack([np.asarray(reference(t), dtype=float) for t in grid.nodes()],
                            axis=1) for grid in grids]
    errors = np.array([float(np.max(np.abs(run - target)))
                       for run, target in zip(runs, targets)])
    h = np.array([grid.h for grid in grids])
    degenerate = bool(np.all(errors < 1e-300))
    order = float("nan") if degenerate else float(np.polyfit(np.log(h), np.log(errors), 1)[0])
    return ConvergenceReport(h=h, errors=errors, order=order, degenerate=degenerate)


@dataclass
class BoundedCheck:
    passed: bool
    max_abs: float
    radius: float


def bounded_attractor_check(traj: Trajectory, radius: float) -> BoundedCheck:
    """Did the trajectory stay inside the sup-norm ball of the given radius?

    A cheap qualitative stand-in for eyeballing phase portraits: chaotic but
    bounded dynamics must pass, escapes must fail.
    """
    max_abs = float(np.max(np.abs(traj.states)))
    return BoundedCheck(passed=bool(max_abs <= radius), max_abs=max_abs, radius=radius)


def write_stats_csv(stats: EnsembleStats, stream, metadata: dict | None = None) -> None:
    """Rows t, mean_1..d, var_1..d, l2sq in the shared table format."""
    d = stats.mean.shape[0]
    header = (["t"] + [f"mean_{i + 1}" for i in range(d)]
              + [f"var_{i + 1}" for i in range(d)] + ["l2sq"])
    write_table(stream, metadata or {}, header,
                [stats.grid.nodes(), *stats.mean, *stats.variance, stats.l2sq])
