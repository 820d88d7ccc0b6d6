"""Fixed-point (Picard) iteration on the singular Volterra integral form.

An independent cross-check of the time stepper: starting from the constant
function y_0(t) = y0, each sweep maps the previous iterate through

    y_{k+1}(t) = y0 + (1/G(a)) int_0^t (t-s)**(a-1) f(s, y_k(s)) ds
                     + (1/G(a)) int_0^t (t-s)**(a-1) sigma(s, y_k(s)) dW(s)

discretized on the grid nodes.  The drift integral uses product-rectangle
quadrature (the kernel integrated exactly against a piecewise-constant
integrand, which absorbs the (t-s)**(a-1) singularity); the noise integral
uses left-point evaluation because the Ito integral mandates non-anticipating
integrands.  On the uniform grid both are causal lag-kernel sums over the
left nodes, which a sweep takes for all nodes at once on the stepper's own
schedule (:func:`sfode.solver._lag_sums`): a triangular lag-matrix product
per direct block of BLOCK nodes, plus the squares of the older nodes.  The
mean-square gaps between successive iterates should shrink toward zero;
:func:`cauchy_diagnostic` measures exactly that over a Monte Carlo ensemble
of paths, swept in batches through :func:`sfode.analysis.path_rows`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .analysis import path_rows
from .solver import BLOWUP, DivergenceError, _LagKernel, _lag_sums
from .stochastic import TimeGrid, WienerPath
from .systems import SystemModel
from .table import write_table

__all__ = [
    "PicardSequence",
    "CauchyReport",
    "picard_iterate",
    "cauchy_diagnostic",
    "diagnostic_rule",
    "write_distance_csv",
]


@dataclass
class PicardSequence:
    """Iterates y_0..y_K on one shared grid and one shared Wiener path:
    states[k], shaped (d, nodes), is iterate k."""

    grid: TimeGrid
    states: np.ndarray  # (K + 1, d, nodes)

    def terminal_gaps(self) -> np.ndarray:
        """Squared terminal gaps |y_{k+1}(T) - y_k(T)|**2, k = 0..K-1, by :func:`_gaps`."""
        return _gaps(self.states[:-1], self.states[1:], sup_mode=False)


def _gaps(prev: np.ndarray, states: np.ndarray, sup_mode: bool) -> np.ndarray:
    """|y_{k+1} - y_k|**2 per path of iterates prev = y_k and states = y_{k+1},
    shaped batch + (d, nodes): at T, or maximized over the grid in sup_mode."""
    if sup_mode:
        return np.max(np.sum((states - prev)**2, axis=-2), axis=-1)
    return np.sum((states[..., -1] - prev[..., -1])**2, axis=-1)


def _kernels(t: np.ndarray, alpha: float) -> tuple:
    """The drift weights and the noise kernel of every sweep on the node
    times t, by lag, each in a :class:`~sfode.solver._LagKernel` for
    :func:`_lag_sums` over the N = len(t) - 1 left nodes.

    On the uniform grid t_n - t_j = t_{n-j}, so node n weights node j < n by
    the lag n - 1 - j alone: the fractional powers cost O(N) in total.  A
    kernel builds its lag matrices at first use, so once per call of
    :func:`_iterates`, not once per sweep.
    """
    inv_gamma = 1.0 / math.gamma(alpha)
    p = t**alpha
    drift_w = (p[1:] - p[:-1]) * (inv_gamma / alpha)  # index n-j-1
    noise_k = t[1:]**(alpha - 1.0) * inv_gamma        # index n-j-1
    return _LagKernel(drift_w), _LagKernel(noise_k)


def _sweep(model: SystemModel, kernels: tuple, t: np.ndarray,
           states: np.ndarray, dW: np.ndarray | None) -> np.ndarray:
    """One Picard sweep of iterates shaped batch + (d, nodes); dW is batch + (d, nodes - 1).

    The sums read only the left nodes 0..N-1, so one call of each callable
    (no sigma without noise) records f and sigma at all of them for every
    path: :meth:`SystemModel.call` gets the rows of the (d, B*N) left-node
    states, column b*N + j holding path b at node j, and the array of their
    node times t_j, and its rows are stacked once.  The callables are
    elementwise in the columns they see, so each record rounds as a call at
    that node alone would.  Node n + 1 is
    then y0 plus the drift and noise lag sums (:func:`_lag_sums`) at n, one
    call each for the whole batch.
    """
    nodes = states.shape[-1]
    batch, d = states.shape[:-2], states.shape[-2]
    drift_k, noise_k = kernels
    y = np.moveaxis(states[..., :-1], -2, 0).reshape(d, -1)
    t_left = np.tile(t[:-1], math.prod(batch))

    def record(kind):
        rows = np.asarray(model.call(kind, t_left, list(y)), dtype=float)
        return np.moveaxis(rows.reshape((d,) + batch + (nodes - 1,)), 0, -2)

    # C order keeps each record row contiguous for the BLAS products and FFTs
    f_vals = np.ascontiguousarray(record("drift"))
    noise = None if dW is None else np.multiply(record("diffusion"), dW, order="C")
    out = np.empty(states.shape)
    out[..., 0] = model.y0
    sums = _lag_sums(f_vals, drift_k, out[..., 1:])
    if noise is not None:
        sums += _lag_sums(noise, noise_k, f_vals)  # the drift records are spent
    sums += model.y0[:, None]
    return out


def _iterates(model: SystemModel, alpha: float, grid: TimeGrid, dW: np.ndarray | None,
              K: int):
    """Yield iterates 0..K (0 is the constant y0) of the batch of paths of dW,
    as in :func:`_sweep`; a DivergenceError names the path's index in the batch."""
    batch = () if dW is None else dW.shape[:-2]
    states = np.tile(model.y0[:, None], batch + (1, grid.num_nodes))
    yield states
    t = grid.nodes()
    kernels = _kernels(t, alpha)
    for k in range(1, K + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sweep fails below
            states = _sweep(model, kernels, t, states, dW)
        ok = (np.abs(states) <= BLOWUP).all(axis=(-2, -1))  # False for non-finite too
        if not ok.all():
            raise DivergenceError(f"Picard iterate {k} exceeded blow-up bound", step=k,
                                  path_index=None if ok.ndim == 0 else int(np.argmin(ok)))
        yield states


def picard_iterate(model: SystemModel, alpha: float, grid: TimeGrid,
                   path: WienerPath | None, K: int) -> PicardSequence:
    """Run K Picard sweeps on one path; iterate 0 is the constant initial state.

    A None path switches the noise convolution off (deterministic check).
    """
    checks.require(checks.type_rule("model", model, SystemModel)
                   + checks.alpha_rule(alpha, "Picard sweeps")
                   + checks.type_rule("grid", grid, TimeGrid) + checks.integer_rule(1, K=K)
                   + ([] if path is None else checks.type_rule("path", path, WienerPath)))
    if path is not None:
        checks.require(([] if path.grid == grid else ["path grid does not match iteration grid"])
                       + ([] if path.num_channels == model.noise_dim else
                          [f"path has {path.num_channels} channels, model needs "
                           f"{model.noise_dim}"]))
    dW = None if path is None else path.increments
    return PicardSequence(grid=grid, states=np.stack(list(_iterates(model, alpha, grid, dW, K))))


@dataclass
class CauchyReport:
    """Mean-square gaps d_k = E|y_{k+1}(T) - y_k(T)|**2 for k = 1..K-1."""

    distances: np.ndarray   # d_1..d_{K-1}
    converged: bool         # d_{K-1} < 0.01 * d_1
    max_terminal_l2: float  # max_k E|y_k(T)|**2, boundedness diagnostic

    @property
    def ratio(self) -> float:
        return float(self.distances[-1] / self.distances[0]) if self.distances[0] > 0 else 0.0


def diagnostic_rule(alpha: float, M: int, K: int, grid: TimeGrid | None) -> list:
    """The domain of :func:`cauchy_diagnostic`: alpha > 1/2, integer counts
    M >= 100 paths and 2 <= K <= N sweeps on a grid of N steps.  Node n of a
    sweep reads only nodes before it, exactly at every N (:func:`_lag_sums`),
    so sweep N is the discrete fixed point and every later gap is exactly 0.
    A None grid (one that fails its own rule), or one that is no TimeGrid,
    skips K <= N.
    """
    problems = checks.alpha_rule(alpha, "Picard sweeps")
    if grid is not None:
        problems += checks.type_rule("grid", grid, TimeGrid)
    if counts := checks.integer_rule(paths=M, iterations=K):
        return problems + counts
    if M < 100:
        problems.append(f"the Picard diagnostic needs paths >= 100; got {M}")
    if K < 2:
        problems.append(f"the Picard diagnostic needs iterations >= 2; got {K}")
    elif isinstance(grid, TimeGrid) and K > grid.num_steps:
        problems.append(f"the Picard diagnostic needs iterations <= T/h = {grid.num_steps}; "
                        f"got {K}")
    return problems


def cauchy_diagnostic(model: SystemModel, alpha: float, grid: TimeGrid,
                      master_seed: int, M: int, K: int,
                      sup_mode: bool = False) -> CauchyReport:
    """Monte Carlo contraction check of K Picard sweeps over M paths (:func:`diagnostic_rule`).

    Path i uses the stream SeedSpec(master_seed, i, 0).  Paths are swept in
    batches through :func:`sfode.analysis.path_rows`, which hands on one row
    per path, its K gaps (:func:`_gaps`) and its K + 1 terminal |y_k(T)|**2,
    and the rows are added in path-index order, so the report is
    deterministic given the master seed, whatever the batch size.  By default
    gaps are measured at the terminal node (the cheap proxy); sup_mode
    maximizes them over the grid.
    """
    checks.require(checks.type_rule("model", model, SystemModel)
                   + checks.type_rule("grid", grid, TimeGrid)
                   + checks.bool_rule(sup_mode=sup_mode))
    checks.require(diagnostic_rule(alpha, M, K, grid))

    def rows(dW):
        gaps, l2, prev = [], [], None
        for states in _iterates(model, alpha, grid, dW, K):
            l2.append(np.sum(states[..., -1]**2, axis=-1))
            if prev is not None:
                gaps.append(_gaps(prev, states, sup_mode))
            prev = states
        return np.stack(gaps + l2, axis=-1)

    means = sum(path_rows(master_seed, M, grid, model.noise_dim, rows), np.zeros(2 * K + 1)) / M
    distances = means[1:K]  # d_1..d_{K-1}
    converged = bool(distances[-1] < 0.01 * distances[0]) if distances[0] > 0 else True
    return CauchyReport(
        distances=distances,
        converged=converged,
        max_terminal_l2=float(np.max(means[K:])),
    )


def write_distance_csv(report: CauchyReport, stream, metadata: dict | None = None) -> None:
    """Distance table: one row (k, d_k) per measured gap."""
    checks.require(checks.type_rule("report", report, CauchyReport))
    ks = range(1, len(report.distances) + 1)
    write_table(stream, metadata or {}, ["k", "d_k"], [ks, report.distances])
