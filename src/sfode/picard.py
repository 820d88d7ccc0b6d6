"""Fixed-point (Picard) iteration on the singular Volterra integral form.

An independent cross-check of the time stepper: starting from the constant
function y_0(t) = y0, each sweep maps the previous iterate through

    y_{k+1}(t) = y0 + (1/G(a)) int_0^t (t-s)**(a-1) f(s, y_k(s)) ds
                     + (1/G(a)) int_0^t (t-s)**(a-1) sigma(s, y_k(s)) dW(s)

discretized node by node.  The drift integral uses product-rectangle
quadrature (the kernel integrated exactly against a piecewise-constant
integrand, which absorbs the (t-s)**(a-1) singularity); the noise integral
uses left-point evaluation because the Ito integral mandates non-anticipating
integrands.  The mean-square gaps between successive iterates should shrink
toward zero; :func:`cauchy_diagnostic` measures exactly that over a Monte
Carlo batch of paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .solver import DEFAULT_BLOWUP, DivergenceError, Trajectory
from .stochastic import SeedSpec, TimeGrid, WienerPath, generate_path
from .systems import SystemModel
from .table import write_table

__all__ = [
    "PicardSequence",
    "CauchyReport",
    "picard_iterate",
    "cauchy_diagnostic",
    "write_distance_csv",
]


@dataclass
class PicardSequence:
    """Iterates y_0..y_K on one shared grid and one shared Wiener path."""

    grid: TimeGrid
    iterates: list  # list[Trajectory], length K + 1

    def terminal_gaps(self) -> np.ndarray:
        """Squared terminal gaps |y_{k+1}(T) - y_k(T)|**2, k = 0..K-1."""
        ends = [it.terminal() for it in self.iterates]
        return np.array([
            float(np.sum((ends[k + 1] - ends[k])**2)) for k in range(len(ends) - 1)
        ])

    def sup_gaps(self) -> np.ndarray:
        """Squared gaps maximized over the whole grid instead of at T."""
        return np.array([
            float(np.max(np.sum(
                (self.iterates[k + 1].states - self.iterates[k].states)**2, axis=0
            )))
            for k in range(len(self.iterates) - 1)
        ])

    def terminal_sq_norms(self) -> np.ndarray:
        """|y_k(T)|**2 for every iterate (boundedness diagnostic)."""
        return np.array([float(np.sum(it.terminal()**2)) for it in self.iterates])


class _SweepKernels:
    """Quadrature tables shared by every sweep on one (grid, alpha) pair.

    On the uniform grid t_n - t_j = (n-j)h, so the drift weights and the noise
    kernel at node n are reversed slices of single power tables: the
    fractional powers cost O(N) in total, not O(N) per node.
    """

    def __init__(self, grid: TimeGrid, alpha: float):
        inv_gamma = 1.0 / math.gamma(alpha)
        m = np.arange(grid.num_nodes) * grid.h
        p = m**alpha
        self.drift_w = (p[1:] - p[:-1]) * (inv_gamma / alpha)  # index n-j-1
        with np.errstate(divide="ignore"):
            self.noise_k = m**(alpha - 1.0) * inv_gamma        # index n-j

    def drift_weights(self, n: int) -> np.ndarray:
        return self.drift_w[:n][::-1]

    def noise_kernel(self, n: int) -> np.ndarray:
        return self.noise_k[1:n + 1][::-1]


def _sweep(model: SystemModel, kernels: _SweepKernels, t: np.ndarray,
           states: np.ndarray, path: WienerPath | None) -> np.ndarray:
    """One Picard sweep over all nodes.

    f and sigma are evaluated once per node of the incoming iterate instead of
    once per (node, history) pair, which drops a sweep from O(N^2) to O(N)
    right-hand-side evaluations.
    """
    dim, nodes = states.shape
    f_vals = np.empty((dim, nodes))
    for j in range(nodes):
        f_vals[:, j] = model.drift(t[j], states[:, j])
    noise = None
    if path is not None:
        noise = np.empty((dim, nodes - 1))
        for j in range(nodes - 1):
            sigma = np.asarray(model.diffusion(t[j], states[:, j]), dtype=float)
            noise[:, j] = sigma @ path.increments[:, j]
    y0 = np.asarray(model.y0, dtype=float)
    out = np.empty_like(states)
    out[:, 0] = y0
    for n in range(1, nodes):
        val = y0 + f_vals[:, :n] @ kernels.drift_weights(n)
        if noise is not None:
            val = val + noise[:, :n] @ kernels.noise_kernel(n)
        out[:, n] = val
    return out


def picard_iterate(model: SystemModel, alpha: float, grid: TimeGrid,
                   path: WienerPath | None, K: int,
                   blowup: float = DEFAULT_BLOWUP) -> PicardSequence:
    """Run K Picard sweeps; iterate 0 is the constant initial state.

    A None path switches the noise convolution off (deterministic check).
    """
    problems = checks.alpha_rule(alpha, "Picard sweeps")
    if K < 1:
        problems.append(f"K must be >= 1; got {K}")
    checks.require(problems)
    if path is not None and path.grid != grid:
        raise ValueError("path grid does not match iteration grid")

    nodes = grid.num_nodes
    t = grid.nodes()
    y0 = np.asarray(model.y0, dtype=float)
    first = Trajectory(
        grid=grid,
        states=np.tile(y0[:, None], (1, nodes)),
        meta={"picard_iterate": 0},
    )
    iterates = [first]
    kernels = _SweepKernels(grid, alpha)
    for k in range(1, K + 1):
        states = _sweep(model, kernels, t, iterates[-1].states, path)
        if not np.all(np.isfinite(states)) or np.max(np.abs(states)) > blowup:
            raise DivergenceError(f"Picard iterate {k} exceeded blow-up bound", step=k)
        iterates.append(Trajectory(grid=grid, states=states, meta={"picard_iterate": k}))
    return PicardSequence(grid=grid, iterates=iterates)


@dataclass
class CauchyReport:
    """Mean-square gaps d_k = E|y_{k+1}(T) - y_k(T)|**2 for k = 1..K-1."""

    distances: np.ndarray   # d_1..d_{K-1}
    converged: bool         # d_{K-1} < 0.01 * d_1
    num_paths: int
    sup_mode: bool
    max_terminal_l2: float  # max_k E|y_k(T)|**2, boundedness diagnostic

    @property
    def ratio(self) -> float:
        return float(self.distances[-1] / self.distances[0]) if self.distances[0] > 0 else 0.0


def cauchy_diagnostic(model: SystemModel, alpha: float, grid: TimeGrid,
                      master_seed: int, M: int, K: int,
                      sup_mode: bool = False) -> CauchyReport:
    """Monte Carlo contraction check of the Picard sweeps over M paths.

    Path i uses the stream SeedSpec(master_seed, i, 0), so the report is
    deterministic given the master seed.  By default gaps are measured at the
    terminal node (the cheap proxy); sup_mode maximizes them over the grid.
    """
    problems = checks.alpha_rule(alpha, "Picard sweeps")
    if M < 100:
        problems.append(f"the Picard diagnostic needs paths >= 100; got {M}")
    if K < 2:
        problems.append(f"the Picard diagnostic needs iterations >= 2; got {K}")
    checks.require(problems)
    gap_sum = np.zeros(K)
    l2_sum = np.zeros(K + 1)
    for i in range(M):
        path = generate_path(SeedSpec(master_seed, i, 0), grid, model.noise_dim)
        seq = picard_iterate(model, alpha, grid, path, K)
        gap_sum += seq.sup_gaps() if sup_mode else seq.terminal_gaps()
        l2_sum += seq.terminal_sq_norms()
    gaps = gap_sum / M
    distances = gaps[1:]  # d_1..d_{K-1}
    converged = bool(distances[-1] < 0.01 * distances[0]) if distances[0] > 0 else True
    return CauchyReport(
        distances=distances,
        converged=converged,
        num_paths=M,
        sup_mode=sup_mode,
        max_terminal_l2=float(np.max(l2_sum / M)),
    )


def write_distance_csv(report: CauchyReport, stream, metadata: dict | None = None) -> None:
    """Distance table: one row (k, d_k) per measured gap."""
    ks = range(1, len(report.distances) + 1)
    write_table(stream, metadata or {}, ["k", "d_k"], [ks, report.distances])
