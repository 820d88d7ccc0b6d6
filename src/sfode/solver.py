"""Fractional Adams predictor-corrector (PECE) time stepping.

One step of the scheme for C-D^alpha y = f(t, y) + sigma(t, y) dW/dt,
alpha in (0, 1], on the uniform grid t_j = j*h:

    predict   y_p = y0 + (1/G(a)) * sum_j b_j f(t_j, y_j)
                       + (1/(G(a) h)) * sum_j b_j sigma(t_j, y_j) dW_{J(j)}
    correct   y_{n+1} = y0
                + (h**a / G(a+2)) * [f(t_{n+1}, y_p) + sum_j a_j f(t_j, y_j)]
                + (h**(a-1) / G(a+2)) * [sigma(t_{n+1}, y_p) dW_n
                                         + sum_j a_j sigma(t_j, y_j) dW_{J(j)}]

with G = Gamma, the weights of :mod:`sfode.weights`, and sums over
j = 0..n.  The noise-history map J selects which Wiener increment multiplies
history term j:

* ``per_step`` (default): J(j) = j.  This is the term-by-term discretization
  of the singular Volterra noise integral and the only variant that satisfies
  its variance law.
* ``last_increment``: J(j) = n, i.e. the newest increment multiplies the
  whole history sum, as the scheme is sometimes stated.  Kept as a comparison
  mode; it fails the variance law by design.

The corrector's own sigma(t_{n+1}, y_p) dW_n term is the current step's
increment in both modes.  Exactly one correction is applied per step.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .stochastic import TimeGrid, WienerPath
from .systems import SystemModel
from .table import write_table
from .weights import WeightMode, WeightTable

__all__ = [
    "NoiseHistory",
    "SolverConfig",
    "Trajectory",
    "DivergenceError",
    "solve",
    "write_trajectory_csv",
]

DEFAULT_BLOWUP = 1e6


class NoiseHistory(str, enum.Enum):
    PER_STEP = "per_step"
    LAST_INCREMENT = "last_increment"


class DivergenceError(RuntimeError):
    """A state left the admissible region (blow-up bound or non-finite value)."""

    def __init__(self, message, step=None, time=None, path_index=None):
        # everything lives in args so the exception survives pickling intact
        super().__init__(message, step, time, path_index)
        self.step = step
        self.time = time
        self.path_index = path_index

    def __str__(self):
        return self.args[0]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one solve.

    Stochastic runs require alpha > 1/2 (square-integrability of the singular
    noise kernel); deterministic runs accept any alpha in (0, 1].
    """

    alpha: float
    grid: TimeGrid
    stochastic: bool = False
    noise_history: NoiseHistory = NoiseHistory.PER_STEP
    weight_mode: WeightMode = WeightMode.STANDARD
    blowup: float = DEFAULT_BLOWUP

    def __post_init__(self):
        checks.require(checks.alpha_rule(
            self.alpha, "stochastic runs (nonzero noise)" if self.stochastic else None
        ))
        if not self.blowup > 0:
            raise ValueError(f"blowup bound must be > 0, got {self.blowup!r}")
        object.__setattr__(self, "noise_history", NoiseHistory(self.noise_history))
        object.__setattr__(self, "weight_mode", WeightMode(self.weight_mode))


@dataclass
class Trajectory:
    """Node values of one solve: states[:, j] is the state at t_j."""

    grid: TimeGrid
    states: np.ndarray  # shape (dim, num_nodes)
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def terminal(self) -> np.ndarray:
        return self.states[:, -1]


class _Stepper:
    """Stepping kernel with incremental drift/noise history caches.

    :meth:`push` records node n; :meth:`predict` and :meth:`correct` then
    take step n -> n+1 from the records of nodes 0..n.
    """

    def __init__(self, model: SystemModel, cfg: SolverConfig, path: WienerPath | None):
        self.model = model
        self.cfg = cfg
        grid = cfg.grid
        self.t = grid.nodes()
        self.h = grid.h
        self.y0 = np.asarray(model.y0, dtype=float)
        steps = grid.num_steps
        self.table = WeightTable(steps, cfg.alpha, grid.h, cfg.weight_mode)
        self.inv_gamma_a = 1.0 / math.gamma(cfg.alpha)
        self.corr_drift = self.h**cfg.alpha / math.gamma(cfg.alpha + 2.0)
        self.drift_hist = np.empty((model.dim, steps + 1))
        if cfg.stochastic:
            # alpha > 1/2 here keeps h**(alpha - 1) finite for every float h
            self.corr_noise = self.h ** (cfg.alpha - 1.0) / math.gamma(cfg.alpha + 2.0)
            if path is None:
                raise ValueError("stochastic solve requires a WienerPath")
            if path.grid != grid:
                raise ValueError("path grid does not match solver grid")
            if path.num_channels != model.noise_dim:
                raise ValueError(
                    f"path has {path.num_channels} channels, model needs {model.noise_dim}"
                )
            self.dW = path.increments
            if cfg.noise_history is NoiseHistory.PER_STEP:
                # row j caches sigma(t_j, y_j) @ dW_j
                self.noise_hist = np.empty((model.dim, steps))
                self.sigma_hist = None
            else:
                self.noise_hist = None
                self.sigma_hist = np.empty((steps, model.dim, model.noise_dim))
        else:
            self.dW = None

    def _eval_drift(self, n: int, y: np.ndarray) -> np.ndarray:
        f = np.asarray(self.model.drift(self.t[n], y), dtype=float)
        if not np.all(np.isfinite(f)):
            raise DivergenceError(
                f"non-finite drift at step {n} (t={self.t[n]:g})",
                step=n, time=float(self.t[n]),
            )
        return f

    def _eval_diffusion(self, n: int, y: np.ndarray) -> np.ndarray:
        s = np.asarray(self.model.diffusion(self.t[n], y), dtype=float)
        if s.shape != (self.model.dim, self.model.noise_dim):
            raise ValueError(
                f"diffusion must return shape {(self.model.dim, self.model.noise_dim)}, "
                f"got {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise DivergenceError(
                f"non-finite diffusion at step {n} (t={self.t[n]:g})",
                step=n, time=float(self.t[n]),
            )
        return s

    def push(self, n: int, y: np.ndarray) -> None:
        """Cache f (and the noise record) at node n with state y."""
        self.drift_hist[:, n] = self._eval_drift(n, y)
        if self.cfg.stochastic and n < self.cfg.grid.num_steps:
            sigma = self._eval_diffusion(n, y)
            if self.cfg.noise_history is NoiseHistory.PER_STEP:
                self.noise_hist[:, n] = sigma @ self.dW[:, n]
            else:
                self.sigma_hist[n] = sigma

    def predict(self, n: int) -> np.ndarray:
        b = self.table.predictor(n)
        yp = self.y0 + self.inv_gamma_a * (self.drift_hist[:, :n + 1] @ b)
        if self.cfg.stochastic:
            if self.cfg.noise_history is NoiseHistory.PER_STEP:
                noise = self.noise_hist[:, :n + 1] @ b
            else:
                sig_sum = np.tensordot(b, self.sigma_hist[:n + 1], axes=(0, 0))
                noise = sig_sum @ self.dW[:, n]
            yp = yp + (self.inv_gamma_a / self.h) * noise
        return yp

    def correct(self, n: int, predicted: np.ndarray) -> np.ndarray:
        a = self.table.corrector(n)[:n + 1]
        f_new = self._eval_drift(n + 1, predicted)
        y = self.y0 + self.corr_drift * (f_new + self.drift_hist[:, :n + 1] @ a)
        if self.cfg.stochastic:
            sigma_new = self._eval_diffusion(n + 1, predicted)
            if self.cfg.noise_history is NoiseHistory.PER_STEP:
                hist = self.noise_hist[:, :n + 1] @ a
            else:
                hist = np.tensordot(a, self.sigma_hist[:n + 1], axes=(0, 0)) @ self.dW[:, n]
            y = y + self.corr_noise * (sigma_new @ self.dW[:, n] + hist)
        return y


def solve(model: SystemModel, cfg: SolverConfig,
          path: WienerPath | None = None) -> Trajectory:
    """Integrate the system over cfg.grid and return the full trajectory.

    Deterministic given (model, cfg, path).  In deterministic mode
    (cfg.stochastic False) a supplied path is ignored, so the output cannot
    depend on it.  Raises :class:`DivergenceError` the moment any state
    component exceeds cfg.blowup or turns non-finite, rather than emitting
    NaN rows.
    """
    grid = cfg.grid
    stepper = _Stepper(model, cfg, path if cfg.stochastic else None)
    states = np.empty((model.dim, grid.num_nodes))
    states[:, 0] = stepper.y0
    stepper.push(0, stepper.y0)
    for n in range(grid.num_steps):
        y_next = stepper.correct(n, stepper.predict(n))
        if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > cfg.blowup:
            raise DivergenceError(
                f"state exceeded blow-up bound {cfg.blowup:g} at step {n + 1} "
                f"(t={grid.nodes()[n + 1]:g})",
                step=n + 1, time=float(grid.nodes()[n + 1]),
            )
        states[:, n + 1] = y_next
        stepper.push(n + 1, y_next)

    seed = path.seed if (cfg.stochastic and path is not None) else None
    meta = {
        "system": model.name,
        "alpha": cfg.alpha,
        "h": grid.h,
        "T": grid.T,
        "num_steps": grid.num_steps,
        "stochastic": cfg.stochastic,
        "noise_history": cfg.noise_history.value,
        "weight_mode": cfg.weight_mode.value,
        "seed": None if seed is None else (seed.master_seed, seed.path_index, seed.channel_index),
    }
    meta.update(sorted(model.params.items()))
    return Trajectory(grid=grid, states=states, meta=meta)


def write_trajectory_csv(traj: Trajectory, stream, metadata: dict | None = None) -> None:
    """Write t, y1..yd rows in the shared table format.

    Metadata is merged over the trajectory's own.
    """
    header = ["t"] + [f"y{i + 1}" for i in range(traj.dim)]
    write_table(stream, {**traj.meta, **(metadata or {})}, header,
                [traj.grid.nodes(), *traj.states])
