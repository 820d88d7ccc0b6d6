"""Drift/diffusion models: the two 3-D benchmark systems and a linear test problem.

Every model carries diagonal noise: component i is driven by Wiener channel i
alone, with intensity sigma_i(y) = mu * y_i (Newton-Leipnik), mu * y_i**2
(Lorenz) or the constant sigma0 (linear test problem).  The quadratic
drifts of the two benchmark systems also admit an exact bilinear-matrix
decomposition, which doubles as an independent check of the componentwise
right-hand sides and feeds the growth-bound constants below.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import checks

__all__ = [
    "SystemModel",
    "NewtonLeipnikParams",
    "LorenzParams",
    "newton_leipnik",
    "lorenz",
    "linear_test",
    "matrix_form_check",
    "lipschitz_bound",
    "newton_leipnik_matrices",
    "lorenz_matrices",
]

#: Noise intensity used when a caller does not specify one.
DEFAULT_MU = 0.1


@dataclass(frozen=True)
class SystemModel:
    """A d-dimensional system dy_i = f_i(t, y) dt + sigma_i(t, y) dW_i.

    ``drift(t, y)`` and ``diffusion(t, y)`` (the diagonal noise intensities)
    take the state as a list of d component rows and return d rows, as a
    list, a tuple or an array whose first axis is the component; the
    solvers reach them through :meth:`call`.  A row is a Python float for
    one path, which rounds like numpy's float64 at a fraction of the cost
    of an array operation, and an array with the paths last for a batch
    (the stepper's (B,) for B paths, or a Picard sweep's every path at
    every node).  So the callables index rows: ``[-lam * y[0]]``, not
    ``-lam * y``.  The time t is a float, shared by every column (the
    stepper), or an array shaped as the rows, one time per column, which
    the callable broadcasts like a row (a Picard sweep).  So t must enter
    through elementwise numpy code: ``math.sin(t)`` or ``if t > ...`` fail
    on an array.  The built-in models ignore t.  Instances are immutable
    and their callables pure, so a model can be shared freely across
    solves.

    Inside the solvers a model runs with numpy's overflow and invalid-value
    warnings suppressed; a non-finite result is reported as a divergence
    instead.  The stepper checks a block of steps at its end, so within a
    block a model may be evaluated on states past a divergence before that
    block is replayed step by step.  That is one more reason its callables
    must be pure: a side effect would see those extra calls.
    """

    name: str
    dim: int
    drift: Callable[[float, list], Sequence]
    diffusion: Callable[[float, list], Sequence]
    y0: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        checks.require((checks.integer_rule(1, dim=self.dim)
                        or checks.array_rule("y0", self.y0, (self.dim,)))
                       + checks.callable_rule(drift=self.drift, diffusion=self.diffusion))
        y0 = np.array(self.y0, dtype=float)  # private copy, frozen below
        y0.flags.writeable = False
        object.__setattr__(self, "y0", y0)

    @property
    def noise_dim(self) -> int:
        """Number of Wiener channels: one per component."""
        return self.dim

    def call(self, kind: str, t: float | np.ndarray, y: list) -> Sequence:
        """drift or diffusion (kind) at (t, y), y the state's component rows:
        the d rows the callable returns, shaped as y's rows in a batch (else
        ValueError).  The one check of every model call, the stepper's and
        the Picard sweeps'.  A row of one path is used as a number, and
        only the stepper's checked steps check that it is one.
        """
        out = getattr(self, kind)(t, y)
        try:
            rows = len(out)
        except TypeError:  # a scalar, or a 0-d array
            rows = f"a {type(out).__name__}"
        if rows != self.dim:
            raise ValueError(f"{self.name} {kind} must return {self.dim} component rows; "
                             f"got {rows}")
        if not isinstance(y[0], float):  # a batch
            self.check_rows(kind, out, np.shape(y[0]))
        return out

    def check_rows(self, kind: str, out: Sequence, shape: tuple) -> None:
        """ValueError unless every row of the kind rows out is shaped shape:
        :meth:`call` checks a batch's rows, and the stepper's checked steps
        check one path's, whose shape is ()."""
        for row in out:
            if np.shape(row) != shape:
                raise ValueError(f"{self.name} {kind} returned a row of shape "
                                 f"{np.shape(row)} for state rows {shape}")


@dataclass(frozen=True)
class NewtonLeipnikParams:
    beta: float = 0.4
    rho: float = 0.175
    mu: float = DEFAULT_MU

    def __post_init__(self):
        checks.require(checks.finite_rule(beta=self.beta, rho=self.rho, mu=self.mu)
                       + checks.positive_rule(beta=self.beta))
        if not 0.0 <= self.rho <= 8.0:
            warnings.warn(
                f"rho={self.rho} is outside the usual range [0, 8]",
                stacklevel=3,
            )


@dataclass(frozen=True)
class LorenzParams:
    a: float = 10.0       # Prandtl number
    b: float = 8.0 / 3.0  # region size
    c: float = 28.0       # Rayleigh number
    mu: float = DEFAULT_MU

    def __post_init__(self):
        checks.require(checks.finite_rule(a=self.a, b=self.b, c=self.c, mu=self.mu))


_NL_Y0 = (0.19, 0.0, -0.18)
_LORENZ_Y0 = (0.1, 0.1, 0.1)


def newton_leipnik(params: NewtonLeipnikParams | None = None,
                   y0=None) -> SystemModel:
    """Newton-Leipnik rigid-body system with diagonal noise mu * y."""
    checks.require([] if params is None else
                   checks.type_rule("params", params, NewtonLeipnikParams))
    p = params or NewtonLeipnikParams()
    beta, rho, mu = p.beta, p.rho, p.mu
    start = _NL_Y0 if y0 is None else y0

    def drift(t, y):
        x1, x2, x3 = y
        return [
            -beta * x1 + x2 + 10.0 * x2 * x3,
            -x1 - 0.4 * x2 + 5.0 * x1 * x3,
            rho * x3 - 5.0 * x1 * x2,
        ]

    def diffusion(t, y):
        return [mu * x for x in y]

    return SystemModel(
        name="newton_leipnik",
        dim=3,
        drift=drift,
        diffusion=diffusion,
        y0=start,
        params={"beta": beta, "rho": rho, "mu": mu},
    )


def lorenz(params: LorenzParams | None = None, y0=None) -> SystemModel:
    """Lorenz convection system with diagonal noise mu * y**2."""
    checks.require([] if params is None else checks.type_rule("params", params, LorenzParams))
    p = params or LorenzParams()
    a, b, c, mu = p.a, p.b, p.c, p.mu
    start = _LORENZ_Y0 if y0 is None else y0

    def drift(t, y):
        x1, x2, x3 = y
        return [
            a * (x2 - x1),
            c * x1 - x2 - x1 * x3,
            x1 * x2 - b * x3,
        ]

    def diffusion(t, y):
        return [mu * x * x for x in y]

    return SystemModel(
        name="lorenz",
        dim=3,
        drift=drift,
        diffusion=diffusion,
        y0=start,
        params={"a": a, "b": b, "c": c, "mu": mu},
    )


def linear_test(lam: float = 1.0, sigma0: float = 0.0, y0: float = 1.0) -> SystemModel:
    """Scalar test problem dy = -lam * y dt + sigma0 dW.

    With sigma0 = 0 its exact solution is the Mittag-Leffler relaxation
    E_alpha(-lam * t**alpha) * y0; with lam = 0 it is a pure additive-noise
    integrator with a closed-form variance.  Both closed forms make it the
    workhorse oracle problem.
    """
    checks.require(checks.finite_rule(lam=lam, sigma0=sigma0))

    def drift(t, y):
        return [-lam * y[0]]

    def diffusion(t, y):  # a row shaped as y's: a float for one path
        x = y[0]
        return [sigma0 if isinstance(x, float) else np.full(x.shape, sigma0)]

    return SystemModel(
        name="linear_test",
        dim=1,
        drift=drift,
        diffusion=diffusion,
        y0=[y0],
        params={"lam": float(lam), "sigma0": float(sigma0)},
    )


def newton_leipnik_matrices(params: dict):
    """Bilinear decomposition (A, B, C) of the Newton-Leipnik drift:
    F(x) = A x + x_2 (B x) + x_3 (C x)."""
    beta, rho = params["beta"], params["rho"]
    A = np.array([
        [-beta, 1.0, 0.0],
        [-1.0, -0.4, 0.0],
        [0.0, 0.0, rho],
    ])
    # Third-row entry is -5 so x2 * (B @ x) reproduces the -5*x1*x2 coupling.
    B = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [-5.0, 0.0, 0.0],
    ])
    C = np.array([
        [0.0, 10.0, 0.0],
        [5.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    return A, B, C


def lorenz_matrices(params: dict):
    """Bilinear decomposition (A, B) of the Lorenz drift: F(x) = A x + x_1 (B x)."""
    a, b, c = params["a"], params["b"], params["c"]
    A = np.array([
        [-a, a, 0.0],
        [c, -1.0, 0.0],
        [0.0, 0.0, -b],
    ])
    B = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
    ])
    return A, B


def matrix_form_check(model: SystemModel, y) -> float:
    """Max-norm gap between the componentwise drift and its matrix form.

    The bilinear decomposition (A @ y plus state-scaled quadratic couplings)
    is an independent restatement of the right-hand side; for the two
    built-in systems the gap must vanish to rounding (<= 1e-12).  A state
    so large that the drift overflows has an infinite or NaN gap.
    """
    checks.require(checks.type_rule("model", model, SystemModel))
    checks.require(([] if model.name in ("newton_leipnik", "lorenz")
                    else [f"no matrix decomposition for system {model.name!r}"])
                   or checks.array_rule("y", y, (model.dim,)))
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if model.name == "newton_leipnik":
            A, B, C = newton_leipnik_matrices(model.params)
            matrix_drift = A @ y + y[1] * (B @ y) + y[2] * (C @ y)
        else:
            A, B = lorenz_matrices(model.params)
            matrix_drift = A @ y + y[0] * (B @ y)
        return float(np.max(np.abs(np.asarray(model.drift(0.0, y)) - matrix_drift)))


def lipschitz_bound(model: SystemModel, delta: float) -> float:
    """Quadratic-growth constant of the drift/diffusion pair on a ball of
    radius delta around the initial state.

    Uses the Frobenius norm throughout (the norm choice is free; Frobenius is
    deterministic and easy to verify by hand).  The bound is a diagnostic
    only; the solver never consumes it.
    """
    checks.require(checks.type_rule("model", model, SystemModel))
    checks.require((checks.finite_rule(delta=delta)
                    or ([] if delta >= 0 else [f"delta must be >= 0, got {delta}"]))
                   + ([] if model.name in ("newton_leipnik", "lorenz")
                      else [f"no growth bound for system {model.name!r}"]))
    mu = model.params["mu"]
    x0_sq = float(np.sum(np.asarray(model.y0, dtype=float) ** 2))
    if model.name == "newton_leipnik":
        A, B, C = newton_leipnik_matrices(model.params)
        a2 = float(np.sum(A * A))
        b2 = float(np.sum(B * B))
        c2 = float(np.sum(C * C))
        return a2 + (b2 + c2) * (2.0 * x0_sq + delta) + 3.0 * mu
    A, B = lorenz_matrices(model.params)
    a2 = float(np.sum(A * A))
    b2 = float(np.sum(B * B))
    return a2 + (b2 + 3.0 * mu) * (2.0 * x0_sq + delta)
