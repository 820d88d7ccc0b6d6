"""Quadrature weights for the fractional Adams predictor-corrector step.

Corrector weights (step n -> n+1, order alpha):

    a[0]   = n**(alpha+1) - (n - alpha) * (n+1)**alpha
    a[j]   = (n-j+2)**(alpha+1) + (n-j)**(alpha+1) - 2*(n-j+1)**(alpha+1),
             1 <= j <= n                                   (standard mode)
    a[n+1] = 1

Predictor weights:

    b[j] = (h**alpha / alpha) * ((n+1-j)**alpha - (n-j)**alpha),  0 <= j <= n

At alpha = 1 the corrector weights collapse to the composite-trapezoid
pattern [1, 2, ..., 2, 1] and every b[j] equals h.

The "literal" corrector variant subtracts the (n-j)**(alpha+1) term instead
of adding it, as the scheme is sometimes stated.  That sign breaks the
trapezoid limit (interior weights become 0 instead of 2 at alpha = 1), so
standard is the default; the variant is kept behind a flag for comparison.
"""

import enum

import numpy as np

from . import checks

__all__ = ["WeightMode", "WeightTable", "corrector_weights", "predictor_weights"]


class WeightMode(str, enum.Enum):
    STANDARD = "standard"
    LITERAL = "literal"


class WeightTable:
    """Per-run weight provider.

    Precomputes the integer power tables m**alpha and m**(alpha+1) once, so
    each per-step weight vector is an O(n) slice instead of an O(n) batch of
    fractional powers.  The total work for an N-step run stays O(N**2) in the
    history sums; no short-memory truncation is applied.
    """

    def __init__(self, num_steps: int, alpha: float, h: float,
                 mode: WeightMode = WeightMode.STANDARD):
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        checks.require(checks.alpha_rule(alpha) + checks.finite_rule(h=h)
                       + checks.positive_rule(h=h))
        self.num_steps = num_steps
        self.alpha = float(alpha)
        self.h = float(h)
        self.mode = WeightMode(mode)

        m = np.arange(num_steps + 2, dtype=float)
        self._pow_a = m**alpha            # m**alpha
        self._pow_a1 = m**(alpha + 1.0)   # m**(alpha+1)
        p = self._pow_a1
        if self.mode is WeightMode.STANDARD:
            self._interior = p[2:] + p[:-2] - 2.0 * p[1:-1]
        else:
            self._interior = p[2:] - p[:-2] - 2.0 * p[1:-1]
        self._b_scale = h**alpha / alpha
        self._b_diff = self._pow_a[1:] - self._pow_a[:-1]  # (m+1)**a - m**a

    def corrector(self, n: int) -> np.ndarray:
        """Weights a[0..n+1] for the correction of step n -> n+1."""
        if not 0 <= n <= self.num_steps - 1:
            raise ValueError(f"step index n={n} outside table range")
        a = np.empty(n + 2)
        a[0] = self._pow_a1[n] - (n - self.alpha) * self._pow_a[n + 1]
        if n >= 1:
            # a[j] = interior[n-j] for j = 1..n
            a[1:n + 1] = self._interior[:n][::-1]
        a[n + 1] = 1.0
        return a

    def predictor(self, n: int) -> np.ndarray:
        """Weights b[0..n] for the prediction of step n -> n+1."""
        if not 0 <= n <= self.num_steps - 1:
            raise ValueError(f"step index n={n} outside table range")
        # b[j] = scale * b_diff[n-j] for j = 0..n
        return self._b_scale * self._b_diff[:n + 1][::-1]


def corrector_weights(n: int, alpha: float,
                      mode: WeightMode = WeightMode.STANDARD) -> np.ndarray:
    """Corrector weights a[0..n+1] for a single step, built fresh in O(n)."""
    return WeightTable(n + 1, alpha, 1.0, mode).corrector(n)


def predictor_weights(n: int, alpha: float, h: float) -> np.ndarray:
    """Predictor weights b[0..n] for a single step, built fresh in O(n)."""
    return WeightTable(n + 1, alpha, h).predictor(n)
