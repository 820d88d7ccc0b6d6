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

    Precomputes the integer power tables m**alpha and m**(alpha+1) once and
    lays the weights out reversed, so each per-step weight vector is an O(1)
    view into the table instead of an O(n) batch of fractional powers or an
    O(n) copy.  The total work for an N-step run stays O(N**2) in the history
    sums; no short-memory truncation is applied.

    Views are read-only and share memory with the table.  A predictor view
    stays valid for the life of the table.  All corrector views share one
    buffer whose a[0] slot each :meth:`corrector` call rewrites, so a
    corrector view stays valid only until the next :meth:`corrector` call on
    the same table.
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

        N = num_steps
        m = np.arange(N + 2, dtype=float)
        pow_a = m**alpha
        p = m**(alpha + 1.0)
        if self.mode is WeightMode.STANDARD:
            interior = p[2:] + p[:-2] - 2.0 * p[1:-1]
        else:
            interior = p[2:] - p[:-2] - 2.0 * p[1:-1]
        # a[0] of step n, for n = 0..N-1
        self._a0 = p[:N] - (m[:N] - self.alpha) * pow_a[1:N + 1]
        # step n reads a[0..n+1] from _c_rev[N-1-n:]: its a[0] slot, then
        # interior[n-1..0] and 1; corrector() restores the slot it wrote last
        self._c_rev = np.empty(N + 1)
        self._c_rev[:N] = interior[N - 1::-1]
        self._c_rev[N] = 1.0
        self._slot = 0
        self._saved = self._c_rev[0]
        self._c_view = self._c_rev.view()
        self._c_view.flags.writeable = False
        # step n reads b[0..n] from _b_rev[N-1-n:], with b[j] = scale * b_diff[n-j]
        b_diff = pow_a[1:] - pow_a[:-1]   # (m+1)**a - m**a
        self._b_rev = (h**alpha / alpha) * b_diff[N - 1::-1]
        self._b_rev.flags.writeable = False

    def corrector(self, n: int) -> np.ndarray:
        """Weights a[0..n+1] for the correction of step n -> n+1."""
        if not 0 <= n <= self.num_steps - 1:
            raise ValueError(f"step index n={n} outside table range")
        start = self.num_steps - 1 - n
        c = self._c_rev
        c[self._slot] = self._saved
        self._slot, self._saved = start, c[start]
        c[start] = self._a0[n]
        return self._c_view[start:]

    def predictor(self, n: int) -> np.ndarray:
        """Weights b[0..n] for the prediction of step n -> n+1."""
        if not 0 <= n <= self.num_steps - 1:
            raise ValueError(f"step index n={n} outside table range")
        return self._b_rev[self.num_steps - 1 - n:]


def corrector_weights(n: int, alpha: float,
                      mode: WeightMode = WeightMode.STANDARD) -> np.ndarray:
    """Corrector weights a[0..n+1] for a single step: a read-only array built fresh in O(n)."""
    return WeightTable(n + 1, alpha, 1.0, mode).corrector(n)


def predictor_weights(n: int, alpha: float, h: float) -> np.ndarray:
    """Predictor weights b[0..n] for a single step: a read-only array built fresh in O(n)."""
    return WeightTable(n + 1, alpha, h).predictor(n)
