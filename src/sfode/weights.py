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

Away from j = 0 both weights depend only on the lag k = n - j: b[j] is
b(k) = (h**alpha / alpha) * ((k+1)**alpha - k**alpha) and the interior a[j]
is a(k) = (k+2)**(alpha+1) + k**(alpha+1) - 2*(k+1)**(alpha+1) in standard
mode.  :meth:`WeightTable.lag_kernels` exposes these kernels for the
solver's FFT far field; the corrector's a[0] is the one weight that is not a
function of the lag.
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
    O(n) copy.  No short-memory truncation is applied.

    Views are read-only and share memory with the table.  A predictor view
    stays valid for the life of the table.  All corrector views share one
    buffer whose a[0] slot each :meth:`corrector` call rewrites, so a
    corrector view stays valid only until the next :meth:`corrector` or
    :meth:`lag_kernels` call on the same table.
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
        self._a0.flags.writeable = False
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

    def lag_kernels(self) -> tuple:
        """(b, a, a0): the predictor weights b(k) and the interior corrector
        weights a(k) by lag k = n - j, k = 0..N-1, and the corrector's a[0]
        by step n = 0..N-1.

        Read-only reversed views of the tables, not copies.  The corrector
        kernel shares the corrector buffer, so this call restores its a[0]
        slot and the kernel stays valid until the next :meth:`corrector` call.
        """
        self._c_rev[self._slot] = self._saved
        return self._b_rev[::-1], self._c_view[self.num_steps - 1::-1], self._a0

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
