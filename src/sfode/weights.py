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
mode.  :class:`WeightTable` stores these two kernels by lag and the
corrector's a[0], the one weight that is not a function of the lag, by step.
"""

import enum

import numpy as np

from . import checks

__all__ = ["WeightMode", "WeightTable", "corrector_weights", "predictor_weights", "table_rule"]


class WeightMode(str, enum.Enum):
    STANDARD = "standard"
    LITERAL = "literal"


def table_rule(alpha: float, h: float, mode, last: int) -> list:
    """The domain of a weight table: alpha, h and mode by the rules of
    :class:`WeightTable`, and an integer last step index in [0, MAX_STEPS),
    so no table outgrows the longest grid."""
    rules = WeightTable.__rules__
    problems = rules["alpha"]("alpha", alpha) + rules["h"]("h", h) + rules["mode"]("mode", mode)
    if not 0 <= last < checks.MAX_STEPS:
        problems.append(f"step index must be in [0, {checks.MAX_STEPS}); got {last}")
    return problems


@checks.ruled(num_steps=checks.count_rule(1), alpha=checks.alpha_rule(),
              h=checks.positive_rule, mode=checks.choice_rule(WeightMode))
class WeightTable:
    """Per-run weights as three read-only arrays, built once.

    For k, n = 0..num_steps-1:

    * ``b[k]``: the predictor weight at lag k, so step n reads b[n-j] for
      node j = 0..n;
    * ``a[k]``: the interior corrector weight at lag k, so step n reads
      a[n-j] for node j = 1..n;
    * ``a0[n]``: the corrector weight of node 0 at step n.

    The two lag kernels are the rows of one C-contiguous (2, num_steps)
    array, ``lags`` = (b, a), which the stepper's lag sums read in place.
    The corrector weight a[n+1] = 1 of the new node is not stored.  The
    integer power tables m**alpha and m**(alpha+1) are computed once, so no
    fractional power is taken per step.  No short-memory truncation is
    applied.
    """

    def __init__(self, num_steps: int, alpha: float, h: float,
                 mode: WeightMode = WeightMode.STANDARD):
        checks.require(table_rule(alpha, h, mode, num_steps - 1))
        self.alpha = float(alpha)
        self.h = float(h)
        self.mode = WeightMode(mode)

        N = num_steps
        m = np.arange(N + 2, dtype=float)
        pow_a = m**alpha
        p = m**(alpha + 1.0)
        self.lags = np.empty((2, N))
        self.b, self.a = self.lags
        self.b[:] = (h**alpha / alpha) * (pow_a[1:N + 1] - pow_a[:N])
        if self.mode is WeightMode.STANDARD:
            self.a[:] = p[2:] + p[:-2] - 2.0 * p[1:-1]
        else:
            self.a[:] = p[2:] - p[:-2] - 2.0 * p[1:-1]
        self.a0 = p[:N] - (m[:N] - self.alpha) * pow_a[1:N + 1]
        for table in (self.lags, self.b, self.a, self.a0):
            table.flags.writeable = False


@checks.ruled(n=checks.count_rule(0), alpha=checks.alpha_rule(),
              mode=checks.choice_rule(WeightMode))
def corrector_weights(n: int, alpha: float,
                      mode: WeightMode = WeightMode.STANDARD) -> np.ndarray:
    """Corrector weights a[0..n+1] for a single step, built fresh in O(n)."""
    table = WeightTable(n + 1, alpha, 1.0, mode)
    return np.concatenate((table.a0[n:], table.a[:n][::-1], [1.0]))


@checks.ruled(n=checks.count_rule(0), alpha=checks.alpha_rule(), h=checks.positive_rule)
def predictor_weights(n: int, alpha: float, h: float) -> np.ndarray:
    """Predictor weights b[0..n] for a single step, built fresh in O(n)."""
    return WeightTable(n + 1, alpha, h).b[::-1].copy()
