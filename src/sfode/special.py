"""Gamma and Mittag-Leffler evaluations.

Every quadrature weight in the time stepper carries a 1/Gamma factor, and the
one-parameter Mittag-Leffler function supplies the exact solution of the
linear relaxation benchmark (the fractional analogue of exp), so both live
here behind small, strictly validated wrappers.
"""

import math

from . import checks

__all__ = ["ConvergenceError", "gamma", "mittag_leffler"]

#: Largest |z| accepted by :func:`mittag_leffler`.  Term-by-term Taylor
#: summation needs roughly |z|**(1/alpha) terms before the factorial growth of
#: the denominators takes over; within this radius the 5000-term cap is ample
#: for alpha >= 0.25, and all solver diagnostics stay well inside it.
ML_MAX_ABS_Z = 5.0

_ML_MAX_TERMS = 5000


class ConvergenceError(RuntimeError):
    """A series evaluation failed to meet its truncation criterion."""


def gamma(x: float) -> float:
    """Gamma function for strictly positive real arguments.

    Delegates to the platform ``tgamma`` via :func:`math.gamma`, which is a
    standard rational approximation accurate to a few ulp (far below the
    1e-10 relative error this library relies on over (0, 30]).  Non-positive
    arguments are rejected outright: the solver only ever evaluates Gamma at
    alpha, alpha + 2 and similar positive combinations, and the poles at
    non-positive integers would otherwise fail intermittently.  Gamma(x)
    overflows a float for x past about 171.62 and below about 5.6e-309;
    those x are rejected too.
    """
    checks.require(checks.real_rule(x=x)
                   or ([] if x > 0 else [f"gamma requires x > 0, got x={x!r}"]))
    try:
        return math.gamma(x)
    except (OverflowError, ValueError):  # ValueError: an x > 0 that rounds to 0.0
        raise checks.ConfigError(f"gamma(x) overflows a float at x={x!r}") from None


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) for alpha in (0, 1].

    Evaluated by direct Taylor summation, sum_k z**k / Gamma(alpha*k + 1),
    carried out in 40-digit arithmetic so that the heavy cancellation of the
    alternating series for z < 0 (individual terms reach ~1e10 near |z| = 5
    for small alpha) still leaves an absolute error below 1e-9 in the
    returned double.  Summation stops once the terms are past their peak and
    have dropped under 1e-30 relative to the running sum.

    Only |z| <= ML_MAX_ABS_Z is accepted; large-|z| asymptotics are out of
    scope for this library.
    """
    z_rule = checks.real_rule(z=z) or (
        [] if abs(z) <= ML_MAX_ABS_Z
        else [f"mittag_leffler supports |z| <= {ML_MAX_ABS_Z}, got z={z!r}"])
    checks.require(checks.alpha_rule(alpha) + z_rule)
    if z == 0.0:
        return 1.0

    import mpmath  # here, not with the package: it costs every process ~4 MB

    # private context: the global mpmath precision stays untouched, so
    # concurrent callers cannot race on it
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    zz = ctx.mpf(float(z))  # mpmath takes no numpy scalar or Fraction
    aa = ctx.mpf(float(alpha))
    total = ctx.mpf(1)  # k = 0 term
    prev = ctx.mpf(1)
    floor = ctx.mpf(10) ** -30
    for k in range(1, _ML_MAX_TERMS):
        term = zz**k / ctx.gamma(aa * k + 1)
        total += term
        if abs(term) < abs(prev) and abs(term) < floor * max(1, abs(total)):
            return float(total)
        prev = term

    raise ConvergenceError(
        f"Mittag-Leffler series did not settle within {_ML_MAX_TERMS} terms "
        f"(alpha={alpha!r}, z={z!r}); alpha is too small for this |z|"
    )
