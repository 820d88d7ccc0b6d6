import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfode.checks import ConfigError
from sfode.special import ConvergenceError, gamma, mittag_leffler

# Independent high-precision references (mpmath, 30 digits).
GAMMA_REFERENCE = {
    0.5: 1.7724538509055160273,
    1.0: 1.0,
    1.5: 0.88622692545275801365,
    1.8: 0.9313837709802427107,
    2.5: 1.3293403881791370205,
    5.0: 24.0,
    10.0: 362880.0,
}


class TestGamma:
    def test_factorial_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0

    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    @pytest.mark.parametrize("x,ref", sorted(GAMMA_REFERENCE.items()))
    def test_against_high_precision_reference(self, x, ref):
        assert gamma(x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, -10.0])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    @pytest.mark.parametrize("x", [171.6243769563027, 5.56268464626801e-309])
    def test_finite_at_the_ends_of_its_float_range(self, x):
        assert math.isfinite(gamma(x))

    @pytest.mark.parametrize("x", [171.62437695630274, 172.0, 1e308, 10**400,
                                   5.5626846462679e-309, 1e-320, Fraction(1, 10**400)],
                             ids=lambda x: repr(x)[:24])
    def test_overflow_is_a_config_error(self, x):
        message = f"gamma(x) overflows a float at x={x!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            gamma(x)

    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_functional_equation(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-9)


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
        assert mittag_leffler(1.0, -2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_value_at_zero_is_exactly_one(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    @pytest.mark.parametrize("z", [-0.25, -1.0, -2.5, -5.0, 0.5, 2.0])
    def test_half_order_closed_form(self, z):
        # E_{1/2}(z) = exp(z**2) * erfc(-z), evaluated through the stdlib erfc
        expected = math.exp(z * z) * math.erfc(-z)
        assert mittag_leffler(0.5, z) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("z", [-0.25, -0.75, -1.5, -2.0])
    def test_partial_sums_bracket_result(self, alpha, z):
        # For z < 0 the series alternates; once |terms| decrease monotonically
        # the partial sums must straddle the returned value.
        result = mittag_leffler(alpha, z)
        terms = [z**k / gamma(alpha * k + 1.0) for k in range(80)]
        start = next(
            k for k in range(1, 79)
            if all(abs(terms[i + 1]) < abs(terms[i]) for i in range(k, 60))
        )
        partial = sum(terms[: start + 1])
        below, above = False, False
        for k in range(start + 1, 60):
            partial += terms[k]
            if partial <= result:
                below = True
            if partial >= result:
                above = True
        assert below and above

    @pytest.mark.parametrize("alpha,z", [(0.8, np.float32(0.3)), (np.float16(0.5), -1.0),
                                         (Fraction(4, 5), Fraction(-3, 2)), (1, np.int64(-2)),
                                         (np.float64(0.9), np.uint8(2))])
    def test_takes_what_real_rule_takes(self, alpha, z):
        # numpy scalars and fractions are real numbers: evaluated as their float
        assert mittag_leffler(alpha, z) == mittag_leffler(float(alpha), float(z))

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                mittag_leffler(alpha, 1.0)

    def test_rejects_large_z(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.8, 5.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.8, -7.0)

    def test_convergence_failure_for_tiny_alpha(self):
        # at alpha = 0.05 the terms for z = 5 keep growing for ~1e15 terms,
        # so the truncation criterion can never be met
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.05, 5.0)
