import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfode.checks import ConfigError
from sfode.weights import WeightMode, WeightTable, corrector_weights, predictor_weights

alphas = st.floats(min_value=0.05, max_value=1.0)
steps = st.integers(min_value=0, max_value=60)


class TestCorrectorWeights:
    @given(alphas)
    def test_first_step(self, alpha):
        # hand evaluation at n=0: a[0] = 0**(a+1) - (0-a)*1**a = a
        a = corrector_weights(0, alpha)
        np.testing.assert_allclose(a, [alpha, 1.0], atol=1e-15)

    def test_trapezoid_pattern_at_alpha_one(self):
        np.testing.assert_allclose(corrector_weights(2, 1.0), [1, 2, 2, 1], atol=1e-12)
        for n in (1, 5, 17):
            a = corrector_weights(n, 1.0)
            expected = np.full(n + 2, 2.0)
            expected[0] = expected[-1] = 1.0
            np.testing.assert_allclose(a, expected, atol=1e-12)

    @given(steps, alphas)
    def test_last_weight_is_one(self, n, alpha):
        assert corrector_weights(n, alpha)[-1] == 1.0

    @given(steps, st.floats(min_value=0.05, max_value=1.0))
    def test_positive_in_standard_mode(self, n, alpha):
        assert np.all(corrector_weights(n, alpha) > 0)

    def test_literal_mode_kills_interior_weight(self):
        # the discriminating regression between the two sign conventions:
        # at (n=2, j=1, alpha=1) the literal variant gives 0, standard gives 2
        assert corrector_weights(2, 1.0, WeightMode.LITERAL)[1] == pytest.approx(0.0, abs=1e-12)
        assert corrector_weights(2, 1.0, WeightMode.STANDARD)[1] == pytest.approx(2.0, abs=1e-12)

    def test_modes_share_edge_weights(self):
        a_std = corrector_weights(4, 0.7, WeightMode.STANDARD)
        a_lit = corrector_weights(4, 0.7, WeightMode.LITERAL)
        assert a_std[0] == a_lit[0]
        assert a_std[-1] == a_lit[-1]
        assert not np.array_equal(a_std, a_lit)


class TestPredictorWeights:
    @given(steps, st.floats(min_value=1e-4, max_value=1.0))
    def test_alpha_one_gives_h(self, n, h):
        np.testing.assert_allclose(predictor_weights(n, 1.0, h), h, rtol=1e-12)

    @given(steps, alphas, st.floats(min_value=1e-4, max_value=1.0))
    def test_newest_weight(self, n, alpha, h):
        b = predictor_weights(n, alpha, h)
        assert b[n] == pytest.approx(h**alpha / alpha, rel=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(predictor_weights(0, 0.5, 0.01), [0.2], rtol=1e-14)

    @given(steps, alphas, st.floats(min_value=1e-4, max_value=1.0))
    def test_positive(self, n, alpha, h):
        assert np.all(predictor_weights(n, alpha, h) > 0)

    @given(steps, alphas, st.floats(min_value=1e-4, max_value=1.0))
    def test_telescoping_sum(self, n, alpha, h):
        total = predictor_weights(n, alpha, h).sum()
        expected = h**alpha * (n + 1) ** alpha / alpha
        assert total == pytest.approx(expected, rel=1e-10)


class TestWeightTable:
    @pytest.mark.parametrize("mode", list(WeightMode))
    def test_matches_single_step_functions(self, mode):
        steps, alpha, h = 40, 0.73, 0.02
        table = WeightTable(steps, alpha, h, mode)
        for weights in (table.b, table.a, table.a0):
            assert weights.shape == (steps,)
        for n in range(steps):
            a = np.concatenate((table.a0[n:n + 1], table.a[:n][::-1], [1.0]))
            np.testing.assert_array_equal(a, corrector_weights(n, alpha, mode))
            np.testing.assert_array_equal(table.b[n::-1], predictor_weights(n, alpha, h))

    # alpha down to 1e-300 (below that h**alpha / alpha overflows); the
    # corrector sum's rounding error grows like n**2 * eps, so n <= 200
    @given(st.integers(0, 200), st.floats(1e-300, 1.0), st.floats(1e-4, 1.0))
    def test_weight_sum_identities(self, n, alpha, h):
        b_sum = h**alpha * (n + 1) ** alpha / alpha
        assert math.fsum(predictor_weights(n, alpha, h)) == pytest.approx(b_sum, rel=1e-12)
        a_sum = (alpha + 1.0) * (n + 1) ** alpha
        assert math.fsum(corrector_weights(n, alpha)) == pytest.approx(a_sum, rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            corrector_weights(-1, 0.5)
        with pytest.raises(ValueError):
            predictor_weights(-1, 0.5, 0.1)

    def test_counts_are_config_errors_that_name_the_callers_count(self):
        with pytest.raises(ConfigError, match=r"^n must be >= 0; got -1$"):
            corrector_weights(-1, 0.5)
        with pytest.raises(ConfigError, match=r"^num_steps must be an integer; got 2\.0$"):
            WeightTable(2.0, 0.8, 0.1)

    def test_unknown_mode_is_a_config_error(self):
        message = r"^mode must be one of standard, literal; got 'bogus'$"
        with pytest.raises(ConfigError, match=message):
            WeightTable(3, 0.8, 0.1, "bogus")
        with pytest.raises(ConfigError, match=message):
            corrector_weights(2, 0.5, "bogus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightTable(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            WeightTable(10, 1.5, 0.1)
        with pytest.raises(ValueError):
            WeightTable(10, 0.5, 0.0)


def step_weights(table, n):
    """Step n's (b[0..n], a[0], a[1..n]) as slices of the lag arrays."""
    return table.b[n::-1], table.a0[n], table.a[:n][::-1]


class TestWeightViews:
    """Per-step weights are read-only slices of the three lag arrays; no
    read changes what a later read sees."""

    @pytest.mark.parametrize("mode", list(WeightMode))
    @pytest.mark.parametrize("alpha", [0.55, 0.93, 1.0])
    def test_views_match_fresh_weights_in_any_order(self, mode, alpha):
        steps, h = 30, 0.01
        table = WeightTable(steps, alpha, h, mode)
        order = list(range(steps)) + list(range(steps - 1, -1, -1)) + [3, 17, 4, 29, 0, 28]
        for n in order:
            b, a0, a = step_weights(table, n)
            fresh_a = corrector_weights(n, alpha, mode)
            np.testing.assert_array_equal(b, predictor_weights(n, alpha, h))
            assert a0 == fresh_a[0]
            np.testing.assert_array_equal(a, fresh_a[1:n + 1])

    def test_views_are_read_only_and_share_the_table(self):
        steps = 12
        table = WeightTable(steps, 0.8, 0.05)
        for weights in (table.b, table.a, table.a0):
            assert not weights.flags.writeable
            assert weights.flags.c_contiguous
            with pytest.raises(ValueError):
                weights[0] = 0.0
        for n in (1, steps - 1):
            b, _, a = step_weights(table, n)
            for view, whole in ((b, table.b), (a, table.a)):
                assert not view.flags.writeable
                assert not view.flags.owndata
                assert np.shares_memory(view, whole)
                with pytest.raises(ValueError):
                    view[0] = 0.0

    @pytest.mark.parametrize("mode", list(WeightMode))
    def test_lag_kernels_match_fresh_weights(self, mode):
        # b[j] = b(n - j) for every j, a[j] = a(n - j) for j >= 1, a[0] = a0[n]
        steps, alpha, h = 20, 0.83, 0.05
        table = WeightTable(steps, alpha, h, mode)
        b, a, a0 = table.b, table.a, table.a0
        for m in range(steps):
            fresh_a = corrector_weights(m, alpha, mode)
            np.testing.assert_array_equal(b[m::-1], predictor_weights(m, alpha, h))
            np.testing.assert_array_equal(a[m - 1::-1] if m else a[:0], fresh_a[1:m + 1])
            assert a0[m] == fresh_a[0]
