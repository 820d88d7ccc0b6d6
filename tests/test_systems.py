import dataclasses
import itertools

import numpy as np
import pytest

from sfode.checks import ConfigError
from sfode.systems import (
    LorenzParams,
    NewtonLeipnikParams,
    SystemModel,
    linear_test,
    lipschitz_bound,
    lorenz,
    lorenz_matrices,
    matrix_form_check,
    newton_leipnik,
    newton_leipnik_matrices,
)


class TestNewtonLeipnik:
    def test_drift_vanishes_at_origin(self):
        model = newton_leipnik()
        np.testing.assert_array_equal(model.drift(0.0, np.zeros(3)), np.zeros(3))

    def test_drift_hand_value_at_start(self):
        model = newton_leipnik(NewtonLeipnikParams(beta=0.4, rho=0.175))
        np.testing.assert_allclose(
            model.drift(0.0, model.y0), [-0.076, -0.361, -0.0315], rtol=1e-12
        )

    def test_default_initial_state(self):
        np.testing.assert_array_equal(newton_leipnik().y0, [0.19, 0.0, -0.18])

    def test_rho_warning_outside_usual_range(self):
        with pytest.warns(UserWarning):
            NewtonLeipnikParams(rho=9.0)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            NewtonLeipnikParams(beta=0.0)


class TestLorenz:
    def test_drift_vanishes_at_origin(self):
        model = lorenz()
        np.testing.assert_array_equal(model.drift(0.0, np.zeros(3)), np.zeros(3))

    def test_drift_hand_value(self):
        model = lorenz(LorenzParams(a=10.0, b=8.0 / 3.0, c=28.0))
        np.testing.assert_allclose(
            model.drift(0.0, np.array([0.1, 0.1, 0.1])),
            [0.0, 2.69, -0.77 / 3.0],
            rtol=1e-12, atol=1e-15,
        )

    def test_default_parameters(self):
        p = LorenzParams()
        assert (p.a, p.b, p.c) == (10.0, 8.0 / 3.0, 28.0)
        np.testing.assert_array_equal(lorenz().y0, [0.1, 0.1, 0.1])


class TestDiffusionStructure:
    @pytest.mark.parametrize("factory", [newton_leipnik, lorenz])
    def test_diagonal_and_state_local(self, factory):
        # diffusion returns the diagonal intensities, one per component
        model = factory()
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.uniform(-1.5, 1.5, size=3).tolist()
            sigma = model.diffusion(0.0, y)
            assert len(sigma) == 3
            # entry i must depend on y_i only
            z = list(y)
            z[(0 + 1) % 3] += 0.7
            assert model.diffusion(0.0, z)[0] == sigma[0]

    @pytest.mark.parametrize("factory", [newton_leipnik, lorenz, linear_test])
    def test_batch_columns_match_single_paths(self, factory):
        # the model takes B paths as (B,) rows; call hands it the solvers'
        # rows as they are, and each path is as alone
        model = factory()
        ys = np.random.default_rng(3).uniform(-1.5, 1.5, size=(model.dim, 4))
        for kind in ("drift", "diffusion"):
            batch = np.array(model.call(kind, 0.5, list(ys)))
            assert batch.shape == ys.shape
            np.testing.assert_array_equal(batch, getattr(model, kind)(0.5, list(ys)))
            for b in range(4):
                np.testing.assert_array_equal(batch[:, b], model.call(kind, 0.5, ys[:, b].tolist()))

    @pytest.mark.parametrize("factory", [newton_leipnik, lorenz])
    def test_one_path_drift_is_its_batch_column_bit_for_bit(self, factory):
        # one path runs on Python floats, a batch on row arrays: every column
        # of the drift and the diffusion must round the same, signed zeros,
        # infinities and overflow included
        for kind in ("drift", "diffusion"):
            self.assert_one_path_is_its_batch_column(getattr(factory(), kind))

    @staticmethod
    def assert_one_path_is_its_batch_column(fn):
        rng = np.random.default_rng(12)
        magnitude = 10.0 ** rng.uniform(-5.0, 200.0, size=(3, 500))
        random = np.where(rng.random((3, 500)) < 0.5, -magnitude, magnitude)
        special = [np.inf, -np.inf, np.nan, 1e308, -0.0, 1.5]
        edges = np.array(list(itertools.product(special, repeat=3))).T
        states = np.concatenate([random, edges], axis=1)
        with np.errstate(all="ignore"):
            batch = np.array(fn(0.0, list(states)))
            for i in range(states.shape[1]):
                row = fn(0.0, states[:, i].tolist())
                assert all(type(x) is float for x in row)
                one, column = np.array(row), batch[:, i]
                assert one.shape == (3,)
                nan = np.isnan(column)
                np.testing.assert_array_equal(np.isnan(one), nan)
                np.testing.assert_array_equal(one[~nan].view(np.uint64),
                                              column[~nan].view(np.uint64))
        assert np.isnan(batch).any() and np.isinf(batch).any()

    def test_result_of_wrong_shape_rejected(self):
        model = newton_leipnik()
        flat = dataclasses.replace(model, diffusion=lambda t, y: np.full(3, 0.1))
        flat.call("diffusion", 0.0, [0.0] * 3)  # one path: fine
        message = r"^newton_leipnik diffusion returned a row of shape \(\) for state rows \(2,\)$"
        with pytest.raises(ValueError, match=message):
            flat.call("diffusion", 0.0, list(np.zeros((3, 2))))


class TestSystemModel:
    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        # an ensemble of a system with no components would size its batches by 0
        with pytest.raises(ValueError, match="dim must be >= 1"):
            SystemModel(name="empty", dim=dim, drift=lambda t, y: y,
                        diffusion=lambda t, y: y, y0=[])

    def test_dim_must_be_an_integer(self):
        # y0's shape (2,) equals (2.0,), so no later check would catch it
        with pytest.raises(ConfigError, match=r"^dim must be an integer; got 2\.0$"):
            SystemModel(name="plane", dim=2.0, drift=lambda t, y: y,
                        diffusion=lambda t, y: y, y0=[1.0, 2.0])

    @pytest.mark.parametrize("y0", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_initial_state_of_wrong_shape_rejected(self, y0):
        with pytest.raises(ValueError, match=r"y0 must have shape \(2,\)"):
            SystemModel(name="plane", dim=2, drift=lambda t, y: y,
                        diffusion=lambda t, y: y, y0=y0)


class TestMatrixForm:
    @pytest.mark.parametrize("factory", [newton_leipnik, lorenz])
    def test_residual_small_on_random_states(self, factory):
        model = factory()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            y = rng.uniform(-1.0, 1.0, size=3)
            assert matrix_form_check(model, y) <= 1e-12

    def test_exact_zero_at_origin(self):
        assert matrix_form_check(newton_leipnik(), np.zeros(3)) == 0.0
        assert matrix_form_check(lorenz(), np.zeros(3)) == 0.0

    def test_lorenz_residual_at_start(self):
        model = lorenz()
        assert matrix_form_check(model, model.y0) <= 1e-12

    def test_unsupported_model(self):
        with pytest.raises(ValueError):
            matrix_form_check(linear_test(), np.array([1.0]))


class TestGrowthBounds:
    def test_newton_leipnik_spot_value(self):
        # mu = 0, zero start, delta = 0 leaves only |A|_F^2
        model = newton_leipnik(NewtonLeipnikParams(mu=0.0), y0=[0.0, 0.0, 0.0])
        assert lipschitz_bound(model, 0.0) == pytest.approx(2.350625, rel=1e-12)

    def test_quadratic_coupling_norms(self):
        _, B, C = newton_leipnik_matrices({"beta": 0.4, "rho": 0.175})
        assert np.sum(B * B) == 25.0
        assert np.sum(C * C) == 125.0

    def test_lorenz_spot_value(self):
        model = lorenz(LorenzParams(mu=0.0), y0=[0.0, 0.0, 0.0])
        a, b, c = 10.0, 8.0 / 3.0, 28.0
        expected = a * a + a * a + c * c + 1.0 + b * b
        assert lipschitz_bound(model, 0.0) == pytest.approx(expected, rel=1e-12)
        A, _ = lorenz_matrices({"a": a, "b": b, "c": c})
        assert np.sum(A * A) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("factory,params", [
        (newton_leipnik, NewtonLeipnikParams),
        (lorenz, LorenzParams),
    ])
    def test_monotone_in_delta_and_mu(self, factory, params):
        deltas = np.linspace(0.0, 4.0, 10)
        ks = [lipschitz_bound(factory(params(mu=0.3)), d) for d in deltas]
        assert np.all(np.diff(ks) >= 0)
        mus = np.linspace(0.0, 2.0, 10)
        ks = [lipschitz_bound(factory(params(mu=m)), 1.0) for m in mus]
        assert np.all(np.diff(ks) >= 0)

    def test_rejects_negative_delta_and_unknown_model(self):
        with pytest.raises(ValueError):
            lipschitz_bound(newton_leipnik(), -1.0)
        with pytest.raises(ValueError):
            lipschitz_bound(linear_test(), 1.0)


class TestLinearTest:
    def test_shapes_and_values(self):
        model = linear_test(lam=2.0, sigma0=0.5, y0=3.0)
        assert model.dim == 1 and model.noise_dim == 1
        assert model.drift(0.0, [3.0]) == [-6.0]
        assert model.diffusion(0.0, [3.0]) == [0.5]
        rows = [np.array([3.0, -1.0])]
        np.testing.assert_array_equal(model.drift(0.0, rows), [[-6.0, 2.0]])
        np.testing.assert_array_equal(model.diffusion(0.0, rows), [[0.5, 0.5]])
