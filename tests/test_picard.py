import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from sfode.checks import ConfigError
from sfode.picard import (_iterates, _kernels, _lag_sums, cauchy_diagnostic, picard_iterate,
                          write_distance_csv)
from sfode.solver import BLOCK, LAG_MATRIX_MAX, DivergenceError, SolverConfig, solve
from sfode.special import gamma, mittag_leffler
from sfode.stochastic import SeedSpec, generate_path, increment_batches, make_grid
from sfode.systems import (LorenzParams, NewtonLeipnikParams, SystemModel, linear_test, lorenz,
                           newton_leipnik)


def constant_drift_model(value: float) -> SystemModel:
    return SystemModel(
        name="const",
        dim=1,
        drift=lambda t, y: [np.full_like(x, value) for x in y],
        diffusion=lambda t, y: [np.zeros_like(x) for x in y],
        y0=np.array([0.0]),
        params={},
    )


def ramp_drift_model() -> SystemModel:
    # f(t, y) = t, independent of the state
    return SystemModel(
        name="ramp",
        dim=1,
        drift=lambda t, y: [np.full_like(x, t) for x in y],
        diffusion=lambda t, y: [np.zeros_like(x) for x in y],
        y0=np.array([0.0]),
        params={},
    )


def g1_reference(states, grid, model, alpha, n):
    """Drift convolution (1/G(a)) int_0^{t_n} (t_n - s)**(a-1) f(s, y(s)) ds,
    node by node: f frozen at the left node of each step and the kernel
    integrated exactly, weights ((t_n - t_j)**a - (t_n - t_{j+1})**a) / (G(a) a).
    """
    if n == 0:
        return np.zeros(model.dim)
    t = grid.nodes()
    tn = t[n]
    w = ((tn - t[:n])**alpha - (tn - t[1:n + 1])**alpha) / (math.gamma(alpha) * alpha)
    f_vals = np.empty((model.dim, n))
    for j in range(n):
        f_vals[:, j] = model.drift(t[j], states[:, j])
    return f_vals @ w


def g2_reference(states, grid, model, alpha, path, n):
    """Noise convolution (1/G(a)) int_0^{t_n} (t_n - s)**(a-1) sigma dW, node by
    node: left-point sum_{j<n} (t_n - t_j)**(a-1) sigma_j dW_j / G(a)."""
    if n == 0:
        return np.zeros(model.dim)
    t = grid.nodes()
    k = (t[n] - t[:n])**(alpha - 1.0) / math.gamma(alpha)
    out = np.zeros(model.dim)
    for j in range(n):
        sigma = np.asarray(model.diffusion(t[j], states[:, j]), dtype=float)
        out += k[j] * (sigma * path.increments[:, j])
    return out


def first_sweep(model, alpha, grid, path=None) -> np.ndarray:
    """Iterate 1, the sweep applied to the constant initial state."""
    return picard_iterate(model, alpha, grid, path, K=1).states[1]


class TestG1:
    def test_zero_drift_gives_zero(self):
        grid = make_grid(1.0, 0.125)
        np.testing.assert_array_equal(first_sweep(constant_drift_model(0.0), 0.8, grid), 0.0)

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0])
    def test_constant_drift_integrated_exactly(self, alpha):
        # the product rule integrates the kernel exactly against constants:
        # result must equal t**alpha / Gamma(alpha + 1) at every node
        grid = make_grid(1.0, 0.05)
        states = first_sweep(constant_drift_model(1.0), alpha, grid)
        t = grid.nodes()
        for n in range(1, grid.num_nodes):
            assert states[0, n] == pytest.approx(t[n] ** alpha / gamma(alpha + 1.0), rel=1e-13)

    def test_ramp_drift_converges_to_closed_form(self):
        # fractional integral of f(s) = s at order 1/2 is
        # Gamma(2)/Gamma(2.5) * t**1.5; the rectangle rule converges as h -> 0
        alpha = 0.51  # operators require alpha > 1/2
        expected = gamma(2.0) / gamma(2.0 + alpha)
        errs = []
        for steps in (64, 256):
            grid = make_grid(1.0, 1.0 / steps)
            got = first_sweep(ramp_drift_model(), alpha, grid)[0, steps]
            errs.append(abs(got - expected))
        assert errs[1] < errs[0]
        assert errs[1] <= 5e-3

    def test_alpha_half_closed_form_reference_value(self):
        # frozen value of Gamma(2)/Gamma(2.5): the target of the previous test
        assert gamma(2.0) / gamma(2.5) == pytest.approx(0.75225277806367504, rel=1e-12)

    def test_rejects_small_alpha(self):
        grid = make_grid(1.0, 0.25)
        with pytest.raises(ValueError):
            first_sweep(constant_drift_model(1.0), 0.4, grid)


class TestG2:
    def test_zero_diffusion_gives_zero(self):
        grid = make_grid(1.0, 0.125)
        path = generate_path(SeedSpec(0), grid)
        states = first_sweep(constant_drift_model(0.0), 0.8, grid, path)
        np.testing.assert_array_equal(states, 0.0)

    def test_unit_diffusion_alpha_one_recovers_path(self):
        grid = make_grid(1.0, 1.0 / 64)
        model = linear_test(lam=0.0, sigma0=1.0, y0=0.0)
        path = generate_path(SeedSpec(13), grid)
        states = first_sweep(model, 1.0, grid, path)
        for n in (1, 10, 64):
            assert states[0, n] == pytest.approx(path.cumulative[0, n], abs=1e-15)

    def test_variance_law(self):
        # terminal variance of the noise convolution for sigma = 1 must match
        # T**(2a-1) / ((2a-1) * Gamma(a)**2) within 10% at M = 2000; the
        # paths are swept in batches, and the first 16 equal their serial sweeps
        alpha, steps, M = 0.75, 256, 2000
        grid = make_grid(1.0, 1.0 / steps)
        model = linear_test(lam=0.0, sigma0=1.0, y0=0.0)
        vals = np.empty(M)
        for start, dW in increment_batches(314, M, grid, 1):
            sweep = list(_iterates(model, alpha, grid, dW, K=1))[1]
            vals[start:start + len(dW)] = sweep[:, 0, steps]
        for i in range(16):
            path = generate_path(SeedSpec(314, i, 0), grid)
            assert first_sweep(model, alpha, grid, path)[0, steps] == vals[i]
        expected = 1.0 / ((2 * alpha - 1) * gamma(alpha) ** 2)
        assert abs(np.var(vals) - expected) / expected <= 0.10


def loop_lag_sums(x, k):
    """The per-node loop the lag sums replaced: node p of x's sums is one
    product of x's nodes 0..p with the contiguous reversed kernel."""
    nodes = x.shape[-1]
    k_rev = np.ascontiguousarray(k[::-1])
    out = np.empty_like(x)
    for p in range(nodes):
        out[..., p] = x[..., :p + 1] @ k_rev[nodes - 1 - p:]
    return out


class TestLagSums:
    """The causal lag sums of a sweep, out[..., p] = sum_{j<=p} x[..., j] k[p-j]:
    triangular products per direct block of BLOCK nodes plus squares,
    lag-matrix products up to LAG_MATRIX_MAX nodes and FFTs past it."""

    @staticmethod
    def lag_kernels(t, alpha):
        """The drift weights and noise kernel of a sweep by lag, from t**alpha."""
        inv_gamma = 1.0 / math.gamma(alpha)
        p = t**alpha
        return (p[1:] - p[:-1]) * (inv_gamma / alpha), t[1:]**(alpha - 1.0) * inv_gamma

    @pytest.mark.parametrize("nodes,paths", [(nodes, 3) for nodes in sorted({
        100, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK, 4 * BLOCK + 1, 4 * BLOCK + 3,
        2 * LAG_MATRIX_MAX + 1, 4 * LAG_MATRIX_MAX + 1, 300, 2000})] + [(5000, 1)])
    def test_match_the_per_node_loop(self, nodes, paths):
        # the error is bounded by eps * |x|_1 * max|k| per row, which bounds
        # sum_j |x_j| |k_{p-j}| at every node p; measured worst 1.35 of that
        # (gemm 1.35, FFT 0.73), rows scaled over e**-5 .. e**5
        rng = np.random.default_rng(nodes)
        x = rng.standard_normal((paths, 3, nodes)) * np.exp(rng.uniform(-5, 5, (paths, 3, 1)))
        t = np.arange(nodes + 1) * 0.005
        for kernel, k in zip(_kernels(t, 0.93), self.lag_kernels(t, 0.93)):
            got = _lag_sums(x, kernel, np.empty_like(x))
            scale = np.abs(x).sum(axis=-1, keepdims=True) * np.max(np.abs(k))
            assert np.all(np.abs(got - loop_lag_sums(x, k)) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("nodes", [100, 300, 600])  # 600: an FFT square
    @pytest.mark.parametrize("stochastic", [True, False])
    def test_batch_equals_paths_alone(self, nodes, stochastic):
        # the gemm is one d-row product per path and the FFT transforms each
        # row alone, so a batch rounds as its paths do alone.  One flattened
        # (B*d, N) @ (N, N) gemm fails this at N = 100: with numpy 2.4 and
        # OpenBLAS its rows rounded differently from 40 paths on (not at 33
        # or fewer), so the batch has 64.  Deterministic: no noise, so every
        # path of the batch is the dW=None sweep
        model = newton_leipnik(NewtonLeipnikParams(mu=0.1 if stochastic else 0.0))
        grid = make_grid(nodes * 0.005, 0.005)
        paths = 64
        dW = np.stack([generate_path(SeedSpec(3, i, 0), grid, 3).increments
                       for i in range(paths)])
        batch = list(_iterates(model, 0.93, grid, dW, K=4))
        for i in range(paths):
            alone = _iterates(model, 0.93, grid, dW[i] if stochastic else None, K=4)
            for k, states in enumerate(alone):
                np.testing.assert_array_equal(batch[k][i], states)


class TestPicardIterate:
    def test_zero_system_fixed_point(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=2.0)
        grid = make_grid(1.0, 0.125)
        seq = picard_iterate(model, 0.8, grid, None, K=3)
        assert seq.states.shape == (4, 1, 9)
        np.testing.assert_array_equal(seq.states, 2.0)
        np.testing.assert_array_equal(seq.terminal_gaps(), 0.0)

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_states_are_the_iterates(self, stochastic):
        model = newton_leipnik()
        grid = make_grid(0.25, 1.0 / 40)
        path = generate_path(SeedSpec(5), grid, num_channels=3) if stochastic else None
        states = picard_iterate(model, 0.93, grid, path, K=3).states
        iterates = list(_iterates(model, 0.93, grid, None if path is None else path.increments, 3))
        assert states.shape == (4, 3, grid.num_nodes)
        for k, iterate in enumerate(iterates):
            np.testing.assert_array_equal(states[k], iterate)

    def test_sweep_matches_node_operators(self):
        # the vectorized sweep must agree with the per-node quadratures
        model = newton_leipnik()
        grid = make_grid(0.25, 1.0 / 40)
        path = generate_path(SeedSpec(5), grid, num_channels=3)
        seq = picard_iterate(model, 0.93, grid, path, K=2)
        prev, curr = seq.states[1], seq.states[2]
        for n in (0, 1, 7, grid.num_steps):
            expected = (
                model.y0
                + g1_reference(prev, grid, model, 0.93, n)
                + g2_reference(prev, grid, model, 0.93, path, n)
            )
            np.testing.assert_allclose(curr[:, n], expected, atol=1e-12)

    def test_linear_problem_approaches_oracle(self):
        model = linear_test(lam=1.0)
        grid = make_grid(1.0, 1.0 / 128)
        exact = np.array([mittag_leffler(0.8, -(t**0.8)) for t in grid.nodes()])
        seq = picard_iterate(model, 0.8, grid, None, K=8)
        errs = [np.max(np.abs(states[0] - exact)) for states in seq.states]
        assert all(errs[k + 1] < errs[k] for k in range(5))
        assert errs[-1] <= 0.05

    def test_agrees_with_time_stepper(self):
        # shared grid, deterministic linear problem: the fixed point and the
        # predictor-corrector answer must land within 5% of each other
        model = linear_test(lam=1.0)
        grid = make_grid(1.0, 1.0 / 256)
        seq = picard_iterate(model, 0.8, grid, None, K=10)
        stepper = solve(model, SolverConfig(alpha=0.8, grid=grid))
        picard_T = seq.states[-1, 0, -1]
        solver_T = stepper.states[0, -1]
        assert abs(picard_T - solver_T) / abs(solver_T) <= 0.05

    def test_validation(self):
        model = linear_test()
        grid = make_grid(1.0, 0.25)
        with pytest.raises(ValueError):
            picard_iterate(model, 0.4, grid, None, K=2)
        with pytest.raises(ValueError):
            picard_iterate(model, 0.8, grid, None, K=0)
        wrong = generate_path(SeedSpec(0), make_grid(1.0, 0.5))
        with pytest.raises(ValueError):
            picard_iterate(model, 0.8, grid, wrong, K=2)

    def test_path_channels_must_match_noise_dim(self):
        # as in solve: one channel must not be broadcast over three components
        model = newton_leipnik()
        grid = make_grid(0.5, 0.05)
        for channels in (1, 2):
            path = generate_path(SeedSpec(0), grid, num_channels=channels)
            with pytest.raises(ValueError, match="channels"):
                picard_iterate(model, 0.9, grid, path, K=2)


    def test_overflowing_sweep_is_a_divergence(self):
        # the first sweep's sums overflow to inf without a numpy warning
        huge = SystemModel(name="huge", dim=1, y0=np.array([0.0]),
                           drift=lambda t, y: [np.full(np.shape(x), 1e308) for x in y],
                           diffusion=lambda t, y: [np.full(np.shape(x), 1e308) for x in y])
        grid = make_grid(1.0, 0.01)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DivergenceError) as err:
            warnings.simplefilter("always")
            picard_iterate(huge, 0.9, grid, generate_path(SeedSpec(3), grid), K=2)
        assert str(err.value) == "Picard iterate 1 exceeded blow-up bound"
        assert err.value.step == 1
        assert caught == []


class TestCauchyDiagnostic:
    def test_zero_system_all_zero(self):
        model = linear_test(lam=0.0, sigma0=0.0)
        report = cauchy_diagnostic(model, 0.8, make_grid(0.5, 0.05), 0, M=100, K=4)
        np.testing.assert_array_equal(report.distances, 0.0)
        assert report.converged

    def test_deterministic_contraction(self):
        model = linear_test(lam=1.0)
        report = cauchy_diagnostic(model, 0.8, make_grid(0.5, 0.025), 0, M=100, K=6)
        assert np.all(np.diff(report.distances) < 0)

    def test_lorenz_distances_decreasing(self):
        # the Lorenz drift's stiffness (Lipschitz ~30) means the sweeps only
        # contract from the start on a short horizon; longer horizons need
        # more sweeps before the factorial decay wins
        model = lorenz(LorenzParams(mu=0.1))
        grid = make_grid(0.1, 1.0 / 200)
        report = cauchy_diagnostic(model, 0.99, grid, 42, M=200, K=6)
        assert np.all(np.diff(report.distances) < 0)
        assert report.max_terminal_l2 < 1e6

    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            cauchy_diagnostic(linear_test(), 0.8, make_grid(0.5, 0.05), 0, M=10, K=4)

    def test_iterations_at_most_the_grid_steps(self):
        # node n of a sweep reads only nodes before it, so iterate N is the
        # discrete fixed point on a grid of N steps and every later gap is 0
        model = newton_leipnik()
        grid = make_grid(0.2, 0.025)  # N = 8
        path = generate_path(SeedSpec(2), grid, num_channels=3)
        gaps = picard_iterate(model, 0.93, grid, path, K=11).terminal_gaps()
        assert gaps[7] > 0
        np.testing.assert_array_equal(gaps[8:], 0.0)
        assert len(cauchy_diagnostic(model, 0.93, grid, 0, M=100, K=8).distances) == 7
        with pytest.raises(ConfigError, match="^the Picard diagnostic needs iterations "
                                              "<= T/h = 8; got 9$"):
            cauchy_diagnostic(model, 0.93, grid, 0, M=100, K=9)

    def test_gaps_past_the_grid_steps_stay_at_rounding_level(self):
        # past BLOCK nodes the sums take squares (lag-matrix products, FFTs
        # past LAG_MATRIX_MAX nodes), but a square's sources all precede its
        # targets, so node n still reads only the nodes before it and the
        # gaps past sweep N stay exactly 0, as at any N
        model = newton_leipnik()
        grid = make_grid(1.5, 0.005)  # N = 300
        path = generate_path(SeedSpec(2), grid, num_channels=3)
        states = picard_iterate(model, 0.93, grid, path, K=303).states
        sup_gaps = np.max(np.abs(np.diff(states, axis=0)), axis=(-2, -1))
        np.testing.assert_array_equal(sup_gaps[300:], 0.0)

    @pytest.mark.parametrize("sup_mode", [False, True])
    def test_batched_gaps_equal_per_path_gaps(self, sup_mode):
        # cauchy_diagnostic's rows and terminal_gaps share one gap rule: the
        # mean of the per-path gaps, added in path order, is its report bit for bit
        model = newton_leipnik()
        grid = make_grid(0.25, 1.0 / 40)
        M, K = 100, 4
        total = np.zeros(K)
        for i in range(M):
            seq = picard_iterate(model, 0.93, grid,
                                 generate_path(SeedSpec(3, i, 0), grid, num_channels=3), K)
            if sup_mode:
                total += [np.max(np.sum((b - a)**2, axis=0))
                          for a, b in zip(seq.states, seq.states[1:])]
            else:
                total += seq.terminal_gaps()
        report = cauchy_diagnostic(model, 0.93, grid, 3, M=M, K=K, sup_mode=sup_mode)
        np.testing.assert_array_equal(report.distances, (total / M)[1:])

    def test_sup_mode_dominates_terminal_mode(self):
        model = newton_leipnik()
        grid = make_grid(0.25, 1.0 / 40)
        term = cauchy_diagnostic(model, 0.93, grid, 3, M=100, K=4)
        sup = cauchy_diagnostic(model, 0.93, grid, 3, M=100, K=4, sup_mode=True)
        assert np.all(sup.distances >= term.distances)


def test_write_distance_csv():
    model = linear_test(lam=1.0)
    report = cauchy_diagnostic(model, 0.8, make_grid(0.5, 0.05), 0, M=100, K=4)
    buf = io.StringIO()
    write_distance_csv(report, buf, {"note": "demo"})
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# note=demo"
    assert lines[1] == "k,d_k"
    assert len(lines) == 2 + len(report.distances)


class TestRightHandSideCalls:
    """A sweep records f and sigma dW at the N left nodes of every path, the
    only nodes its sums read, in one call of each callable: K sweeps of a
    batch of B paths make K calls of each, each on B*N columns, and none of
    the diffusion without noise."""

    K = 3
    STEPS = 40

    @staticmethod
    def counted(model):
        calls = {"drift": [], "diffusion": []}  # the column count of each call

        def wrap(kind):
            fn = getattr(model, kind)

            def call(t, y):
                calls[kind].append(len(y[0]))
                return fn(t, y)

            return call

        return dataclasses.replace(model, drift=wrap("drift"), diffusion=wrap("diffusion")), calls

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_picard_iterate(self, stochastic):
        model, calls = self.counted(newton_leipnik())
        grid = make_grid(self.STEPS / 80, 1 / 80)
        path = generate_path(SeedSpec(4), grid, num_channels=3) if stochastic else None
        picard_iterate(model, 0.93, grid, path, self.K)
        sweeps = [self.STEPS] * self.K
        assert calls == {"drift": sweeps, "diffusion": sweeps if stochastic else []}

    def test_cauchy_diagnostic_one_batch(self):
        model, calls = self.counted(newton_leipnik())
        grid = make_grid(self.STEPS / 80, 1 / 80)
        assert len(next(increment_batches(0, 100, grid, 3))[1]) == 100  # one batch
        cauchy_diagnostic(model, 0.93, grid, 0, M=100, K=self.K)
        sweeps = [100 * self.STEPS] * self.K
        assert calls == {"drift": sweeps, "diffusion": sweeps}
