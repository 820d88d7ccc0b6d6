import io
import math

import numpy as np
import pytest

from sfode import analysis
from sfode.analysis import (
    accumulate_stats,
    bounded_attractor_check,
    convergence_order,
    ensemble_run,
    ito_isometry_check,
    write_stats_csv,
)
from sfode.solver import DivergenceError, SolverConfig, solve
from sfode.special import mittag_leffler
from sfode.stochastic import SeedSpec, generate_path, make_grid
from sfode.systems import LorenzParams, linear_test, lorenz, newton_leipnik


def diffusion_cfg(steps=64, alpha=0.75):
    return SolverConfig(alpha=alpha, grid=make_grid(1.0, 1.0 / steps), stochastic=True)


class TestEnsembleRun:
    def test_single_path_stats(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.025), stochastic=True)
        stats = ensemble_run(model, cfg, 17, M=1)
        path = generate_path(SeedSpec(17, 0, 0), cfg.grid, 3)
        traj = solve(model, cfg, path)
        np.testing.assert_array_equal(stats.mean, traj.states)
        np.testing.assert_array_equal(stats.variance, 0.0)
        np.testing.assert_allclose(stats.l2sq, np.sum(traj.states**2, axis=0), rtol=1e-15)

    def test_zero_noise_zero_variance(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.025))
        stats = ensemble_run(model, cfg, 0, M=5)
        np.testing.assert_array_equal(stats.variance, 0.0)

    def test_variance_nonnegative(self):
        stats = ensemble_run(linear_test(lam=0.0, sigma0=1.0, y0=0.0), diffusion_cfg(), 3, M=40)
        assert np.all(stats.variance >= 0.0)

    def test_merge_equals_full_run(self):
        # the seeding contract: path i is SeedSpec(seed, i, 0) however the
        # ensemble runs, so reducing the per-path solves matches it bitwise
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.05), stochastic=True)
        full = ensemble_run(model, cfg, 11, M=8)
        merged = accumulate_stats(cfg.grid, [
            solve(model, cfg, generate_path(SeedSpec(11, i, 0), cfg.grid, 3)).states
            for i in range(8)
        ])
        np.testing.assert_array_equal(merged.mean, full.mean)
        np.testing.assert_array_equal(merged.variance, full.variance)
        np.testing.assert_array_equal(merged.l2sq, full.l2sq)

    def test_worker_count_does_not_change_results(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.05), stochastic=True)
        serial = ensemble_run(model, cfg, 23, M=12, workers=1)
        parallel = ensemble_run(model, cfg, 23, M=12, workers=4)
        np.testing.assert_array_equal(serial.mean, parallel.mean)
        np.testing.assert_array_equal(serial.variance, parallel.variance)
        np.testing.assert_array_equal(serial.l2sq, parallel.l2sq)

    @pytest.mark.parametrize("workers, M, cores, expected", [
        (100000, 2, 8, 2),   # no more processes than paths
        (100000, 50, 3, 3),  # no more processes than cores
        (2, 200, 4, 2),      # the requested count when it is the smallest
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, M, cores, expected):
        # a fake pool records its size and maps serially; no process starts
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(i) for i in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(analysis.multiprocessing, "get_context", lambda method: FakeContext)
        model = linear_test(lam=1.0)
        cfg = SolverConfig(alpha=0.8, grid=make_grid(0.5, 0.25))
        pooled = ensemble_run(model, cfg, 0, M=M, workers=workers)
        assert started == [expected]
        serial = ensemble_run(model, cfg, 0, M=M, workers=1)
        np.testing.assert_array_equal(pooled.mean, serial.mean)
        assert started == [expected]  # the serial run starts no pool

    def test_divergence_reports_path_index(self):
        model = lorenz(LorenzParams(mu=50.0))
        cfg = SolverConfig(alpha=0.9, grid=make_grid(5.0, 0.005), stochastic=True)
        with pytest.raises(DivergenceError) as err:
            ensemble_run(model, cfg, 1, M=3)
        assert err.value.path_index is not None
        assert "path" in str(err.value)

    def test_requires_at_least_one_path(self):
        with pytest.raises(ValueError):
            ensemble_run(newton_leipnik(), diffusion_cfg(), 0, M=0)


class TestVarianceLaw:
    def test_terminal_l2_matches_closed_form(self):
        # pure diffusion, sigma = 1: E y(T)^2 = T**(2a-1) / ((2a-1) Gamma(a)^2)
        alpha, M = 0.75, 2000
        model = linear_test(lam=0.0, sigma0=1.0, y0=0.0)
        cfg = diffusion_cfg(steps=256, alpha=alpha)
        stats = ensemble_run(model, cfg, 12345, M=M, workers=4)
        expected = 1.0 / ((2 * alpha - 1) * math.gamma(alpha) ** 2)
        assert abs(stats.l2sq[-1] - expected) / expected <= 0.10


class TestItoIsometry:
    def test_alpha_one(self):
        err = ito_isometry_check(1.0, make_grid(1.0, 1.0 / 2048), M=5000, master_seed=7)
        assert err <= 0.05

    def test_alpha_three_quarters(self):
        err = ito_isometry_check(0.75, make_grid(1.0, 1.0 / 2048), M=5000, master_seed=7)
        assert err <= 0.05

    def test_error_shrinks_with_more_paths(self):
        # informational Monte Carlo scaling; recorded, not asserted
        grid = make_grid(1.0, 1.0 / 512)
        small = ito_isometry_check(0.75, grid, M=1000, master_seed=3)
        large = ito_isometry_check(0.75, grid, M=4000, master_seed=3)
        print(f"isometry error M=1000: {small:.4f}, M=4000: {large:.4f}")

    def test_validation(self):
        grid = make_grid(1.0, 0.25)
        with pytest.raises(ValueError):
            ito_isometry_check(0.4, grid, M=2000)
        with pytest.raises(ValueError):
            ito_isometry_check(0.75, grid, M=10)


class TestConvergenceOrder:
    def test_deterministic_rate_with_reference(self):
        model = linear_test(lam=1.0)
        report = convergence_order(
            model, 0.8, 1.0, [1 / 50, 1 / 100, 1 / 200],
            reference=lambda t: [mittag_leffler(0.8, -(t**0.8))],
        )
        assert not report.degenerate
        assert report.order >= 1.0

    def test_classical_rate_is_second_order(self):
        model = linear_test(lam=1.0)
        report = convergence_order(
            model, 1.0, 1.0, [1 / 50, 1 / 100, 1 / 200],
            reference=lambda t: [math.exp(-t)],
        )
        assert report.order >= 1.7

    def test_self_reference_deterministic(self):
        model = linear_test(lam=1.0)
        report = convergence_order(model, 0.8, 1.0, [1 / 32, 1 / 64, 1 / 128, 1 / 256])
        assert not report.degenerate
        assert np.all(np.diff(report.errors) < 0)
        assert report.order >= 1.0

    def test_stochastic_self_reference_runs(self):
        model = linear_test(lam=1.0, sigma0=0.5, y0=1.0)
        report = convergence_order(
            model, 0.8, 1.0, [1 / 32, 1 / 64, 1 / 128, 1 / 256],
            master_seed=5, stochastic=True,
        )
        # no claimed rate for the noisy scheme; just a sane, finite fit
        assert not report.degenerate
        assert np.isfinite(report.order)
        assert np.all(report.errors > 0)
        print(f"empirical strong order estimate: {report.order:.3f}")

    def test_zero_system_degenerate(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=1.0)
        report = convergence_order(model, 0.8, 1.0, [1 / 32, 1 / 64, 1 / 128])
        assert report.degenerate
        assert math.isnan(report.order)

    def test_needs_three_dyadic_levels(self):
        model = linear_test(lam=1.0)
        with pytest.raises(ValueError):
            convergence_order(model, 0.8, 1.0, [1 / 32, 1 / 64])
        with pytest.raises(ValueError):
            convergence_order(model, 0.8, 1.0, [1 / 32, 1 / 48, 1 / 64])
        with pytest.raises(ValueError):
            convergence_order(model, 0.8, 1.0, [1 / 32, 1 / 64, 1 / 128],
                              stochastic=True)


class TestBoundedCheck:
    def test_constant_system_passes(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=1.5)
        traj = solve(model, SolverConfig(alpha=0.8, grid=make_grid(1.0, 0.25)))
        check = bounded_attractor_check(traj, radius=2.0)
        assert check.passed and check.max_abs == 1.5

    def test_small_radius_fails(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=1.5)
        traj = solve(model, SolverConfig(alpha=0.8, grid=make_grid(1.0, 0.25)))
        assert not bounded_attractor_check(traj, radius=1.0).passed


def test_write_stats_csv():
    stats = ensemble_run(newton_leipnik(), SolverConfig(
        alpha=0.93, grid=make_grid(0.25, 0.05), stochastic=True), 2, M=4)
    buf = io.StringIO()
    write_stats_csv(stats, buf, {"version": "test"})
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# version=test"
    assert lines[1] == "t,mean_1,mean_2,mean_3,var_1,var_2,var_3,l2sq"
    assert len(lines) == 2 + stats.grid.num_nodes
    buf2 = io.StringIO()
    write_stats_csv(stats, buf2, {"version": "test"})
    assert buf.getvalue() == buf2.getvalue()
