import dataclasses
import io
import math

import numpy as np
import pytest

from sfode import stochastic
from sfode.analysis import (
    accumulate_stats,
    bounded_attractor_check,
    convergence_order,
    ensemble_run,
    ito_isometry_check,
    write_stats_csv,
)
from sfode.checks import ConfigError
from sfode.picard import cauchy_diagnostic, picard_iterate
from sfode.solver import BLOCK, DivergenceError, NoiseHistory, SolverConfig, solve
from sfode.special import mittag_leffler
from sfode.stochastic import SeedSpec, generate_path, make_grid
from sfode.systems import LorenzParams, SystemModel, linear_test, lorenz, newton_leipnik


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        model = newton_leipnik()
        with pytest.raises(ConfigError, match="seed"):
            ensemble_run(model, diffusion_cfg(), seed, M=2)
        with pytest.raises(ConfigError, match="seed"):
            cauchy_diagnostic(model, 0.93, make_grid(0.1, 0.01), seed, M=100, K=2)


class TestNonFiniteRightHandSide:
    """dy = -y dt + 0.2 dW from y0 = 0, with drift or diffusion (kind) made
    non-finite wherever y > 0.3."""

    cfg = SolverConfig(alpha=0.75, grid=make_grid(1.0, 1.0 / 64), stochastic=True)

    @staticmethod
    def model(kind):
        bad = np.nan if kind == "drift" else np.inf
        parts = {"drift": lambda t, y: -y, "diffusion": lambda t, y: np.full_like(y, 0.2)}
        good = parts[kind]
        parts[kind] = lambda t, y: np.where(y > 0.3, bad, good(t, y))
        return SystemModel(name=f"nonfinite_{kind}", dim=1, y0=np.array([0.0]), **parts)

    @pytest.mark.parametrize("kind", ["drift", "diffusion"])
    def test_solve_reports_step_and_time(self, kind):
        with pytest.raises(DivergenceError) as err:
            solve(self.model(kind), self.cfg, generate_path(SeedSpec(0, 6), self.cfg.grid))
        exc = err.value
        assert str(exc) == f"non-finite {kind} at step {exc.step} (t={exc.time:g})"
        assert exc.step >= 1 and exc.time == self.cfg.grid.nodes()[exc.step]
        assert exc.path_index is None

    @pytest.mark.parametrize("kind", ["drift", "diffusion"])
    def test_ensemble_reports_the_first_failing_path(self, kind):
        # the lowest-indexed path among those failing earliest, with the
        # message of its own solve
        model = self.model(kind)
        failures = []
        for i in range(16):
            try:
                solve(model, self.cfg, generate_path(SeedSpec(0, i), self.cfg.grid))
            except DivergenceError as exc:
                failures.append((exc.step, i, str(exc)))
        step, first, message = min(failures)
        assert any(i < first for _, i, _ in failures)  # the earliest is not the lowest
        with pytest.raises(DivergenceError) as err:
            ensemble_run(model, self.cfg, 0, M=16)
        assert str(err.value) == f"path {first}: {message}"
        assert (err.value.step, err.value.path_index) == (step, first)


class TestBatchSize:
    """Batches of 1, 3 or all M paths give the per-path results bit for bit."""

    M_ENSEMBLE = 7
    M_PICARD = 100  # the diagnostic's minimum

    @staticmethod
    def spy(model, monkeypatch, size, grid):
        """The model with its drift recording batch sizes, and the byte
        budget set so that one (paths, d, nodes) array holds size paths."""
        monkeypatch.setattr(stochastic, "BATCH_BYTES", size * 8 * model.dim * grid.num_nodes)
        seen = set()

        def drift(t, y):
            seen.add(y.shape[1])
            return model.drift(t, y)

        return dataclasses.replace(model, drift=drift), seen

    @pytest.mark.parametrize("mode", list(NoiseHistory))
    @pytest.mark.parametrize("size", [1, 3, M_ENSEMBLE])
    def test_ensemble_run(self, monkeypatch, size, mode):
        self.check_ensemble_run(monkeypatch, size, mode, steps=10)

    @pytest.mark.parametrize("mode", list(NoiseHistory))
    @pytest.mark.parametrize("size", [1, 3, M_ENSEMBLE])
    def test_ensemble_run_past_one_block(self, monkeypatch, size, mode):
        self.check_ensemble_run(monkeypatch, size, mode, steps=BLOCK + 64)  # FFT far field

    def check_ensemble_run(self, monkeypatch, size, mode, steps):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(steps / 20, 0.05), stochastic=True,
                           noise_history=mode)
        per_path = accumulate_stats(cfg.grid, [
            solve(model, cfg, generate_path(SeedSpec(11, i, 0), cfg.grid, 3)).states
            for i in range(self.M_ENSEMBLE)
        ])
        spied, seen = self.spy(model, monkeypatch, size, cfg.grid)
        stats = ensemble_run(spied, cfg, 11, M=self.M_ENSEMBLE, workers=4)
        assert max(seen) == size
        np.testing.assert_array_equal(stats.mean, per_path.mean)
        np.testing.assert_array_equal(stats.variance, per_path.variance)
        np.testing.assert_array_equal(stats.l2sq, per_path.l2sq)

    @pytest.mark.parametrize("size", [1, 3, M_PICARD])
    def test_cauchy_diagnostic(self, monkeypatch, size):
        model = newton_leipnik()
        grid = make_grid(0.1, 0.01)
        gap_sum = np.zeros(3)
        for i in range(self.M_PICARD):  # per-path runs, reduced in index order
            path = generate_path(SeedSpec(5, i, 0), grid, 3)
            gap_sum += picard_iterate(model, 0.93, grid, path, K=3).terminal_gaps()
        spied, seen = self.spy(model, monkeypatch, size, grid)
        report = cauchy_diagnostic(spied, 0.93, grid, 5, M=self.M_PICARD, K=3)
        assert max(seen) == size
        np.testing.assert_array_equal(report.distances, (gap_sum / self.M_PICARD)[1:])

    def test_drift_that_ignores_the_path_axis_is_rejected(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.05), stochastic=True)
        one_path = dataclasses.replace(model, drift=lambda t, y: model.drift(t, model.y0))
        solve(one_path, cfg, generate_path(SeedSpec(1), cfg.grid, 3))  # shape fits one path
        with pytest.raises(ValueError, match="shape"):
            ensemble_run(one_path, cfg, 1, M=2)
        with pytest.raises(ValueError, match="shape"):
            cauchy_diagnostic(one_path, 0.93, cfg.grid, 1, M=100, K=2)


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ito_isometry_check(0.75, make_grid(1.0, 0.25), M=1000, master_seed=seed)

    def test_path_i_is_the_ensemble_path(self):
        # path i comes from the stream of SeedSpec(master_seed, i, 0)
        grid, M = make_grid(1.0, 0.25), 1000
        v = (1.0 - grid.nodes()[:-1]) ** -0.25
        mc = sum((generate_path(SeedSpec(3, i), grid).increments[0] @ v) ** 2
                 for i in range(M)) / M
        exact = 2.0  # T**(2 alpha - 1) / (2 alpha - 1) at alpha = 0.75, T = 1
        err = ito_isometry_check(0.75, grid, M=M, master_seed=3)
        assert err == pytest.approx(abs(mc - exact) / exact, rel=1e-12)


def chain_cfg(alpha, steps, stochastic=False):
    """The coarsest level of a convergence chain on [0, 1]."""
    return SolverConfig(alpha=alpha, grid=make_grid(1.0, 1.0 / steps), stochastic=stochastic)


class TestConvergenceOrder:
    def test_deterministic_rate_with_reference(self):
        model = linear_test(lam=1.0)
        report = convergence_order(
            model, chain_cfg(0.8, 50), 3,
            reference=lambda t: [mittag_leffler(0.8, -(t**0.8))],
        )
        assert not report.degenerate
        assert report.order >= 1.0

    def test_classical_rate_is_second_order(self):
        model = linear_test(lam=1.0)
        report = convergence_order(
            model, chain_cfg(1.0, 50), 3,
            reference=lambda t: [math.exp(-t)],
        )
        assert report.order >= 1.7

    def test_self_reference_deterministic(self):
        model = linear_test(lam=1.0)
        report = convergence_order(model, chain_cfg(0.8, 32), 4)
        assert not report.degenerate
        assert np.all(np.diff(report.errors) < 0)
        assert report.order >= 1.0

    def test_stochastic_self_reference_runs(self):
        model = linear_test(lam=1.0, sigma0=0.5, y0=1.0)
        report = convergence_order(model, chain_cfg(0.8, 32, stochastic=True), 4,
                                   master_seed=5)
        # no claimed rate for the noisy scheme; just a sane, finite fit
        assert not report.degenerate
        assert np.isfinite(report.order)
        assert np.all(report.errors > 0)
        print(f"empirical strong order estimate: {report.order:.3f}")

    def test_zero_system_degenerate(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=1.0)
        report = convergence_order(model, chain_cfg(0.8, 32), 3)
        assert report.degenerate
        assert math.isnan(report.order)

    def test_needs_three_dyadic_levels(self):
        model = linear_test(lam=1.0)
        for levels, shown in ((2, 2), (0, 0), (-3, 0)):
            with pytest.raises(ConfigError, match=f"at least 3 grid levels; got {shown}$"):
                convergence_order(model, chain_cfg(0.8, 32), levels)
        with pytest.raises(ValueError, match="needs a master_seed"):
            convergence_order(model, chain_cfg(0.8, 32, stochastic=True), 3)

    def test_levels_keep_the_run_settings(self):
        # level i runs cfg on h / 2**i, with cfg's noise history and weights
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(1.0, 0.125), stochastic=True,
                           noise_history=NoiseHistory.LAST_INCREMENT)
        report = convergence_order(model, cfg, 3, master_seed=5)
        np.testing.assert_array_equal(report.h, [0.125, 0.0625])
        fine_grid = make_grid(1.0, 0.03125)
        fine = solve(model, dataclasses.replace(cfg, grid=fine_grid),
                     generate_path(SeedSpec(5), fine_grid, 3)).states
        coarse = solve(model, cfg, stochastic.restrict_path(
            generate_path(SeedSpec(5), fine_grid, 3), cfg.grid)).states
        assert report.errors[0] == np.max(np.abs(coarse - fine[:, ::4]))

    def test_finest_grid_checked_first(self):
        model = linear_test(lam=1.0)
        with pytest.raises(ConfigError, match="got T/h = 5368709120.0"):
            convergence_order(model, SolverConfig(alpha=0.8, grid=make_grid(1.0, 0.1)), 30)


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
