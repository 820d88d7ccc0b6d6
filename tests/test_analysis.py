import dataclasses
import io
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sfode import analysis, checks, stochastic
from sfode.analysis import (
    accumulate_stats,
    convergence_order,
    ensemble_run,
    ito_isometry_check,
    levels_rule,
    write_stats_csv,
)
from sfode.checks import ConfigError
from sfode.picard import (CauchyReport, cauchy_diagnostic, diagnostic_rule, picard_iterate,
                          write_distance_csv)
from sfode.solver import (BLOCK, LAG_MATRIX_MAX, DivergenceError, NoiseHistory, SolverConfig,
                          solve, solve_batch, write_trajectory_csv)
from sfode.special import gamma, mittag_leffler
from sfode.stochastic import SeedSpec, generate_path, increment_batches, make_grid
from sfode.systems import (LorenzParams, NewtonLeipnikParams, SystemModel, lipschitz_bound,
                           linear_test, lorenz, matrix_form_check, newton_leipnik)
from sfode.weights import WeightTable, corrector_weights, predictor_weights


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

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="workers must be >= 0; got -1"):
            ensemble_run(newton_leipnik(), diffusion_cfg(), 0, M=2, workers=-1)

    def test_reduction_needs_a_trajectory(self):
        with pytest.raises(ValueError, match="at least one trajectory"):
            accumulate_stats(make_grid(1.0, 0.25), [])

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
        parts = {"drift": lambda t, y: [-y[0]],
                 "diffusion": lambda t, y: [np.full_like(y[0], 0.2)]}
        good = parts[kind]
        parts[kind] = lambda t, y: [np.where(y[0] > 0.3, bad, good(t, y)[0])]
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
            seen.add(len(y[0]))
            return model.drift(t, y)

        return dataclasses.replace(model, drift=drift), seen

    @pytest.mark.parametrize("mode", list(NoiseHistory))
    @pytest.mark.parametrize("size", [1, 3, M_ENSEMBLE])
    def test_ensemble_run(self, monkeypatch, size, mode):
        self.check_ensemble_run(monkeypatch, size, mode, steps=10)

    @pytest.mark.parametrize("mode", list(NoiseHistory))
    @pytest.mark.parametrize("size", [1, 3, M_ENSEMBLE])
    def test_ensemble_run_past_one_block(self, monkeypatch, size, mode):
        # the square from node 2 * LAG_MATRIX_MAX on is the run's first FFT square
        self.check_ensemble_run(monkeypatch, size, mode, steps=2 * LAG_MATRIX_MAX + BLOCK)

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
        self.check_cauchy_diagnostic(monkeypatch, newton_leipnik(), size)

    @pytest.mark.parametrize("drift", [lambda t, y: [np.full_like(x, t) for x in y],  # a ramp
                                       lambda t, y: [np.sin(t) * x for x in y]],
                             ids=["ramp", "sin"])
    def test_cauchy_diagnostic_time_dependent(self, monkeypatch, drift):
        # a batched sweep passes each column its own node time
        model = SystemModel(name="timed", dim=2, drift=drift,
                            diffusion=lambda t, y: [0.5 * (1.0 + t) * x for x in y],
                            y0=[0.5, -0.2])
        self.check_cauchy_diagnostic(monkeypatch, model, size=3)

    def check_cauchy_diagnostic(self, monkeypatch, model, size):
        grid = make_grid(0.1, 0.01)
        gap_sum = np.zeros(3)
        for i in range(self.M_PICARD):  # per-path runs, reduced in index order
            path = generate_path(SeedSpec(5, i, 0), grid, model.noise_dim)
            gap_sum += picard_iterate(model, 0.93, grid, path, K=3).terminal_gaps()
        spied, seen = self.spy(model, monkeypatch, size, grid)
        report = cauchy_diagnostic(spied, 0.93, grid, 5, M=self.M_PICARD, K=3)
        assert max(seen) == size * grid.num_steps  # a sweep sees every left node at once
        np.testing.assert_array_equal(report.distances, (gap_sum / self.M_PICARD)[1:])

    def test_ito_isometry_check(self, monkeypatch):
        grid, M = make_grid(1.0, 1.0 / 64), 1000
        seen = []

        def batches(*args):
            for start, dW in stochastic.increment_batches(*args):
                seen.append(len(dW))
                yield start, dW

        monkeypatch.setattr(analysis, "increment_batches", batches)
        values = []
        for size in (1, 3, M):
            monkeypatch.setattr(stochastic, "BATCH_BYTES", size * 8 * grid.num_nodes)
            seen.clear()
            values.append(ito_isometry_check(0.75, grid, M=M, master_seed=11))
            assert max(seen) == size
        assert values[0] == values[1] == values[2]

    def test_drift_that_ignores_the_path_axis_is_rejected(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.05), stochastic=True)
        one_path = dataclasses.replace(model, drift=lambda t, y: model.drift(t, model.y0))
        solve(one_path, cfg, generate_path(SeedSpec(1), cfg.grid, 3))  # shape fits one path
        with pytest.raises(ValueError, match="shape"):
            ensemble_run(one_path, cfg, 1, M=2)
        with pytest.raises(ValueError, match="shape"):
            cauchy_diagnostic(one_path, 0.93, cfg.grid, 1, M=100, K=2)


class TestMemoryBound:
    """Memory is bounded by one batch, not by paths x nodes (README, Memory):
    with batches of 100 paths, 2000 paths peak (tracemalloc) within 10% of
    200 paths.  Measured 1.001 (ensemble_run) and 1.003 (cauchy_diagnostic)."""

    RUNS = {  # entry point: (grid, call of a path count)
        "ensemble_run": (make_grid(1.0, 1 / 32), lambda grid, M: ensemble_run(
            newton_leipnik(), SolverConfig(0.93, grid, stochastic=True), 3, M)),
        "cauchy_diagnostic": (make_grid(1.0, 1 / 64), lambda grid, M: cauchy_diagnostic(
            newton_leipnik(), 0.93, grid, 3, M=M, K=3)),
    }

    @pytest.mark.parametrize("entry", RUNS)
    def test_peak_does_not_grow_with_paths(self, monkeypatch, entry):
        grid, run = self.RUNS[entry]
        monkeypatch.setattr(stochastic, "BATCH_BYTES", 100 * 8 * 3 * grid.num_nodes)
        run(grid, 200)  # warm-up: the first run also builds what numpy caches
        peaks = []
        for paths in (200, 2000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(grid, paths)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


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


COUNT_CALLS = {  # entry point: (call of one count, a valid count)
    "ensemble_run": (lambda n: ensemble_run(linear_test(), chain_cfg(0.8, 4), 1, n), 3),
    "cauchy_diagnostic paths": (lambda n: cauchy_diagnostic(
        newton_leipnik(), 0.93, make_grid(0.25, 0.025), 0, M=n, K=3), 100),
    "cauchy_diagnostic iterations": (lambda n: cauchy_diagnostic(
        newton_leipnik(), 0.93, make_grid(0.25, 0.025), 0, M=100, K=n), 3),
    "generate_path": (lambda n: generate_path(SeedSpec(1), make_grid(1.0, 0.25), n), 2),
    "ito_isometry_check": (lambda n: ito_isometry_check(0.9, make_grid(1.0, 0.25), n), 1000),
    "picard_iterate": (lambda n: picard_iterate(linear_test(), 0.8, make_grid(1.0, 0.25),
                                                None, K=n), 2),
    "convergence_order": (lambda n: convergence_order(linear_test(), chain_cfg(0.8, 4), n), 3),
    "corrector_weights": (lambda n: corrector_weights(n, 0.8), 2),
    "predictor_weights": (lambda n: predictor_weights(n, 0.8, 0.1), 2),
    "increment_batches paths": (lambda n: list(increment_batches(0, n, make_grid(1.0, 0.5), 1)),
                                2),
    "increment_batches channels": (lambda n: list(increment_batches(
        0, 2, make_grid(1.0, 0.5), n)), 2),
}

# entry point of COUNT_CALLS: (a count below its least, the one message of that)
BELOW_LEAST = {
    "ensemble_run": (0, "M must be >= 1; got 0"),
    "generate_path": (0, "num_channels must be >= 1; got 0"),
    "ito_isometry_check": (999, "M must be >= 1000; got 999"),
    "picard_iterate": (0, "K must be >= 1; got 0"),
    "corrector_weights": (-1, "n must be >= 0; got -1"),
    "predictor_weights": (-1, "n must be >= 0; got -1"),
    "increment_batches paths": (-1, "M must be >= 0; got -1"),
    "increment_batches channels": (0, "num_channels must be >= 1; got 0"),
}


@pytest.mark.parametrize("count", [2.0, 2.5, "3", True])
@pytest.mark.parametrize("entry", COUNT_CALLS)
def test_non_integer_count_is_a_config_error(entry, count):
    # a count is what operator.index accepts, bools aside (True would be 1);
    # anything else fails up front, not with a TypeError from deep inside the run
    with pytest.raises(ConfigError, match=f"must be an integer; got {count!r}$"):
        COUNT_CALLS[entry][0](count)


GRID = make_grid(1.0, 0.25)
STOCHASTIC = SolverConfig(0.8, GRID, stochastic=True)


def rows(t, y):
    """A valid drift or diffusion of any system: the state rows themselves."""
    return list(y)


# library input that used to escape as a plain ValueError or an AttributeError
BAD_INPUTS = {
    "convergence_order without a seed": (
        lambda: convergence_order(linear_test(sigma0=1.0), STOCHASTIC, 3),
        "stochastic convergence measurement needs a master_seed"),
    "solve on another grid": (
        lambda: solve(linear_test(), STOCHASTIC, generate_path(SeedSpec(1), make_grid(1.0, 0.5))),
        "path grid does not match solver grid"),
    "solve on too many channels": (
        lambda: solve(linear_test(), STOCHASTIC, generate_path(SeedSpec(1), GRID, 2)),
        "dW is shaped (2, 4), needs"),
    "picard_iterate on another grid": (
        lambda: picard_iterate(linear_test(), 0.8, GRID,
                               generate_path(SeedSpec(1), make_grid(1.0, 0.5)), 2),
        "path grid does not match iteration grid"),
    "picard_iterate on too many channels": (
        lambda: picard_iterate(linear_test(), 0.8, GRID, generate_path(SeedSpec(1), GRID, 2), 2),
        "path has 2 channels, model needs 1"),
    "solve_batch on a list": (
        lambda: solve_batch(linear_test(), STOCHASTIC, [[0.0] * 4]),
        "dW is shaped list, needs"),
    "solve_batch on a mis-shaped dW": (
        lambda: solve_batch(linear_test(), STOCHASTIC, np.zeros((3, 1, 5))),
        "dW is shaped (3, 1, 5), needs"),
    "SolverConfig without a grid": (lambda: SolverConfig(0.8, None),
                                    "grid must be a TimeGrid; got None"),
    "make_grid without a horizon": (lambda: make_grid(None, 0.25),
                                    "T must be a real number; got None"),
    "SolverConfig with a string alpha": (lambda: SolverConfig("0.8", GRID),
                                         "alpha must be a real number; got '0.8'"),
    "linear_test with a string lam": (lambda: linear_test(lam="a"),
                                      "lam must be a real number; got 'a'"),
    "NewtonLeipnikParams with a string mu": (lambda: NewtonLeipnikParams(mu="a"),
                                             "mu must be a real number; got 'a'"),
    "restrict_path to a grid that does not nest": (
        lambda: stochastic.restrict_path(generate_path(SeedSpec(1), GRID), make_grid(1.0, 1 / 3)),
        "cannot restrict a path of 4 steps on T=1.0 to a grid of 3 steps on T=1.0"),
    "linear_test from NaN": (lambda: linear_test(y0=math.nan), "y0 must be finite; got [nan]"),
    "newton_leipnik from NaN": (lambda: newton_leipnik(y0=[math.nan, 0.0, 0.0]),
                                "y0 must be finite; got [nan, 0.0, 0.0]"),
    "newton_leipnik from a 2-D state": (lambda: newton_leipnik(y0=[1.0, 2.0]),
                                        "y0 must have shape (3,), got (2,)"),
    "newton_leipnik from a ragged state": (lambda: newton_leipnik(y0=[1.0, [2.0, 3.0]]),
                                           "y0 must be real numbers; got [1.0, [2.0, 3.0]]"),
    "linear_test from a string": (lambda: linear_test(y0="a"),
                                  "y0 must be real numbers; got ['a']"),
    "lorenz from None components": (lambda: lorenz(y0=[None] * 3),
                                    "y0 must be real numbers; got [None, None, None]"),
    "gamma of a string": (lambda: gamma("a"), "x must be a real number; got 'a'"),
    "gamma at its pole": (lambda: gamma(0), "gamma requires x > 0, got x=0"),
    "mittag_leffler of a string": (lambda: mittag_leffler(0.8, "a"),
                                   "z must be a real number; got 'a'"),
    "mittag_leffler past its radius": (lambda: mittag_leffler(0.8, 9.0),
                                       "mittag_leffler supports |z| <= 5.0, got z=9.0"),
    "lipschitz_bound of a string radius": (lambda: lipschitz_bound(newton_leipnik(), "a"),
                                           "delta must be a real number; got 'a'"),
    "lipschitz_bound of a negative radius": (lambda: lipschitz_bound(newton_leipnik(), -1.0),
                                             "delta must be >= 0, got -1.0"),
    "lipschitz_bound of the linear test": (lambda: lipschitz_bound(linear_test(), 1.0),
                                           "no growth bound for system 'linear_test'"),
    "matrix_form_check of the linear test": (lambda: matrix_form_check(linear_test(), [1.0]),
                                             "no matrix decomposition for system 'linear_test'"),
    "WienerPath on another grid": (lambda: stochastic.WienerPath(GRID, np.zeros((1, 4))),
                                   "cumulative shape does not match grid"),
    "WienerPath from W(0) != 0": (lambda: stochastic.WienerPath(GRID, np.ones((1, 5))),
                                  "W(0) must be 0"),
    "accumulate_stats of no paths": (lambda: accumulate_stats(GRID, []),
                                     "accumulate_stats needs at least one trajectory"),
    "gamma past its float range": (lambda: gamma(172.0), "gamma(x) overflows a float at x=172.0"),
    "gamma below its float range": (lambda: gamma(1e-320),
                                    "gamma(x) overflows a float at x=1e-320"),
    "WienerPath without a grid": (lambda: stochastic.WienerPath(None, np.zeros((1, 5))),
                                  "grid must be a TimeGrid; got None"),
    "WienerPath from a string": (lambda: stochastic.WienerPath(GRID, "abc"),
                                 "cumulative must be real numbers; got 'abc'"),
    "WienerPath from a complex number": (lambda: stochastic.WienerPath(GRID, 1j),
                                         "cumulative must be real numbers; got 1j"),
    "WienerPath from a dict": (lambda: stochastic.WienerPath(GRID, {}),
                               "cumulative must be real numbers; got {}"),
    "SolverConfig with an array noise_history": (
        lambda: SolverConfig(0.8, GRID, noise_history=np.array([0.5, 0.6])),
        "noise_history must be one of per_step, last_increment; got array([0.5, 0.6])"),
    "SolverConfig with an array weight_mode": (
        lambda: SolverConfig(0.8, GRID, weight_mode=np.array([0.5, 0.6])),
        "weight_mode must be one of standard, literal; got array([0.5, 0.6])"),
    "WeightTable with an array mode": (
        lambda: WeightTable(4, 0.8, 0.1, np.array(["standard", "literal"])),
        "mode must be one of standard, literal; got array(['standard', 'literal'], dtype='<U8')"),
    "matrix_form_check of None": (lambda: matrix_form_check(newton_leipnik(), None),
                                  "y must be real numbers; got None"),
    "matrix_form_check of a string": (lambda: matrix_form_check(lorenz(), "abc"),
                                      "y must be real numbers; got 'abc'"),
    "matrix_form_check of a 2-D state": (lambda: matrix_form_check(newton_leipnik(), [1.0, 2.0]),
                                         "y must have shape (3,), got (2,)"),
    # an int past the float range is no finite number, and no TypeError or OverflowError
    "make_grid past the float range": (lambda: make_grid(10**400, 0.25),
                                       f"T must be finite; got {10**400}"),
    "linear_test with a huge lam": (lambda: linear_test(lam=-10**400),
                                    f"lam must be finite; got {-10**400}"),
    "lipschitz_bound of a huge radius": (lambda: lipschitz_bound(lorenz(), 10**400),
                                         f"delta must be finite; got {10**400}"),
    # 2**62 steps would take exbibytes: the bound must come before any allocation
    "WeightTable past the longest grid": (lambda: WeightTable(2**62 + 1, 0.8, 0.1),
                                          f"step index must be in [0, {2**22}); got {2**62}"),
    "corrector_weights past the longest grid": (lambda: corrector_weights(2**62, 0.5),
                                                f"step index must be in [0, {2**22}); got {2**62}"),
    "predictor_weights past the longest grid": (
        lambda: predictor_weights(2**62, 0.5, 0.1),
        f"step index must be in [0, {2**22}); got {2**62}"),
    # so would 2**40 channels, and 2**64 are past any array's size
    "generate_path of 2**40 channels": (
        lambda: generate_path(SeedSpec(1), GRID, 2**40),
        f"num_channels must be at most {2**24 // 5} on a grid of 5 nodes; got {2**40}"),
    "increment_batches of 2**64 channels": (
        lambda: list(increment_batches(1, 2, GRID, 2**64)),
        f"num_channels must be at most {2**24 // 5} on a grid of 5 nodes; got {2**64}"),
    # an argument of the wrong type: one wording for every object the library takes
    "solve without a model": (lambda: solve(None, STOCHASTIC),
                              "model must be a SystemModel; got None"),
    "solve without a config": (lambda: solve(linear_test(), "x"),
                               "cfg must be a SolverConfig; got 'x'"),
    "solve on a number for a path": (lambda: solve(linear_test(), STOCHASTIC, 1.0),
                                     "path must be a WienerPath; got 1.0"),
    "solve_batch without a model": (lambda: solve_batch("x", STOCHASTIC, None),
                                    "model must be a SystemModel; got 'x'"),
    "solve_batch without a config": (lambda: solve_batch(linear_test(), None, None),
                                     "cfg must be a SolverConfig; got None"),
    "generate_path without a seed": (lambda: generate_path(1, GRID),
                                     "seed must be a SeedSpec; got 1"),
    "generate_path without a grid": (lambda: generate_path(SeedSpec(1), None),
                                     "grid must be a TimeGrid; got None"),
    "increment_batches without a grid": (lambda: list(increment_batches(1, 2, 1.0, 1)),
                                         "grid must be a TimeGrid; got 1.0"),
    "restrict_path without a path": (lambda: stochastic.restrict_path(None, GRID),
                                     "path must be a WienerPath; got None"),
    "restrict_path without a grid": (
        lambda: stochastic.restrict_path(generate_path(SeedSpec(1), GRID), "x"),
        "grid must be a TimeGrid; got 'x'"),
    "ensemble_run without a model": (lambda: ensemble_run(None, STOCHASTIC, 1, 2),
                                     "model must be a SystemModel; got None"),
    "ensemble_run without a config": (lambda: ensemble_run(linear_test(), 0.8, 1, 2),
                                      "cfg must be a SolverConfig; got 0.8"),
    "convergence_order without a model": (lambda: convergence_order("x", STOCHASTIC, 3, 1),
                                          "model must be a SystemModel; got 'x'"),
    "convergence_order without a config": (lambda: convergence_order(linear_test(), None, 3),
                                           "cfg must be a SolverConfig; got None"),
    "ito_isometry_check without a grid": (lambda: ito_isometry_check(0.8, None, 1000),
                                          "grid must be a TimeGrid; got None"),
    "accumulate_stats without a grid": (lambda: accumulate_stats("x", [np.zeros((1, 5))]),
                                        "grid must be a TimeGrid; got 'x'"),
    "picard_iterate without a model": (lambda: picard_iterate(None, 0.8, GRID, None, 2),
                                       "model must be a SystemModel; got None"),
    "picard_iterate without a grid": (lambda: picard_iterate(linear_test(), 0.8, "x", None, 2),
                                      "grid must be a TimeGrid; got 'x'"),
    "picard_iterate on a string for a path": (
        lambda: picard_iterate(linear_test(), 0.8, GRID, "x", 2),
        "path must be a WienerPath; got 'x'"),
    "cauchy_diagnostic without a model": (lambda: cauchy_diagnostic(None, 0.8, GRID, 1, 100, 2),
                                          "model must be a SystemModel; got None"),
    "cauchy_diagnostic without a grid": (
        lambda: cauchy_diagnostic(linear_test(), 0.8, 1.0, 1, 100, 2),
        "grid must be a TimeGrid; got 1.0"),
    "diagnostic_rule on a string for a grid": (
        lambda: checks.require(diagnostic_rule(0.8, 100, 2, "x")),
        "grid must be a TimeGrid; got 'x'"),
    "levels_rule on a number for a grid": (lambda: checks.require(levels_rule(3, 1.0)),
                                           "grid must be a TimeGrid; got 1.0"),
    "write_trajectory_csv without a trajectory": (
        lambda: write_trajectory_csv(None, io.StringIO()), "traj must be a Trajectory; got None"),
    "write_stats_csv without stats": (lambda: write_stats_csv("x", io.StringIO()),
                                      "stats must be an EnsembleStats; got 'x'"),
    "write_distance_csv without a report": (lambda: write_distance_csv(None, io.StringIO()),
                                            "report must be a CauchyReport; got None"),
    "matrix_form_check without a model": (lambda: matrix_form_check(None, [1.0]),
                                          "model must be a SystemModel; got None"),
    "lipschitz_bound without a model": (lambda: lipschitz_bound("x", 1.0),
                                        "model must be a SystemModel; got 'x'"),
    "newton_leipnik with Lorenz parameters": (
        lambda: newton_leipnik(LorenzParams()),
        "params must be a NewtonLeipnikParams; got LorenzParams("),
    "lorenz with a number for parameters": (lambda: lorenz(1.0),
                                            "params must be a LorenzParams; got 1.0"),
    # counts checked before they are compared, bools before their truth value
    # is taken, and callables before a run reaches them
    "diagnostic_rule without a path count": (
        lambda: checks.require(diagnostic_rule(0.8, None, 2, GRID)),
        "paths must be an integer; got None"),
    "diagnostic_rule on a string for iterations": (
        lambda: checks.require(diagnostic_rule(0.8, 100, "x", GRID)),
        "iterations must be an integer; got 'x'"),
    "levels_rule without levels": (lambda: checks.require(levels_rule(None, GRID)),
                                   "levels must be an integer; got None"),
    "SolverConfig with an array for stochastic": (
        lambda: SolverConfig(0.8, GRID, stochastic=np.array([1, 0])),
        "stochastic must be a bool; got array([1, 0])"),
    "cauchy_diagnostic with an array for sup_mode": (
        lambda: cauchy_diagnostic(linear_test(), 0.8, GRID, 1, 100, 2, sup_mode=np.array([1, 0])),
        "sup_mode must be a bool; got array([1, 0])"),
    "SystemModel without a drift": (lambda: SystemModel("m", 1, None, rows, [0.0]),
                                    "drift must be callable; got None"),
    "SystemModel without a diffusion": (lambda: SystemModel("m", 1, rows, 1.0, [0.0]),
                                        "diffusion must be callable; got 1.0"),
    "convergence_order on a number for the reference": (
        lambda: convergence_order(linear_test(), SolverConfig(0.8, GRID), 3, reference=5),
        "reference must be callable; got 5"),
}


@pytest.mark.parametrize("entry", BAD_INPUTS)
def test_bad_library_input_is_a_config_error(entry):
    call, message = BAD_INPUTS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("entry", BELOW_LEAST)
def test_count_below_its_least_is_a_config_error(entry):
    # one wording for every count bound, the command line's included
    count, message = BELOW_LEAST[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        COUNT_CALLS[entry][0](count)


@pytest.mark.parametrize("entry", COUNT_CALLS)
def test_numpy_integer_count_is_a_count(entry):
    call, count = COUNT_CALLS[entry]
    call(np.int64(count))


# entry point (argument): the call of one value there, every other argument valid
ODD_ARGUMENTS = {
    "make_grid(T)": lambda v: make_grid(v, 0.25),
    "make_grid(h)": lambda v: make_grid(1.0, v),
    "SolverConfig(alpha)": lambda v: SolverConfig(v, GRID),
    "SolverConfig(grid)": lambda v: SolverConfig(0.8, v),
    "SolverConfig(noise_history)": lambda v: SolverConfig(0.8, GRID, noise_history=v),
    "SolverConfig(weight_mode)": lambda v: SolverConfig(0.8, GRID, weight_mode=v),
    "SeedSpec(master_seed)": lambda v: SeedSpec(v),
    "SeedSpec(path_index)": lambda v: SeedSpec(1, v),
    "SeedSpec(channel_index)": lambda v: SeedSpec(1, 0, v),
    "WeightTable(num_steps)": lambda v: WeightTable(v, 0.8, 0.1),
    "WeightTable(alpha)": lambda v: WeightTable(4, v, 0.1),
    "WeightTable(h)": lambda v: WeightTable(4, 0.8, v),
    "WeightTable(mode)": lambda v: WeightTable(4, 0.8, 0.1, v),
    "corrector_weights(n)": lambda v: corrector_weights(v, 0.8),
    "corrector_weights(alpha)": lambda v: corrector_weights(3, v),
    "corrector_weights(mode)": lambda v: corrector_weights(3, 0.8, v),
    "predictor_weights(n)": lambda v: predictor_weights(v, 0.8, 0.1),
    "predictor_weights(alpha)": lambda v: predictor_weights(3, v, 0.1),
    "predictor_weights(h)": lambda v: predictor_weights(3, 0.8, v),
    "linear_test(lam)": lambda v: linear_test(lam=v),
    "linear_test(sigma0)": lambda v: linear_test(sigma0=v),
    "linear_test(y0)": lambda v: linear_test(y0=v),
    "NewtonLeipnikParams(beta)": lambda v: NewtonLeipnikParams(beta=v),
    "NewtonLeipnikParams(rho)": lambda v: NewtonLeipnikParams(rho=v),
    "NewtonLeipnikParams(mu)": lambda v: NewtonLeipnikParams(mu=v),
    "LorenzParams(a)": lambda v: LorenzParams(a=v),
    "LorenzParams(b)": lambda v: LorenzParams(b=v),
    "LorenzParams(c)": lambda v: LorenzParams(c=v),
    "LorenzParams(mu)": lambda v: LorenzParams(mu=v),
    "newton_leipnik(y0)": lambda v: newton_leipnik(y0=v),
    "lorenz(y0)": lambda v: lorenz(y0=v),
    "SystemModel(dim)": lambda v: SystemModel("m", v, rows, rows, [0.0]),
    "SystemModel(y0)": lambda v: SystemModel("m", 2, rows, rows, v),
    "gamma(x)": gamma,
    "mittag_leffler(alpha)": lambda v: mittag_leffler(v, -0.5),
    "mittag_leffler(z)": lambda v: mittag_leffler(0.8, v),
    "lipschitz_bound(delta)": lambda v: lipschitz_bound(lorenz(), v),
    "matrix_form_check(y)": lambda v: matrix_form_check(newton_leipnik(), v),
    "WienerPath(cumulative)": lambda v: stochastic.WienerPath(GRID, v),
    "generate_path(num_channels)": lambda v: generate_path(SeedSpec(1), GRID, v),
    "increment_batches(num_channels)": lambda v: list(increment_batches(1, 2, GRID, v)),
}
# the counts that size a weight table: a valid one runs, so a huge one is left out
TABLE_COUNTS = {"WeightTable(num_steps)", "corrector_weights(n)", "predictor_weights(n)"}
# the counts that size a Wiener path: likewise
CHANNEL_COUNTS = {"generate_path(num_channels)", "increment_batches(num_channels)"}

NUMPY_SCALARS = st.sampled_from(["float16", "float32", "float64", "int8", "int64", "uint64", "bool",
                                 "complex128"]).map(np.dtype).flatmap(hnp.from_dtype)
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.binary(max_size=4),
    st.sampled_from([0, 0.0, -1, -2**63, 2**40, 2**64, 2**70, 10**400, -10**400, math.nan,
                     math.inf, -math.inf, 5e-324, 1e-310, 1e-320, 1e308, 1e200, 171.0, 172.0]),
    st.integers(), st.floats(), NUMPY_SCALARS, st.complex_numbers(),
    st.fractions(), st.decimals(), st.sampled_from([Fraction(1, 10**400), Decimal("0.5")]),
    hnp.arrays(st.sampled_from([np.float64, np.float16, np.int64, np.complex128]),
               st.sampled_from([(), (1,), (2,), (3,), (1, 5)])),
    st.lists(st.one_of(st.floats(), st.integers(), st.none()), max_size=4),
)


@pytest.mark.filterwarnings("ignore:rho=:UserWarning")
@settings(derandomize=True, deadline=None, max_examples=1500,
          suppress_health_check=[HealthCheck.too_slow])
@given(entry=st.sampled_from(sorted(ODD_ARGUMENTS)), value=ODD_VALUES)
def test_odd_scalar_input_returns_or_is_a_config_error(entry, value):
    # the library twin of the command-line fuzz: whatever lands in one
    # argument, the call returns or raises ConfigError, nothing else
    if entry in TABLE_COUNTS and not checks.integer_rule(n=value):
        assume(value <= 1000 or value >= checks.MAX_STEPS)
    if entry in CHANNEL_COUNTS and not checks.integer_rule(n=value):
        assume(value <= 1000 or value > checks.MAX_PATH_FLOATS // GRID.num_nodes)
    try:
        ODD_ARGUMENTS[entry](value)
    except ConfigError:
        pass


PATH = generate_path(SeedSpec(1), GRID)
# entry point (argument): the call of one object there, every other argument
# valid; the positions that carry a type, bool, callable or count rule
OBJECT_ARGUMENTS = {
    "solve(model)": lambda v: solve(v, STOCHASTIC, PATH),
    "solve(cfg)": lambda v: solve(linear_test(sigma0=1.0), v, PATH),
    "solve(path)": lambda v: solve(linear_test(sigma0=1.0), STOCHASTIC, v),
    "solve_batch(model)": lambda v: solve_batch(v, STOCHASTIC, PATH.increments),
    "solve_batch(cfg)": lambda v: solve_batch(linear_test(), v, PATH.increments),
    "SolverConfig(grid)": lambda v: SolverConfig(0.8, v),
    "SolverConfig(stochastic)": lambda v: SolverConfig(0.8, GRID, stochastic=v),
    "SystemModel(drift)": lambda v: SystemModel("m", 1, v, rows, [0.0]),
    "SystemModel(diffusion)": lambda v: SystemModel("m", 1, rows, v, [0.0]),
    "generate_path(seed)": lambda v: generate_path(v, GRID),
    "generate_path(grid)": lambda v: generate_path(SeedSpec(1), v),
    "increment_batches(grid)": lambda v: list(increment_batches(1, 2, v, 1)),
    "restrict_path(path)": lambda v: stochastic.restrict_path(v, GRID),
    "restrict_path(grid)": lambda v: stochastic.restrict_path(PATH, v),
    "WienerPath(grid)": lambda v: stochastic.WienerPath(v, PATH.cumulative),
    "accumulate_stats(grid)": lambda v: accumulate_stats(v, [np.zeros((1, 5))]),
    "ito_isometry_check(grid)": lambda v: ito_isometry_check(0.8, v, 1000),
    "ensemble_run(model)": lambda v: ensemble_run(v, STOCHASTIC, 1, 2),
    "ensemble_run(cfg)": lambda v: ensemble_run(linear_test(), v, 1, 2),
    "convergence_order(model)": lambda v: convergence_order(v, STOCHASTIC, 3, 1),
    "convergence_order(cfg)": lambda v: convergence_order(linear_test(), v, 3, 1),
    "convergence_order(reference)": lambda v: convergence_order(
        linear_test(), SolverConfig(0.8, GRID), 3, reference=v),
    "levels_rule(levels)": lambda v: checks.require(levels_rule(v, GRID)),
    "levels_rule(grid)": lambda v: checks.require(levels_rule(3, v)),
    "picard_iterate(model)": lambda v: picard_iterate(v, 0.8, GRID, None, 2),
    "picard_iterate(grid)": lambda v: picard_iterate(linear_test(), 0.8, v, None, 2),
    "picard_iterate(path)": lambda v: picard_iterate(linear_test(), 0.8, GRID, v, 2),
    "cauchy_diagnostic(model)": lambda v: cauchy_diagnostic(v, 0.8, GRID, 1, 100, 2),
    "cauchy_diagnostic(grid)": lambda v: cauchy_diagnostic(linear_test(), 0.8, v, 1, 100, 2),
    "cauchy_diagnostic(sup_mode)": lambda v: cauchy_diagnostic(linear_test(), 0.8, GRID, 1, 100,
                                                               2, sup_mode=v),
    "diagnostic_rule(M)": lambda v: checks.require(diagnostic_rule(0.8, v, 2, GRID)),
    "diagnostic_rule(K)": lambda v: checks.require(diagnostic_rule(0.8, 100, v, GRID)),
    "diagnostic_rule(grid)": lambda v: checks.require(diagnostic_rule(0.8, 100, 2, v)),
    "matrix_form_check(model)": lambda v: matrix_form_check(v, [1.0, 2.0, 3.0]),
    "lipschitz_bound(model)": lambda v: lipschitz_bound(v, 1.0),
    "newton_leipnik(params)": lambda v: newton_leipnik(v),
    "lorenz(params)": lambda v: lorenz(v),
    "write_trajectory_csv(traj)": lambda v: write_trajectory_csv(v, io.StringIO()),
    "write_stats_csv(stats)": lambda v: write_stats_csv(v, io.StringIO()),
    "write_distance_csv(report)": lambda v: write_distance_csv(v, io.StringIO()),
}
# one object of each type the library takes, so that most land where another belongs
OBJECTS = [
    GRID, make_grid(1.0, 0.5), STOCHASTIC, SolverConfig(0.8, GRID), SeedSpec(1), PATH,
    generate_path(SeedSpec(2), GRID, 3), linear_test(), newton_leipnik(), NewtonLeipnikParams(),
    LorenzParams(), solve(linear_test(sigma0=1.0), STOCHASTIC, PATH),
    accumulate_stats(GRID, [np.zeros((1, 5))]),
    CauchyReport(distances=np.ones(1), converged=False, max_terminal_l2=1.0),
]


# half of the draws are objects: one_of would give them one branch of ODD_VALUES' many
OBJECT_VALUES = st.booleans().flatmap(lambda obj: st.sampled_from(OBJECTS) if obj else ODD_VALUES)


@pytest.mark.filterwarnings("ignore:rho=:UserWarning")
@settings(derandomize=True, deadline=None, max_examples=1500,
          suppress_health_check=[HealthCheck.too_slow])
@given(entry=st.sampled_from(sorted(OBJECT_ARGUMENTS)), value=OBJECT_VALUES)
def test_odd_object_input_returns_or_is_a_config_error(entry, value):
    # the object twin of the scalar test: an object of the wrong type, or a
    # value that is no object at all, returns or raises ConfigError
    try:
        OBJECT_ARGUMENTS[entry](value)
    except ConfigError:
        pass


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
