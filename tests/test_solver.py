import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from sfode import solver
from sfode.checks import ConfigError
from sfode.picard import _iterates
from sfode.solver import (
    BLOCK,
    LAG_MATRIX_MAX,
    DivergenceError,
    NoiseHistory,
    SolverConfig,
    Trajectory,
    _Stepper,
    solve,
    solve_batch,
    write_trajectory_csv,
)
from sfode.special import gamma, mittag_leffler
from sfode.stochastic import SeedSpec, generate_path, make_grid
from sfode.systems import (
    LorenzParams,
    NewtonLeipnikParams,
    SystemModel,
    linear_test,
    lorenz,
    newton_leipnik,
)
from sfode.weights import WeightMode, WeightTable, corrector_weights, predictor_weights


def constant_diffusion_model(sigma0: float, y0: float = 0.0) -> SystemModel:
    return linear_test(lam=0.0, sigma0=sigma0, y0=y0)


def reference_pece(model, cfg, dW) -> np.ndarray:
    """Node states (d, nodes) of one path by the plain PECE loop.

    Fresh weight vectors at every step and separate drift and noise
    (d, n+1) @ w history products; dW is (d, num_steps), None if deterministic.
    """
    alpha, h, steps = cfg.alpha, cfg.grid.h, cfg.grid.num_steps
    t = cfg.grid.nodes()
    per_step = cfg.noise_history is NoiseHistory.PER_STEP
    inv_gamma_a = 1.0 / math.gamma(alpha)
    corr_drift = h**alpha / math.gamma(alpha + 2.0)
    corr_noise = h ** (alpha - 1.0) / math.gamma(alpha + 2.0)
    y0 = model.y0
    y = np.empty((model.dim, steps + 1))
    f = np.empty((model.dim, steps + 1))
    g = np.empty((model.dim, steps))
    y[:, 0] = y0

    def record(j):
        f[:, j] = model.drift(t[j], y[:, j])
        if dW is not None and j < steps:
            sigma = np.asarray(model.diffusion(t[j], y[:, j]))
            g[:, j] = sigma * dW[:, j] if per_step else sigma

    def noise_sum(n, w):
        total = g[:, :n + 1] @ w
        return total if per_step else total * dW[:, n]

    record(0)
    for n in range(steps):
        b = predictor_weights(n, alpha, h)
        a = corrector_weights(n, alpha, cfg.weight_mode)[:n + 1]
        yp = y0 + inv_gamma_a * (f[:, :n + 1] @ b)
        if dW is not None:
            yp = yp + (inv_gamma_a / h) * noise_sum(n, b)
        yc = y0 + corr_drift * (np.asarray(model.drift(t[n + 1], yp)) + f[:, :n + 1] @ a)
        if dW is not None:
            yc = yc + corr_noise * (np.asarray(model.diffusion(t[n + 1], yp)) * dW[:, n]
                                    + noise_sum(n, a))
        y[:, n + 1] = yc
        record(n + 1)
    return y


# deterministic runs, then stochastic runs in each noise-history mode
RUN_KINDS = [(False, NoiseHistory.PER_STEP)] + [(True, mode) for mode in NoiseHistory]


def noise_cases(*steps):
    """(noise_history, step) cases of both modes; per_step ones keep the bare step as id."""
    return [pytest.param(mode, step, id=f"{step}" if mode is NoiseHistory.PER_STEP
                         else f"{mode.value}-{step}")
            for mode in NoiseHistory for step in steps]


def primed_stepper(states, path, model, cfg, n) -> _Stepper:
    """A stepper whose caches hold the node values states[:, 0..n]."""
    stepper = _Stepper(model, cfg, None if path is None else path.increments)
    for j in range(n + 1):
        stepper.push(j, states[:, j].tolist())
    return stepper


def take_step(states, path, model, cfg, n):
    """(predictor, state at t_{n+1}) of step n on a stepper primed with
    states[:, 0..n]: the predictor is the state that the drift receives
    first at t_{n+1}."""
    received = []

    def drift(t, y):
        received.append((t, list(y)))
        return model.drift(t, y)

    stepper = primed_stepper(states, path, dataclasses.replace(model, drift=drift), cfg, n)
    out = np.empty((model.dim, cfg.grid.num_nodes))
    stepper.advance(out, n, n + 1)
    t_next = cfg.grid.nodes()[n + 1]
    return next(y for t, y in received if t == t_next), out[:, n + 1]


class TestConfig:
    def test_alpha_range(self):
        grid = make_grid(1.0, 0.5)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0, grid=grid)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.2, grid=grid)

    def test_stochastic_needs_alpha_above_half(self):
        grid = make_grid(1.0, 0.5)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.3, grid=grid, stochastic=True)
        SolverConfig(alpha=0.3, grid=grid)  # deterministic is fine

    @pytest.mark.parametrize("key, choices", [("noise_history", "per_step, last_increment"),
                                              ("weight_mode", "standard, literal")])
    def test_unknown_mode_is_a_config_error(self, key, choices):
        # the command line's message, not the enum module's ValueError
        with pytest.raises(ConfigError, match=f"^{key} must be one of {choices}; got 'bogus'$"):
            SolverConfig(0.8, make_grid(1.0, 0.5), **{key: "bogus"})
        cfg = SolverConfig(0.8, make_grid(1.0, 0.5), noise_history="last_increment",
                           weight_mode=WeightMode.LITERAL)
        assert (cfg.noise_history, cfg.weight_mode) == (NoiseHistory.LAST_INCREMENT,
                                                        WeightMode.LITERAL)

    def test_path_presence(self):
        grid = make_grid(1.0, 0.25)
        cfg = SolverConfig(alpha=0.8, grid=grid, stochastic=True)
        with pytest.raises(ValueError):
            solve(constant_diffusion_model(1.0), cfg)
        wrong_grid = generate_path(SeedSpec(0), make_grid(1.0, 0.5))
        with pytest.raises(ValueError):
            solve(constant_diffusion_model(1.0), cfg, wrong_grid)
        wrong_channels = generate_path(SeedSpec(0), grid, num_channels=2)
        with pytest.raises(ValueError):
            solve(constant_diffusion_model(1.0), cfg, wrong_channels)


class TestSolveBatchInput:
    """solve_batch checks dW itself: solve and ensembles share these checks."""

    model = newton_leipnik()
    grid = make_grid(0.25, 0.025)

    def test_stochastic_needs_dW(self):
        cfg = SolverConfig(alpha=0.9, grid=self.grid, stochastic=True)
        with pytest.raises(ValueError, match="requires Wiener increments"):
            solve_batch(self.model, cfg, None)

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("channels,extra_steps", [(1, 0), (2, 0), (4, 0), (3, 1), (3, -1)])
    def test_dW_shape_must_match(self, stochastic, channels, extra_steps):
        cfg = SolverConfig(alpha=0.9, grid=self.grid, stochastic=stochastic)
        dW = np.zeros((2, channels, self.grid.num_steps + extra_steps))
        with pytest.raises(ValueError, match="dW is shaped"):
            solve_batch(self.model, cfg, dW)

    def test_flat_dW_is_rejected(self):
        cfg = SolverConfig(alpha=0.9, grid=self.grid, stochastic=True)
        with pytest.raises(ValueError, match="dW is shaped"):
            solve_batch(self.model, cfg, np.zeros(3 * self.grid.num_steps))


class TestDeterministic:
    def test_zero_system_stays_put(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=1.5)
        cfg = SolverConfig(alpha=0.6, grid=make_grid(1.0, 0.05))
        traj = solve(model, cfg)
        np.testing.assert_array_equal(traj.states, 1.5)

    def test_initial_state_recorded(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.1, 0.005))
        traj = solve(model, cfg)
        np.testing.assert_array_equal(traj.states[:, 0], model.y0)

    def test_mittag_leffler_oracle(self):
        model = linear_test(lam=1.0)
        grid = make_grid(1.0, 1.0 / 200)
        traj = solve(model, SolverConfig(alpha=0.8, grid=grid))
        exact = np.array([mittag_leffler(0.8, -(t**0.8)) for t in grid.nodes()])
        assert np.max(np.abs(traj.states[0] - exact)) <= 1e-3

    def test_classical_limit(self):
        model = linear_test(lam=1.0)
        traj = solve(model, SolverConfig(alpha=1.0, grid=make_grid(1.0, 0.01)))
        assert abs(traj.states[0, -1] - math.exp(-1.0)) <= 1e-4

    def test_alpha_one_matches_directly_coded_scheme(self):
        # independent comparator: rectangle-rule predictor plus trapezoid
        # corrector over the full history, written as plain loops
        lam, h, steps = 1.3, 0.02, 50
        model = linear_test(lam=lam, y0=1.0)
        grid = make_grid(steps * h, h)
        traj = solve(model, SolverConfig(alpha=1.0, grid=grid))

        f = lambda y: -lam * y
        y = np.empty(steps + 1)
        y[0] = 1.0
        fs = [f(y[0])]
        for n in range(steps):
            yp = y[0] + h * sum(fs)
            hist = fs[0] + 2.0 * sum(fs[1:]) if n >= 1 else fs[0]
            y[n + 1] = y[0] + (h / 2.0) * (f(yp) + hist)
            fs.append(f(y[n + 1]))
        np.testing.assert_allclose(traj.states[0], y, atol=1e-12)

    def test_order_at_least_one(self):
        model = linear_test(lam=1.0)
        errs = []
        for steps in (50, 100, 200):
            grid = make_grid(1.0, 1.0 / steps)
            traj = solve(model, SolverConfig(alpha=0.8, grid=grid))
            exact = np.array([mittag_leffler(0.8, -(t**0.8)) for t in grid.nodes()])
            errs.append(np.max(np.abs(traj.states[0] - exact)))
        assert math.log2(errs[0] / errs[1]) >= 1.0
        assert math.log2(errs[1] / errs[2]) >= 1.0

    def test_manufactured_polynomial_solution(self):
        # y(t) = t**2 solves D^alpha y = 2 t**(2-alpha)/Gamma(3-alpha) once a
        # vanishing (y - t**2) coupling is added; independent of the
        # Mittag-Leffler oracle and exercises a time-dependent drift
        alpha = 0.6

        def drift(t, y):
            forcing = 2.0 * t ** (2.0 - alpha) / gamma(3.0 - alpha)
            return [forcing + (y[0] - t * t)]

        model = SystemModel(
            name="poly", dim=1, drift=drift,
            diffusion=lambda t, y: [np.zeros_like(x) for x in y], y0=np.array([0.0]),
        )
        errs = []
        for steps in (100, 200):
            grid = make_grid(1.0, 1.0 / steps)
            traj = solve(model, SolverConfig(alpha=alpha, grid=grid))
            errs.append(np.max(np.abs(traj.states[0] - grid.nodes() ** 2)))
        assert errs[-1] <= 5e-4
        assert math.log2(errs[0] / errs[1]) >= 1.0

    def test_newton_leipnik_first_step_consistency(self):
        model = newton_leipnik()
        h = 0.005
        cfg = SolverConfig(alpha=0.93, grid=make_grid(1.0, h))
        traj = solve(model, cfg)
        step = np.linalg.norm(traj.states[:, 1] - model.y0)
        assert np.all(np.isfinite(traj.states[:, 1]))
        assert step <= 10.0 * h * np.linalg.norm(model.drift(0.0, model.y0))


class TestPredictCorrect:
    def test_predictor_first_step_constant_diffusion(self):
        alpha, h, sigma0 = 0.7, 0.125, 2.5
        grid = make_grid(1.0, h)
        model = constant_diffusion_model(sigma0, y0=1.0)
        cfg = SolverConfig(alpha=alpha, grid=grid, stochastic=True)
        path = generate_path(SeedSpec(4), grid)
        yp, _ = take_step(np.array([[1.0]]), path, model, cfg, 0)
        expected = 1.0 + (h**alpha / alpha) * sigma0 * path.increments[0, 0] / (gamma(alpha) * h)
        assert yp[0] == pytest.approx(expected, rel=1e-14)

    def test_predictor_alpha_one_is_euler_history_sum(self):
        lam, h = 0.9, 0.1
        model = linear_test(lam=lam, y0=1.0)
        grid = make_grid(1.0, h)
        cfg = SolverConfig(alpha=1.0, grid=grid)
        traj = solve(model, cfg)
        n = 5
        yp, _ = take_step(traj.states, None, model, cfg, n)
        history_sum = 1.0 + h * sum(-lam * traj.states[0, j] for j in range(n + 1))
        assert yp[0] == pytest.approx(history_sum, rel=1e-13)

    @pytest.mark.parametrize("mode", list(NoiseHistory))
    def test_step_functions_reproduce_solve(self, mode):
        model = newton_leipnik()
        grid = make_grid(0.5, 0.025)
        cfg = SolverConfig(alpha=0.9, grid=grid, stochastic=True, noise_history=mode)
        path = generate_path(SeedSpec(21), grid, num_channels=3)
        traj = solve(model, cfg, path)
        for n in (0, 3, grid.num_steps - 1):
            _, yc = take_step(traj.states, path, model, cfg, n)
            np.testing.assert_array_equal(yc, traj.states[:, n + 1])

    def test_zero_system_correction_stays_at_start(self):
        model = linear_test(lam=0.0, sigma0=0.0, y0=2.0)
        grid = make_grid(1.0, 0.25)
        cfg = SolverConfig(alpha=0.8, grid=grid)
        yp, yc = take_step(np.full((1, 1), 2.0), None, model, cfg, 0)
        assert yp[0] == 2.0 and yc[0] == 2.0


class TestReferenceOracle:
    """solve and solve_batch equal the plain PECE loop bit for bit."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("weight_mode", list(WeightMode))
    @pytest.mark.parametrize("noise_history", list(NoiseHistory))
    def test_matches_reference(self, noise_history, weight_mode, stochastic, dim, batch):
        model = (linear_test(lam=0.8, sigma0=0.3, y0=0.5) if dim == 1
                 else newton_leipnik())
        cfg = SolverConfig(alpha=0.83, grid=make_grid(0.16, 0.01), stochastic=stochastic,
                           noise_history=noise_history, weight_mode=weight_mode)
        paths = [generate_path(SeedSpec(31, i), cfg.grid, dim) for i in range(batch)]
        batched = solve_batch(model, cfg, np.stack([p.increments for p in paths]))
        for i, path in enumerate(paths):
            expected = reference_pece(model, cfg, path.increments if stochastic else None)
            np.testing.assert_array_equal(solve(model, cfg, path).states, expected)
            np.testing.assert_array_equal(batched[i], expected)


    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("stochastic,noise_history", RUN_KINDS)
    def test_batches_past_one_block(self, stochastic, noise_history, size):
        # past BLOCK steps the far field rounds differently from the plain
        # loop, but every path of a batch still rounds exactly as alone
        # (literal weights blow this run up within one block; TestFarField
        # checks their far-field sums)
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.83, grid=make_grid(2.5, 1 / 256), stochastic=stochastic,
                           noise_history=noise_history)
        assert cfg.grid.num_steps > 2 * BLOCK
        paths = [generate_path(SeedSpec(31, i), cfg.grid, 3) for i in range(size)]
        batched = solve_batch(model, cfg, np.stack([p.increments for p in paths]))
        for i, path in enumerate(paths):
            single = solve(model, cfg, path).states
            np.testing.assert_array_equal(batched[i], single)
        expected = reference_pece(model, cfg, paths[-1].increments if stochastic else None)
        assert np.max(np.abs(single - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1,
                                       4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1])
    @pytest.mark.parametrize("stochastic,noise_history", RUN_KINDS)
    def test_runs_around_one_block(self, stochastic, noise_history, steps):
        # the first BLOCK steps are plain full-memory sums; the step past
        # them is the first with a far field, and from step 4 * BLOCK on the
        # square of four blocks feeds it
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.83, grid=make_grid(steps / 256, 1 / 256),
                           stochastic=stochastic, noise_history=noise_history)
        assert cfg.grid.num_steps == steps
        path = generate_path(SeedSpec(37), cfg.grid, 3)
        got = solve(model, cfg, path).states
        expected = reference_pece(model, cfg, path.increments if stochastic else None)
        np.testing.assert_array_equal(got[:, :BLOCK + 1], expected[:, :BLOCK + 1])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestBatchAxes:
    """Any leading batch shape of dW: each path equals its own solve."""

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2, 1, 3)])
    @pytest.mark.parametrize("steps", [64, BLOCK + 100])
    def test_columns_match_single_paths(self, shape, steps):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.9, grid=make_grid(steps / 128, 1 / 128), stochastic=True)
        count = math.prod(shape)
        paths = [generate_path(SeedSpec(9, i), cfg.grid, 3) for i in range(count)]
        dW = np.stack([p.increments for p in paths])
        states = solve_batch(model, cfg, dW.reshape(shape + dW.shape[1:]))
        assert states.shape == shape + (3, steps + 1)
        for i, path in enumerate(paths):
            np.testing.assert_array_equal(states[np.unravel_index(i, shape)],
                                          solve(model, cfg, path).states)

    STEPS = 2 * LAG_MATRIX_MAX + BLOCK + 37  # past the first FFT square's first target
    MODELS = {
        "linear_test": lambda: linear_test(lam=0.8, sigma0=0.3, y0=0.5),
        "lorenz": lambda: lorenz(LorenzParams(mu=0.01)),
        "newton_leipnik": newton_leipnik,
    }

    @staticmethod
    def outcome(run):
        """The states run() returns, or the message, step and time of the
        DivergenceError it raises (a batch also names the path)."""
        try:
            return run()
        except DivergenceError as err:
            return str(err), err.step, err.time

    def assert_loop_matches_kernel(self, model, cfg, path):
        # solve steps one path on Python-float rows, and a batch of one
        # path on (1,)-array rows of the same code
        single = self.outcome(lambda: solve(model, cfg, path).states)
        row = self.outcome(lambda: solve_batch(model, cfg, path.increments[None])[0])
        if isinstance(row, tuple):
            assert single == row
        else:
            np.testing.assert_array_equal(single, row)

    @pytest.mark.parametrize("system", sorted(MODELS))
    @pytest.mark.parametrize("weight_mode", list(WeightMode))
    @pytest.mark.parametrize("stochastic,noise_history", RUN_KINDS)
    def test_one_path_loop_matches_the_batch_kernel(self, stochastic, noise_history,
                                                    weight_mode, system):
        # literal weights diverge within the run: then the loop's blocks
        # before the replayed one fix the error's step
        model = self.MODELS[system]()
        cfg = SolverConfig(alpha=0.9, grid=make_grid(self.STEPS / 256, 1 / 256),
                           stochastic=stochastic, noise_history=noise_history,
                           weight_mode=weight_mode)
        self.assert_loop_matches_kernel(model, cfg, generate_path(SeedSpec(13), cfg.grid,
                                                                  model.dim))

    @pytest.mark.parametrize("returned", [list, tuple, np.array], ids=["list", "tuple", "array"])
    @pytest.mark.parametrize("stochastic,noise_history", RUN_KINDS)
    def test_rows_returned_as_a_list_tuple_or_array(self, returned, stochastic, noise_history):
        # the built-in models return lists; the same rows as a tuple or as
        # an array whose first axis is the component give the same bytes
        model = newton_leipnik()
        wrapped = dataclasses.replace(model, drift=lambda t, y: returned(model.drift(t, y)),
                                      diffusion=lambda t, y: returned(model.diffusion(t, y)))
        cfg = SolverConfig(alpha=0.9, grid=make_grid(self.STEPS / 256, 1 / 256),
                           stochastic=stochastic, noise_history=noise_history)
        path = generate_path(SeedSpec(13), cfg.grid, 3)
        self.assert_loop_matches_kernel(wrapped, cfg, path)
        assert (solve(wrapped, cfg, path).states.tobytes()
                == solve(model, cfg, path).states.tobytes())
        dW = np.stack([path.increments, generate_path(SeedSpec(13, 1), cfg.grid, 3).increments])
        assert solve_batch(wrapped, cfg, dW).tobytes() == solve_batch(model, cfg, dW).tobytes()
        sweeps = [_iterates(m, 0.9, cfg.grid, dW if stochastic else None, 2)
                  for m in (wrapped, model)]
        for got, expected in zip(*sweeps):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["drift", "diffusion"])
    def test_result_of_the_wrong_length_is_a_value_error(self, kind):
        # the loop reads model results component by component: a short
        # result, here from a step of the second block on, must fail the
        # model's shape check, not shorten the state
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.9, grid=make_grid(BLOCK * 3 / 256, 1 / 256),
                           stochastic=True)
        t_short, full = cfg.grid.nodes()[BLOCK + 5], getattr(model, kind)
        short = dataclasses.replace(
            model, **{kind: lambda t, y: full(t, y)[:2] if t >= t_short else full(t, y)})
        path = generate_path(SeedSpec(13), cfg.grid, 3)
        message = re.escape(f"newton_leipnik {kind} must return 3 component rows; got 2")
        with pytest.raises(ValueError, match=message):
            solve(short, cfg, path)
        # and the unchecked kernel raises it itself, before the replay
        stepper = _Stepper(short, cfg, path.increments)
        states = np.empty((3, cfg.grid.num_nodes))
        stepper.push(0, stepper.y0.tolist())
        stepper.checked = False
        stepper.advance(states, 0, BLOCK)
        stepper._far_field(BLOCK)
        with pytest.raises(ValueError, match=message):
            stepper.advance(states, BLOCK, 2 * BLOCK)


    @pytest.mark.parametrize("step", [0, BLOCK + 5])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["drift", "diffusion"])
    def test_one_path_row_that_is_no_number_is_a_value_error(self, kind, dim, step):
        # a row of one path is used as a number: a (1,)-shaped one, from node
        # 0 or from a step of the second block on, must fail the checked
        # replay with the model's row-shape message, not with numpy's from a
        # record write that names neither the model nor the callable
        cfg = SolverConfig(alpha=0.9, grid=make_grid(BLOCK * 3 / 256, 1 / 256),
                           stochastic=True)
        t_bad = cfg.grid.nodes()[step]
        rhs = {"drift": lambda t, y: [-x for x in y],
               "diffusion": lambda t, y: [0.1 * x for x in y]}
        ok = rhs[kind]
        rhs[kind] = lambda t, y: [np.array([x]) if t >= t_bad else x for x in ok(t, y)]
        model = SystemModel("lin", dim, rhs["drift"], rhs["diffusion"], [1.0] * dim)
        message = re.escape(f"lin {kind} returned a row of shape (1,) for state rows ()")
        with pytest.raises(ValueError, match=message):
            solve(model, cfg, generate_path(SeedSpec(13), cfg.grid, dim))


class TestFarField:
    """Every step's predictor and corrector sums equal the direct full-memory
    sums hist[..., :n+1] @ w to 1e-12 relative to sum |w| |g|, on a recorded
    history replayed step by step; within the first block they are equal."""

    STEPS = 5 * BLOCK + 37

    def replay(self, source, stochastic, noise_history, weight_mode):
        """A fresh stepper for a STEPS-step run, and the history g, shaped
        (blocks, d, STEPS + 1), to replay into it: random numbers spread over
        six decades, or the records of a solved run (standard weights, so
        that literal-mode sums are taken on a history that stays bounded)."""
        model, alpha = {
            "random": (newton_leipnik(), 0.83),
            "fig1": (newton_leipnik(NewtonLeipnikParams(mu=0.1)), 0.93),
            "lorenz": (lorenz(LorenzParams(mu=0.01)), 0.88),
        }[source]
        grid = make_grid(self.STEPS / 256, 1 / 256)
        cfg = SolverConfig(alpha=alpha, grid=grid, stochastic=stochastic,
                           noise_history=noise_history, weight_mode=weight_mode)
        path = generate_path(SeedSpec(5), grid, 3)
        stepper = _Stepper(model, cfg, path.increments)
        blocks = 2 if stochastic else 1
        if source == "random":
            rng = np.random.default_rng(17)
            scale = np.exp(rng.uniform(-7.0, 7.0, (blocks, 3, 1)))
            return stepper, scale * rng.standard_normal((blocks, 3, self.STEPS + 1))
        run = SolverConfig(alpha=alpha, grid=grid, stochastic=stochastic)
        states = solve(model, run, path).states
        g = np.zeros((blocks, 3, self.STEPS + 1))
        g[0] = model.drift(0.0, states)  # both systems are autonomous
        if stochastic:
            sigma = np.asarray(model.diffusion(0.0, states[:, :-1]))
            per_step = noise_history is NoiseHistory.PER_STEP
            g[1, :, :-1] = sigma * path.increments if per_step else sigma
        return stepper, g

    @pytest.mark.parametrize("weight_mode", list(WeightMode))
    @pytest.mark.parametrize("stochastic,noise_history", RUN_KINDS)
    @pytest.mark.parametrize("source", ["random", "fig1", "lorenz"])
    def test_sums_match_direct(self, source, stochastic, noise_history, weight_mode):
        stepper, g = self.replay(source, stochastic, noise_history, weight_mode)
        alpha, h = stepper.table.alpha, stepper.table.h
        worst = 0.0
        for n in range(self.STEPS):
            stepper.hist[..., n] = g[..., n]
            if n and not n % BLOCK:  # a block start, as in solve_batch
                stepper._far_field(n)
            sums = np.reshape(stepper.sums(n), (2,) + g.shape[:-1])  # rows as (blocks, d)
            weights = (predictor_weights(n, alpha, h),
                       corrector_weights(n, alpha, weight_mode)[:n + 1])
            for got, w in zip(sums, weights):
                direct = g[..., :n + 1] @ w
                if n < BLOCK:
                    np.testing.assert_array_equal(got, direct)
                scale = np.maximum(np.abs(g[..., :n + 1]) @ np.abs(w), np.finfo(float).tiny)
                error = np.abs(got - direct) / scale
                worst = max(worst, float(np.max(error)))
        assert worst <= 1e-12

    def test_fft_squares_match_direct(self, monkeypatch):
        # take every square past BLOCK nodes by FFT, which a run this short
        # does not at the default LAG_MATRIX_MAX
        monkeypatch.setattr(solver, "LAG_MATRIX_MAX", BLOCK)
        self.test_sums_match_direct("random", True, NoiseHistory.PER_STEP, WeightMode.STANDARD)

    def test_one_transform_per_square(self, monkeypatch):
        # a deterministic scalar run has one history row, so each FFT square
        # is one chunk: one rfft of the row, one rfft of the square's lags
        # (both lag vectors in one call) and an irfft per lag vector
        # (predictor, corrector).  Its squares reach 8192 nodes
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _transform(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        steps = 16384
        solve(linear_test(), SolverConfig(alpha=0.8, grid=make_grid(steps / 1024, 1 / 1024)))
        squares = [solver._square(e) for e in range(BLOCK, steps, BLOCK)]
        fft = [L for L in squares if L > solver.LAG_MATRIX_MAX]
        assert max(fft) == 8192
        assert calls == {"rfft": 2 * len(fft), "irfft": 2 * len(fft)}

    def test_far_field_keeps_no_transforms(self):
        # after the far field of a 2**17-step run the stepper keeps its lag
        # matrices, 0.3 MiB, and nothing of its FFT squares, whose lags'
        # transforms for every square size would take 4 MiB more
        steps = 2**17
        cfg = SolverConfig(alpha=0.8, grid=make_grid(steps / 1024, 1 / 1024))
        stepper = _Stepper(linear_test(), cfg, None)
        stepper.hist[...] = np.random.default_rng(3).standard_normal(stepper.hist.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for end in range(BLOCK, steps, BLOCK):
                stepper._far_field(end)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2 * 2**20

    def test_one_path_keeps_one_copy_of_its_weights(self, monkeypatch):
        # a one-path run of 1000 steps has squares of 256 and 512 nodes: it
        # builds no lag matrix of more than LAG_MATRIX_MAX source nodes, and
        # its kernel reads the weight table's two rows in place
        made = []

        class Recorded(_Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver, "_Stepper", Recorded)
        steps = 1000
        cfg = SolverConfig(alpha=0.9, grid=make_grid(steps / 256, 1 / 256), stochastic=True)
        solve(newton_leipnik(), cfg, generate_path(SeedSpec(3), cfg.grid, 3))
        (stepper,) = made
        assert max(solver._square(e) for e in range(BLOCK, steps, BLOCK)) == 512
        assert max(m.shape[0] for m in stepper.kernel._built.values()) <= LAG_MATRIX_MAX
        for weights in (stepper.table.b, stepper.table.a):
            assert np.shares_memory(stepper.kernel.k, weights)


def whole_square_ring(steps: int) -> int:
    """The ring of a far field that adds every square whole at its own block
    start: the least BLOCK * 2**k that holds the targets of any one square."""
    ahead = max(min(solver._square(e), steps - e) for e in range(BLOCK, steps, BLOCK))
    ring = BLOCK
    while ring < ahead:
        ring *= 2
    return ring


class WholeSquares:
    """The reference far field of a stepper: at each block start one
    _add_square of the whole square whose source block ends there, then node
    0's a0 - a term for a square from node 0, into a ring that holds the
    targets of every square."""

    def __init__(self, stepper):
        self.stepper, self.ring = stepper, whole_square_ring(stepper.num_steps)
        self.far = np.zeros(stepper.hist_rows.shape[:-1] + (self.ring, 2))

    def add(self, end):
        st, ring = self.stepper, self.ring
        free = (end - BLOCK) % ring
        self.far[..., free:free + BLOCK, :] = 0.0
        L, first = solver._square(end), end % ring
        count = min(L, st.num_steps - end)
        out = self.far[..., first:first + count, :]
        solver._add_square(st.hist_rows[..., end - L:end], st.kernel, out)
        if end == L:
            a0, a = st.table.a0[end:end + count], st.table.a[end:end + count]
            out[..., 1] += st.hist_rows[..., :1] * (a0 - a)

    def block(self, end):
        """The slots that the block starting at end reads."""
        first = end % self.ring
        return self.far[..., first:first + min(BLOCK, self.stepper.num_steps - end), :]


class TestFarFieldPieces:
    """The stepper takes the product squares one target block at a time and
    keeps only the FFT squares' targets in its ring: each block still reads
    the far field that whole squares give, bit for bit."""

    @pytest.mark.parametrize("steps", [200, 256, 320, 321, 400])
    @pytest.mark.parametrize("weight_mode", list(WeightMode))
    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_block_slots_equal_whole_squares(self, batch, dim, stochastic, weight_mode, steps):
        model = linear_test(lam=0.8, sigma0=0.3) if dim == 1 else newton_leipnik()
        cfg = SolverConfig(alpha=0.83, grid=make_grid(steps / 256, 1 / 256),
                           stochastic=stochastic, weight_mode=weight_mode)
        dW = None if not (batch or stochastic) else np.ones(batch + (dim, steps))
        stepper = _Stepper(model, cfg, dW)
        rng = np.random.default_rng(steps)  # a history over six decades
        scale = np.exp(rng.uniform(-7.0, 7.0, stepper.hist.shape[:-1] + (1,)))
        stepper.hist[...] = scale * rng.standard_normal(stepper.hist.shape)
        reference = WholeSquares(stepper)
        for end in range(BLOCK, steps, BLOCK):
            stepper._far_field(end)
            reference.add(end)
            first = end % stepper.ring
            got = stepper.far[..., first:first + min(BLOCK, steps - end), :]
            assert got.tobytes() == reference.block(end).tobytes(), end

    # a product square in blocks of targets, and an FFT square in any window
    @pytest.mark.parametrize("L,count", [(LAG_MATRIX_MAX, BLOCK), (2 * LAG_MATRIX_MAX, BLOCK - 5)])
    def test_square_window_is_the_whole_squares_columns(self, L, count):
        kernel = solver._LagKernel(WeightTable(2 * L, 0.83, 1 / 256).lags)
        x = np.random.default_rng(L).standard_normal((3, 2, L))
        whole = np.zeros((3, 2, L, 2))
        solver._add_square(x, kernel, whole)
        for first in range(0, L, BLOCK):
            part = np.zeros((3, 2, count, 2))
            solver._add_square(x, kernel, part, first)
            assert part.tobytes() == whole[..., first:first + count, :].tobytes()

    def test_ring_holds_only_fft_square_targets(self):
        # 129-320 steps: the squares of 64 and 128 nodes are products and
        # the one FFT square (256 nodes, from node 0) has at most 64 targets
        for steps in range(BLOCK + 1, 3000):
            ring = BLOCK if 2 * BLOCK < steps <= 5 * BLOCK else whole_square_ring(steps)
            assert solver._ring_size(steps) == ring, steps
        assert {whole_square_ring(steps) for steps in range(3 * BLOCK + 1, 5 * BLOCK + 1)} == {128}
        for steps in (2**13 + BLOCK, 2**17, 2**17 + 1):
            assert solver._ring_size(steps) == whole_square_ring(steps)


class TestBlasColumnPieces:
    """The far field takes a product square's columns one target block at a
    time (_add_square's target window) and relies on a BLAS property: the
    columns of a lag-matrix product, taken in pieces of BLOCK targets, equal
    the whole product's bit for bit.  A BLAS without it fails here, and the
    stepper then rounds differently from whole squares.  The pieces start
    at a block and end at the next one or at the whole's end, as the
    stepper's do: a piece that ends elsewhere, 118 of 128 columns, differed
    from the whole on the Prescott kernels of OpenBLAS."""

    @pytest.mark.parametrize("batch", [(), (1,), (3,), (200,)])
    @pytest.mark.parametrize("L", [64, 128])
    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_column_pieces_equal_the_whole_product(self, rows, L, batch):
        matrix = solver._LagKernel(WeightTable(2 * L, 0.83, 1 / 256).lags).matrix(L, L)
        rng = np.random.default_rng(rows * L)
        x = rng.standard_normal(batch + (rows, L)) * np.exp(rng.uniform(-7, 7, (rows, 1)))
        for count in (L, L - 27):  # a whole square, and one cut short by a run's end
            whole = x @ matrix[:, :2 * count]
            for first in range(0, count, BLOCK):
                cols = slice(2 * first, 2 * min(first + BLOCK, count))
                piece = x @ matrix[:, cols]
                assert piece.tobytes() == whole[..., cols].tobytes(), (count, first)
                if batch == (200,):  # in chunks of the batch axis, as _add_square takes it
                    chunks = np.concatenate([x[:128] @ matrix[:, cols], x[128:] @ matrix[:, cols]])
                    assert chunks.tobytes() == piece.tobytes(), (count, first)


class TestBatchFootprint:
    """What a batch holds beyond its increments (tracemalloc): the stepper's
    states and history, its far-field ring and its product temporaries."""

    def test_scalar_batch_within_six_and_a_half_floats_per_node(self):
        # the ensemble_scalar batch: 200 linear_test paths of 256 steps.
        # Measured 5.97 floats per node per path; 8.14 with a ring of 128
        # slots and whole-square product temporaries
        grid = make_grid(1.0, 1 / 256)
        cfg, model = SolverConfig(0.75, grid, stochastic=True), linear_test(lam=0.0, sigma0=1.0)
        dW = np.stack([generate_path(SeedSpec(1, i), grid).increments for i in range(200)])
        solve_batch(model, cfg, dW[:1])  # warm-up: the lag matrices are built once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_batch(model, cfg, dW)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / (8 * grid.num_nodes * len(dW)) <= 6.5


class TestStochastic:
    def test_noise_off_ignores_path(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.5, 0.01))
        path_a = generate_path(SeedSpec(1), cfg.grid, num_channels=3)
        path_b = generate_path(SeedSpec(2), cfg.grid, num_channels=3)
        np.testing.assert_array_equal(
            solve(model, cfg, path_a).states, solve(model, cfg, path_b).states
        )

    def test_seed_determinism(self):
        model = lorenz(LorenzParams(mu=0.01))
        cfg = SolverConfig(alpha=0.95, grid=make_grid(1.0, 0.01), stochastic=True)
        a = solve(model, cfg, generate_path(SeedSpec(123), cfg.grid, 3))
        b = solve(model, cfg, generate_path(SeedSpec(123), cfg.grid, 3))
        np.testing.assert_array_equal(a.states, b.states)

    def test_noise_history_modes_differ(self):
        model = constant_diffusion_model(1.0)
        grid = make_grid(1.0, 0.125)
        path = generate_path(SeedSpec(8), grid)
        runs = {}
        for mode in NoiseHistory:
            cfg = SolverConfig(alpha=0.75, grid=grid, stochastic=True, noise_history=mode)
            runs[mode] = solve(model, cfg, path).states
        assert not np.array_equal(runs[NoiseHistory.PER_STEP], runs[NoiseHistory.LAST_INCREMENT])

    def test_divergence_raises(self):
        model = lorenz(LorenzParams(mu=50.0))
        cfg = SolverConfig(alpha=0.9, grid=make_grid(5.0, 0.005), stochastic=True)
        path = generate_path(SeedSpec(0), cfg.grid, 3)
        with pytest.raises(DivergenceError) as err:
            solve(model, cfg, path)
        assert err.value.step is not None

    def test_blowup_bound_is_fixed(self):
        model = linear_test(lam=-3.0, y0=1.0)  # grows like exp(3t), past 1e6 by T = 5
        cfg = SolverConfig(alpha=1.0, grid=make_grid(5.0, 0.05))
        with pytest.raises(DivergenceError, match="blow-up bound 1e"):
            solve(model, cfg)


class TestDivergenceSites:
    """solve_batch checks each block once and replays a failing block step
    by step; it must fail exactly as a check at every step does, wherever in
    a block the divergence falls."""

    STEPS = 9 * BLOCK + 24  # nine whole blocks and a part of one
    cfg = SolverConfig(alpha=0.8, grid=make_grid(STEPS / 256, 1 / 256), stochastic=True)

    @staticmethod
    def per_step(model, cfg, dW):
        """The kernel with a check at every step, block by block, on a
        checking _Stepper: no block is replayed."""
        stepper = _Stepper(model, cfg, dW)
        states = np.empty(stepper.y0.shape + (cfg.grid.num_nodes,))
        states[..., 0] = stepper.y0
        stepper.push(0, stepper.comps(stepper.y0.T))
        for start in range(0, cfg.grid.num_steps, BLOCK):
            if start:  # a block start, as in solve_batch
                stepper._far_field(start)
            stepper.advance(states, start, min(start + BLOCK, cfg.grid.num_steps))
        return states

    @staticmethod
    def failure(run, *args):
        """(type, message, step, time, path_index) of the error run raises."""
        with pytest.raises(Exception) as err:
            run(*args)
        exc = err.value
        return (type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "time", None),
                getattr(exc, "path_index", None))

    def assert_same_failure(self, model, cfg, dW):
        expected = self.failure(self.per_step, model, cfg, dW)
        assert self.failure(solve_batch, model, cfg, dW) == expected
        return expected

    def dW(self, paths=None):
        shape = () if paths is None else (paths,)
        return np.stack([generate_path(SeedSpec(21, i), self.cfg.grid).increments
                         for i in range(paths or 1)]).reshape(shape + (1, self.STEPS))

    def model_failing_from(self, kind, step, bad=np.nan):
        """dy = -y dt + 0.2 dW, with kind turning bad from t_step on."""
        t_bad = self.cfg.grid.nodes()[step]
        parts = {"drift": lambda t, y: [-y[0]],
                 "diffusion": lambda t, y: [np.full(np.shape(y[0]), 0.2)]}
        good = parts[kind]
        parts[kind] = lambda t, y: [np.full(np.shape(y[0]), bad)] if t >= t_bad else good(t, y)
        return SystemModel(name=f"{kind}_from_{step}", dim=1, y0=np.array([0.1]), **parts)

    @pytest.mark.parametrize("noise_history,step",
                             noise_cases(1, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK - 1,
                                         4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK, STEPS))
    def test_non_finite_drift(self, noise_history, step):
        cfg = dataclasses.replace(self.cfg, noise_history=noise_history)
        got = self.assert_same_failure(self.model_failing_from("drift", step), cfg,
                                       self.dW())
        assert got[1:4] == (f"non-finite drift at step {step} (t={got[3]:g})", step,
                            self.cfg.grid.nodes()[step])

    @pytest.mark.parametrize("noise_history,step", noise_cases(BLOCK + 1, 4 * BLOCK + 1, STEPS))
    def test_non_finite_diffusion(self, noise_history, step):
        cfg = dataclasses.replace(self.cfg, noise_history=noise_history)
        got = self.assert_same_failure(
            self.model_failing_from("diffusion", step, np.inf), cfg, self.dW())
        assert got[1] == f"non-finite diffusion at step {step} (t={got[3]:g})"

    def test_blowup_mid_block(self):
        model = linear_test(lam=-3.0, y0=1.0)  # grows like exp(3t): past 1e6 near t = 4.6
        cfg = SolverConfig(alpha=1.0, grid=make_grid(6.0, 3.0 / BLOCK))  # 2 * BLOCK steps
        got = self.assert_same_failure(model, cfg, None)
        assert got[1].startswith("state exceeded blow-up bound 1e+06")
        assert BLOCK + 1 < got[2] < 2 * BLOCK and got[4] is None  # inside the second block

    def test_batch_names_the_lowest_path_of_the_earliest_step(self):
        # paths 3 and 1 fail together in the second block, path 0 later
        t = self.cfg.grid.nodes()

        def drift(t_n, y):  # y[0] is (5,): path i in column i
            out = -y[0]
            if t_n >= t[BLOCK + 40]:
                out[[1, 3]] = np.nan
            if t_n >= t[BLOCK + 60]:
                out[0] = np.nan
            return [out]

        model = SystemModel(name="batch", dim=1, y0=np.array([0.1]), drift=drift,
                            diffusion=lambda t_n, y: [np.full(y[0].shape, 0.2)])
        got = self.assert_same_failure(model, self.cfg, self.dW(5))
        assert (got[2], got[4]) == (BLOCK + 40, 1)

    def test_exception_from_the_model_propagates(self):
        t_bad = self.cfg.grid.nodes()[BLOCK + 7]

        def drift(t, y):
            if t >= t_bad:
                raise ZeroDivisionError(f"no drift at t={t}")
            return [-y[0]]

        model = SystemModel(name="raises", dim=1, y0=np.array([0.1]), drift=drift,
                            diffusion=lambda t, y: [np.full(np.shape(y[0]), 0.2)])
        got = self.assert_same_failure(model, self.cfg, self.dW())
        assert got == (ZeroDivisionError, f"no drift at t={t_bad}", None, None, None)

    @pytest.mark.parametrize("noise_history,step", noise_cases(
        4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK, 8 * BLOCK + 100, 20 * BLOCK - 1))
    def test_replayed_block_is_exact(self, noise_history, step):
        # a drift that raises once, at its first call at t_step, in a run of
        # 20 blocks: the block of that call is replayed, and must not add its
        # far-field square a second time (at 4 * BLOCK + 1 the raise is in the
        # first step of a block, right after its far field was added)
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(20 * BLOCK / 256, 1 / 256),
                           stochastic=True, noise_history=noise_history)
        assert cfg.grid.num_steps == 20 * BLOCK
        t_once = cfg.grid.nodes()[step]
        fired = []

        def drift(t, y):
            if t == t_once and not fired:
                fired.append(t)
                raise ZeroDivisionError("once")
            return model.drift(t, y)

        once = dataclasses.replace(model, drift=drift)
        dW = generate_path(SeedSpec(4), cfg.grid, 3).increments
        states = solve_batch(once, cfg, dW)
        assert fired
        np.testing.assert_array_equal(states, solve_batch(model, cfg, dW))


class TestRightHandSideCalls:
    """A clean run evaluates the drift at node 0 and twice per step (the
    corrector and the node record) and the diffusion twice per step: 2N+1
    and 2N calls, the counts the benchmark reports for long_nl."""

    STEPS = 2 * BLOCK + 88

    @staticmethod
    def counted(model):
        calls = {"drift": 0, "diffusion": 0}

        def wrap(kind):
            fn = getattr(model, kind)

            def call(t, y):
                calls[kind] += 1
                return fn(t, y)

            return call

        return dataclasses.replace(model, drift=wrap("drift"), diffusion=wrap("diffusion")), calls

    @pytest.mark.parametrize("paths", [None, 3])
    @pytest.mark.parametrize("noise_history", list(NoiseHistory), ids=lambda mode: mode.value)
    def test_stochastic(self, noise_history, paths):
        model, calls = self.counted(newton_leipnik())
        cfg = SolverConfig(alpha=0.93, grid=make_grid(self.STEPS / 256, 1 / 256),
                           stochastic=True, noise_history=noise_history)
        dW = np.stack([generate_path(SeedSpec(9, i), cfg.grid, 3).increments
                       for i in range(paths or 1)])
        solve_batch(model, cfg, dW if paths else dW[0])
        assert calls == {"drift": 2 * self.STEPS + 1, "diffusion": 2 * self.STEPS}

    @pytest.mark.parametrize("paths", [None, 3])
    def test_deterministic(self, paths):
        model, calls = self.counted(newton_leipnik())
        cfg = SolverConfig(alpha=0.93, grid=make_grid(self.STEPS / 256, 1 / 256))
        dW = None if paths is None else np.zeros((paths, 3, self.STEPS))
        solve_batch(model, cfg, dW)
        assert calls == {"drift": 2 * self.STEPS + 1, "diffusion": 0}


class TestTrajectoryExport:
    def test_csv_round_trip(self):
        model = newton_leipnik()
        cfg = SolverConfig(alpha=0.93, grid=make_grid(0.1, 0.01))
        traj = solve(model, cfg)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, {"version": "test"})
        lines = buf.getvalue().strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# version=") for l in comments)
        assert data[0] == "t,y1,y2,y3"
        assert len(data) - 1 == traj.grid.num_nodes
        # 17 significant digits must round-trip exactly
        values = np.array([[float(x) for x in l.split(",")] for l in data[1:]])
        np.testing.assert_array_equal(values[:, 1:].T, traj.states)
