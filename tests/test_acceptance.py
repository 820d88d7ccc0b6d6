"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -v or -s for the full listing)."""

import math
from pathlib import Path

import numpy as np
import pytest

from sfode.analysis import (
    convergence_order,
    ensemble_run,
    ito_isometry_check,
)
from sfode.cli import main as cli_main
from sfode.picard import cauchy_diagnostic
from sfode.solver import NoiseHistory, SolverConfig, solve
from sfode.special import gamma, mittag_leffler
from sfode.stochastic import make_grid
from sfode.systems import (
    NewtonLeipnikParams,
    LorenzParams,
    linear_test,
    lipschitz_bound,
    lorenz,
    lorenz_matrices,
    newton_leipnik,
    newton_leipnik_matrices,
)
from sfode.weights import corrector_weights

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# mpmath references, 30 digits
GAMMA_REFS = {
    0.5: 1.7724538509055160273,
    1.0: 1.0,
    1.5: 0.88622692545275801365,
    2.5: 1.3293403881791370205,
    5.0: 24.0,
    10.0: 362880.0,
}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_c01_gamma_accuracy():
    worst = max(abs(gamma(x) - ref) / ref for x, ref in GAMMA_REFS.items())
    report(1, worst <= 1e-10, f"gamma relative error {worst:.2e} <= 1e-10")


def test_c02_mittag_leffler_oracle_and_order():
    model = linear_test(lam=1.0)
    errs = []
    for steps in (50, 100, 200):
        grid = make_grid(1.0, 1.0 / steps)
        traj = solve(model, SolverConfig(alpha=0.8, grid=grid))
        exact = np.array([mittag_leffler(0.8, -(t**0.8)) for t in grid.nodes()])
        errs.append(float(np.max(np.abs(traj.states[0] - exact))))
    pair_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    fit = convergence_order(
        model, SolverConfig(alpha=0.8, grid=make_grid(1.0, 1.0 / 50)), 3,
        reference=lambda t: [mittag_leffler(0.8, -(t**0.8))],
    )
    ok = errs[-1] <= 1e-3 and all(p >= 1.0 for p in pair_orders) and fit.order >= 1.0
    report(2, ok,
           f"max error at h=1/200 is {errs[-1]:.2e} <= 1e-3, "
           f"orders {pair_orders[0]:.2f}/{pair_orders[1]:.2f} (fit {fit.order:.2f}) >= 1.0")


def test_c03_classical_limit():
    traj = solve(linear_test(lam=1.0), SolverConfig(alpha=1.0, grid=make_grid(1.0, 0.01)))
    err = abs(traj.states[0, -1] - math.exp(-1.0))
    weights_ok = True
    for n in (2, 10):
        expected = np.full(n + 2, 2.0)
        expected[0] = expected[-1] = 1.0
        weights_ok &= bool(np.max(np.abs(corrector_weights(n, 1.0) - expected)) <= 1e-12)
    report(3, err <= 1e-4 and weights_ok,
           f"|y(1) - 1/e| = {err:.2e} <= 1e-4, trapezoid weights exact to 1e-12")


def test_c04_stochastic_variance_law_and_mode_discriminator():
    alpha, M = 0.75, 2000
    model = linear_test(lam=0.0, sigma0=1.0, y0=0.0)
    grid = make_grid(1.0, 1.0 / 256)
    expected = 1.0 / ((2 * alpha - 1) * gamma(alpha) ** 2)

    rel = {}
    for mode in NoiseHistory:
        cfg = SolverConfig(alpha=alpha, grid=grid, stochastic=True, noise_history=mode)
        stats = ensemble_run(model, cfg, master_seed=12345, M=M, workers=4)
        rel[mode] = abs(float(stats.variance[0, -1]) - expected) / expected
    ok = rel[NoiseHistory.PER_STEP] <= 0.10 and rel[NoiseHistory.LAST_INCREMENT] > 0.10
    report(4, ok,
           f"terminal variance vs {expected:.4f}: per_step off by "
           f"{rel[NoiseHistory.PER_STEP]:.1%} (<= 10%), last_increment off by "
           f"{rel[NoiseHistory.LAST_INCREMENT]:.0%} (> 10%, discriminator)")


def test_c05_ito_isometry_checker():
    grid = make_grid(1.0, 1.0 / 2048)
    errs = {a: ito_isometry_check(a, grid, M=5000, master_seed=7) for a in (0.75, 1.0)}
    ok = all(e <= 0.05 for e in errs.values())
    report(5, ok, f"relative errors alpha=0.75: {errs[0.75]:.2%}, alpha=1: {errs[1.0]:.2%} (<= 5%)")


def test_c06_picard_cauchy_contraction():
    model = newton_leipnik(NewtonLeipnikParams(beta=0.4, rho=0.175, mu=0.1))
    grid = make_grid(0.5, 1.0 / 200)
    rep = cauchy_diagnostic(model, 0.93, grid, master_seed=12345, M=200, K=6)
    decreasing = bool(np.all(np.diff(rep.distances) < 0))
    bounded = rep.max_terminal_l2 < 1e6
    ok = decreasing and rep.converged and bounded
    report(6, ok,
           f"d_1..d_5 strictly decreasing, d_5/d_1 = {rep.ratio:.2e} < 0.01, "
           f"iterates bounded (max L2 {rep.max_terminal_l2:.3f})")


@pytest.mark.parametrize("name,radius", [
    ("fig1", 10.0), ("fig2", 10.0), ("fig3", 100.0), ("fig4", 100.0),
])
def test_c07_figure_recipes_bounded(tmp_path, name, radius):
    out = tmp_path / f"{name}.csv"
    code = cli_main(["simulate", "--config", str(CONFIG_DIR / f"{name}.cfg"), "-o", str(out)])
    max_abs = float("inf")
    rows_ok = False
    if code == 0:
        rows = [r for r in out.read_text().strip().split("\n") if not r.startswith("#")]
        values = np.array([[float(x) for x in r.split(",")[1:]] for r in rows[1:]])
        max_abs = float(np.max(np.abs(values)))
        # header plus one row per node (fig1/fig2: T/h = 10000 -> 10002 lines)
        rows_ok = len(rows) == 2 + round(
            {"fig1": 50.0, "fig2": 50.0, "fig3": 20.0, "fig4": 20.0}[name] / 0.005
        )
    ok = code == 0 and max_abs <= radius and rows_ok
    report(7, ok, f"{name} ran to completion, max |y| = {max_abs:.2f} <= {radius:g}")


def test_c08_matrix_form_equivalence():
    from sfode.systems import matrix_form_check
    rng = np.random.default_rng(2026)
    worst = 0.0
    for model in (newton_leipnik(), lorenz()):
        for _ in range(1000):
            y = rng.uniform(-2.0, 2.0, size=3)
            worst = max(worst, matrix_form_check(model, y))
    report(8, worst <= 1e-12,
           f"drift vs matrix decomposition residual {worst:.2e} <= 1e-12 "
           f"(1000 states in [-2,2]^3 per system)")


def test_c09_byte_determinism(tmp_path):
    args = ["ensemble", "--system", "newton_leipnik", "--alpha", "0.93",
            "--h", "0.015625", "--T", "1.0", "--mu", "0.1", "--seed", "99",
            "--paths", "64"]
    outputs = {}
    for tag, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w4", 4)):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(args + ["--workers", str(workers), "-o", str(out)]) == 0
        outputs[tag] = out.read_bytes()
    ok = outputs["run1_w1"] == outputs["run2_w1"] == outputs["run3_w4"]
    report(9, ok, "ensemble CSV byte-identical across reruns and worker counts 1/4")


def test_c10_growth_bound_spot_values_and_monotonicity():
    _, B, C = newton_leipnik_matrices({"beta": 0.4, "rho": 0.175})
    norms_ok = float(np.sum(B * B)) == 25.0 and float(np.sum(C * C)) == 125.0

    monotone = True
    for factory, params in ((newton_leipnik, NewtonLeipnikParams), (lorenz, LorenzParams)):
        ks = [lipschitz_bound(factory(params(mu=0.2)), d) for d in np.linspace(0, 5, 10)]
        monotone &= bool(np.all(np.diff(ks) >= 0))
        ks = [lipschitz_bound(factory(params(mu=m)), 1.0) for m in np.linspace(0, 2, 10)]
        monotone &= bool(np.all(np.diff(ks) >= 0))
    report(10, norms_ok and monotone,
           "|B|_F^2 = 25 and |C|_F^2 = 125 exact; K monotone in delta and mu "
           "(10 sampled settings per system)")
