"""Traced run of one workload: direct calls into each sfode module, in spans.

    python3 traced.py SRC_DIR SPEC_JSON SEED OUT_DIR

The process runs the workload's call sequence twice: first with tracing off,
as the reference wall time, then with a Tracer on.  The sequence calls the
public functions of each module the way the CLI command does, so every span
sits on a layer boundary.  Every sfode module is imported before either
pass starts, so both start equally warm.  After the traced sequence come
probes that only the traced pass runs: the weight-table build and, on
long_nl, separate solves of fig1 on the prefix grids of spec.probe_steps.

Where the ensemble runs its paths in forked pool workers, spans and counters
in the workers are lost.  So the traced sequence also replays the M paths
serially in this process (per-path latency, RHS counts, serial path time for
the pool efficiency).  The replay must reproduce the pooled statistics bit
for bit, and picard_nl's per-path replay must reproduce cauchy_diagnostic's
distances bit for bit; both are gated.

The last stdout line is one JSON object with the gate failures, every
per-layer metric and the RHS counts next to their formulas.  The spans go to
OUT_DIR/trace_<workload>_<size>_s<seed>.json, written once at the end.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import from_json

#: Metric label of each prefix grid of fig1 that long_nl may probe, by steps.
PREFIX_LABELS = {1000: "n1e3", 10000: "n1e4", 40000: "n4e4"}


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---- workload call sequences ------------------------------------------------
# Each returns a zero-argument gate, run after timing: None or a reason.


def ensemble_section(tr, spec, seed, out, root):
    import numpy as np
    from sfode.analysis import accumulate_stats, ensemble_run
    from sfode.solver import SolverConfig, solve
    from sfode.stochastic import SeedSpec, generate_path, make_grid
    from sfode.systems import linear_test

    grid = make_grid(spec.T, spec.h)
    cfg = SolverConfig(alpha=spec.alpha, grid=grid, stochastic=True)
    model = tr.counted(linear_test(lam=0.0, sigma0=spec.sigma0), "main")
    workers = os.cpu_count() or 1  # the CLI default
    with tr.span("analysis.ensemble_run"):
        pooled = ensemble_run(model, cfg, seed, spec.paths, workers=workers)
    states = []
    for i in range(spec.paths):
        with tr.span("stochastic.generate_path"):
            path = generate_path(SeedSpec(seed, i, 0), grid, model.noise_dim)
        with tr.span("solver.solve"):
            states.append(solve(model, cfg, path).states)
    with tr.span("analysis.reduce"):
        stats = accumulate_stats(grid, states)
    with tr.span("cli.write"):
        summary = {
            "num_paths": stats.num_paths,
            "terminal": {
                "t": grid.T,
                "mean": stats.mean[:, -1].tolist(),
                "variance": stats.variance[:, -1].tolist(),
                "l2sq": float(stats.l2sq[-1]),
            },
        }
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")

    def gate():
        if not (np.array_equal(stats.mean, pooled.mean)
                and np.array_equal(stats.variance, pooled.variance)):
            return "serial replay differs from the pooled ensemble"
        return spec.gate(Path(out))

    return gate


def _fig1_model_and_cfg(spec, root, T):
    from sfode.cli import parse_config_file
    from sfode.solver import SolverConfig
    from sfode.stochastic import make_grid
    from sfode.systems import NewtonLeipnikParams, newton_leipnik

    values = parse_config_file(str(root / spec.config))
    params = NewtonLeipnikParams(
        beta=float(values["beta"]), rho=float(values["rho"]), mu=float(values["mu"])
    )
    grid = make_grid(T, float(values["h"]))
    cfg = SolverConfig(alpha=float(values["alpha"]), grid=grid, stochastic=True)
    return newton_leipnik(params), cfg


def long_section(tr, spec, seed, out, root):
    from sfode.solver import solve, write_trajectory_csv
    from sfode.stochastic import SeedSpec, generate_path

    with tr.span("cli.config"):
        model, cfg = _fig1_model_and_cfg(spec, root, spec.T)
    model = tr.counted(model, "main")
    with tr.span("stochastic.generate_path"):
        path = generate_path(SeedSpec(seed, 0, 0), cfg.grid, model.noise_dim)
    with tr.span("solver.solve"):
        traj = solve(model, cfg, path)
    with tr.span("cli.write"):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_trajectory_csv(traj, fh, {"seed": seed})
    return lambda: spec.gate(Path(out))


def picard_section(tr, spec, seed, out, root):
    import numpy as np
    from sfode.picard import cauchy_diagnostic, picard_iterate, write_distance_csv
    from sfode.stochastic import SeedSpec, generate_path, make_grid
    from sfode.systems import NewtonLeipnikParams, newton_leipnik

    plain = newton_leipnik(NewtonLeipnikParams(mu=spec.mu))
    model = tr.counted(plain, "main")
    grid = make_grid(spec.T, spec.h)
    K, M = spec.iterations, spec.paths
    gap_sum = np.zeros(K)
    for i in range(M):
        with tr.span("stochastic.generate_path"):
            path = generate_path(SeedSpec(seed, i, 0), grid, model.noise_dim)
        with tr.span("picard.iterate"):
            seq = picard_iterate(model, spec.alpha, grid, path, K)
        gap_sum += seq.terminal_gaps()
    replay = (gap_sum / M)[1:]
    with tr.span("picard.cauchy"):
        report = cauchy_diagnostic(tr.counted(plain, "cauchy"), spec.alpha, grid, seed, M, K)
    with tr.span("cli.write"):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_distance_csv(report, fh, {"seed": seed})

    def gate():
        if not np.array_equal(replay, report.distances):
            return "per-path replay differs from cauchy_diagnostic"
        return spec.gate(Path(out))

    return gate


SECTIONS = {
    "ensemble_scalar": ensemble_section,
    "long_nl": long_section,
    "picard_nl": picard_section,
}


def probes(tr, spec, seed, root):
    """Traced-only work: the weight table and long_nl's prefix solves."""
    from sfode.solver import solve
    from sfode.stochastic import SeedSpec, generate_path
    from sfode.weights import WeightTable

    if spec.name != "long_nl":
        with tr.span("weights.build"):
            WeightTable(spec.num_steps, spec.alpha, spec.h)
        return
    _, cfg = _fig1_model_and_cfg(spec, root, spec.T)
    with tr.span("weights.build"):
        WeightTable(cfg.grid.num_steps, cfg.alpha, cfg.grid.h)
    for steps in spec.probe_steps:
        label = PREFIX_LABELS[steps]
        model, prefix = _fig1_model_and_cfg(spec, root, steps * cfg.grid.h)
        model = tr.counted(model, "prefix")
        with tr.span("stochastic.prefix_path"):
            path = generate_path(SeedSpec(seed, 0, 0), prefix.grid, model.noise_dim)
        with tr.span(f"solver.solve_{label}"):
            solve(model, prefix, path)


# ---- metrics ------------------------------------------------------------------


def layer_metrics(tr, spec, untraced_s, traced_s, out) -> tuple:
    N, d = spec.num_steps, spec.dim
    workers = os.cpu_count() or 1
    solves = tr.durations("solver.solve")
    solve_self = tr.self_by_name("solver.solve")
    paths = tr.durations("stochastic.generate_path")
    iters = tr.durations("picard.iterate")
    iter_self = tr.self_by_name("picard.iterate")
    pooled = sum(tr.durations("analysis.ensemble_run"))
    own = tr.layer_self_seconds()
    K = getattr(spec, "iterations", 0)
    M = getattr(spec, "paths", 1)

    step_us = 1e6 * sum(solve_self) / (len(solves) * N) if solves else 0.0
    m = {
        "solver.step_us": step_us,
        "solver.solve_ms.p50": 1e3 * _nearest_rank(solves, 0.50),
        "solver.solve_ms.p99": 1e3 * _nearest_rank(solves, 0.99),
        # 4 history dot products per step (drift and noise, predictor and
        # corrector), each over d*(n+1) history values and n+1 weights
        "solver.history_flops": len(solves) * 4 * d * N * (N + 1),
        "solver.history_bytes": len(solves) * 16 * (d + 1) * N * (N + 1),
        "systems.drift_calls": tr.calls[("main", "drift")],
        "systems.diffusion_calls": tr.calls[("main", "diffusion")],
        "systems.rhs_s": own.get("systems", 0.0),
        "stochastic.generate_path_s": sum(paths),
        "stochastic.paths": len(paths),
        "stochastic.bytes": len(paths) * d * (2 * N + 1) * 8,  # increments + cumulative
        "analysis.ensemble_run_s": pooled,
        "analysis.reduce_s": sum(tr.durations("analysis.reduce")),
        "analysis.workers": workers if pooled else 0,
        "analysis.pool_efficiency":
            (sum(paths) + sum(solves)) / (workers * pooled) if pooled else 0.0,
        "analysis.held_bytes": M * d * (N + 1) * 8 if pooled else 0,
        "picard.iterate_ms.p50": 1e3 * _nearest_rank(iters, 0.50),
        "picard.iterate_ms.p95": 1e3 * _nearest_rank(iters, 0.95),
        "picard.sweep_us_per_node":
            1e6 * sum(iter_self) / (len(iters) * K * N) if iters else 0.0,
        # per sweep, node n sums n drift and n noise terms of d components
        "picard.kernel_flops": len(iters) * K * 2 * d * N * (N + 1),
        "picard.cauchy_s": sum(tr.durations("picard.cauchy")),
        "cli.write_s": sum(tr.durations("cli.write")),
        "cli.output_bytes": os.path.getsize(out),
        "weights.build_s": sum(tr.durations("weights.build")),
        "trace.wall_s": tr.durations("trace.run")[0],
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    for steps, label in PREFIX_LABELS.items():
        own_n = tr.self_by_name(f"solver.solve_{label}")
        m[f"solver.step_us.{label}"] = 1e6 * sum(own_n) / steps if own_n else 0.0
    for layer in ("weights", "stochastic", "solver", "analysis", "picard", "cli"):
        m[f"{layer}.self_s"] = own.get(layer, 0.0)

    if spec.name == "ensemble_scalar":
        formulas = {"drift": ("M*(2N+1)", M * (2 * N + 1)), "diffusion": ("M*2N", M * 2 * N)}
    elif spec.name == "long_nl":
        formulas = {"drift": ("2N+1", 2 * N + 1), "diffusion": ("2N", 2 * N)}
    else:
        formulas = {"drift": ("M*K*(N+1)", M * K * (N + 1)), "diffusion": ("M*K*N", M * K * N)}
    counts = {
        f"systems.{kind}_calls": {
            "value": tr.calls[("main", kind)], "formula": f, "formula_value": v,
            "N": N, "M": M, "K": K,
        }
        for kind, (f, v) in formulas.items()
    }
    # share of the traced workload that falls inside a layer span or an RHS
    # call; the rest is the self time of the enclosing trace.workload span
    workload_s = tr.durations("trace.workload")[0]
    coverage = 1.0 - tr.self_by_name("trace.workload")[0] / workload_s
    return m, {"rhs_counts": counts, "layer_self_s": own, "coverage": coverage,
               "min_span_self_s": min(tr.self_seconds().values())}


def main() -> None:
    src, spec_json, seed, out_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    spec = from_json(spec_json)
    seed = int(seed)
    out_dir = Path(out_dir)
    root = Path(src).parent
    out = str(out_dir / f"traced_{spec.name}{spec.suffix}")
    section = SECTIONS[spec.name]
    import sfode.cli  # noqa: F401  numpy and every sfode module, before timing

    start = time.perf_counter()
    untraced_gate = section(Tracer(enabled=False), spec, seed, out, root)
    untraced_s = time.perf_counter() - start
    reason = untraced_gate()  # before the traced pass rewrites the output
    failures = [f"untraced pass: {reason}"] if reason else []

    tr = Tracer()
    with tr.span("trace.run"):
        with tr.span("trace.workload"):
            gate = section(tr, spec, seed, out, root)
        probes(tr, spec, seed, root)
    traced_s = tr.durations("trace.workload")[0]
    reason = gate()
    if reason:
        failures.append(f"traced pass: {reason}")

    metrics, report = layer_metrics(tr, spec, untraced_s, traced_s, out)
    trace_file = out_dir / f"trace_{spec.name}_{spec.label}_s{seed}.json"
    trace_file.write_text(json.dumps(tr.to_json()) + "\n", encoding="utf-8")
    report["trace_file"] = str(trace_file)
    print(json.dumps({"attempted": 2, "failures": failures,
                      "metrics": metrics, "report": report}))


if __name__ == "__main__":
    main()
