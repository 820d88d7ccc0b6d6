"""Command-line front end: simulate | ensemble | picard | converge | weights.

Runs are described by a flat key=value config file plus command-line flag
overrides (flags win).  Every output file embeds the tool version and the
fully resolved configuration, and a given (config, seed) pair always produces
byte-identical files.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 convergence-diagnostic
failure.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import __version__, checks
from .analysis import convergence_order, ensemble_run, levels_rule, write_stats_csv
from .checks import ConfigError
from .picard import cauchy_diagnostic, diagnostic_rule, write_distance_csv
from .solver import (
    DivergenceError,
    NoiseHistory,
    SolverConfig,
    Trajectory,
    solve_batch,
    write_trajectory_csv,
)
from .special import gamma
from .stochastic import SeedSpec, generate_path, make_grid
from .systems import (
    DEFAULT_MU,
    LorenzParams,
    NewtonLeipnikParams,
    linear_test,
    lorenz,
    newton_leipnik,
)
from .table import write_table
from .weights import WeightMode, corrector_weights, predictor_weights, table_rule

__all__ = ["ConfigError", "RunConfig", "main"]

_SYSTEMS = ("newton_leipnik", "lorenz", "linear_test")

_MODEL_KEYS = ("mu", "beta", "rho", "a", "b", "c", "lam", "sigma0")


@checks.ruled(system=checks.choice_rule(_SYSTEMS), alpha=checks.alpha_rule(),
              **dict.fromkeys(("h", "T", *_MODEL_KEYS), checks.finite_rule), seed=checks.seed_rule,
              paths=checks.count_rule(1, checks.KEY_SPACE), workers=checks.count_rule(0),
              noise_history=checks.choice_rule(NoiseHistory),
              weight_mode=checks.choice_rule(WeightMode))
@dataclass
class RunConfig:
    system: str = "newton_leipnik"
    alpha: float = 0.9
    h: float = 0.01
    T: float = 1.0
    mu: float = DEFAULT_MU
    beta: float = 0.4
    rho: float = 0.175
    a: float = 10.0
    b: float = 8.0 / 3.0
    c: float = 28.0
    lam: float = 1.0
    sigma0: float = 0.0
    seed: int = 0
    paths: int = 1
    workers: int = 0          # accepted for compatibility; selects nothing
    noise_history: str = NoiseHistory.PER_STEP.value
    weight_mode: str = WeightMode.STANDARD.value

    def stochastic(self) -> bool:
        if self.system == "linear_test":
            return self.sigma0 != 0.0
        return self.mu != 0.0


def _validate(cfg: RunConfig, rule=None) -> None:
    """Check the run keys by their declared rules in field order, each rule
    across keys right after the key it is listed under, then the command's
    own rule(cfg, grid), grid None when T and h fail the grid rule, and
    report each distinct violation once."""
    grid_problems = checks.grid_rule(cfg.T, cfg.h)
    over_half = "stochastic runs (nonzero noise)" if cfg.stochastic() else None
    across = {"alpha": checks.alpha_rule(over_half)("alpha", cfg.alpha), "T": grid_problems,
              "sigma0": checks.positive_rule("beta", cfg.beta)
              if cfg.system == "newton_leipnik" else []}
    problems = [message for name, key_rule in RunConfig.__rules__.items()
                for message in key_rule(name, getattr(cfg, name)) + across.get(name, [])]
    if rule is not None:
        problems += rule(cfg, None if grid_problems else make_grid(cfg.T, cfg.h))
    checks.require(list(dict.fromkeys(problems)))


def parse_config_file(path: str) -> dict:
    """Read flat key=value lines; '#' starts a comment."""
    values = {}
    problems = []
    known = {f.name for f in fields(RunConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            problems.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        values[key] = value
    checks.require(problems)
    return values


def _coerce(key: str, value: str):
    """A config-file value as the type of the key's default."""
    try:
        return type(getattr(RunConfig, key))(value)
    except ValueError:
        raise ConfigError(f"could not parse {key}={value!r}") from None


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, _coerce(key, value))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    return cfg


def _build_model(cfg: RunConfig):
    if cfg.system == "newton_leipnik":
        return newton_leipnik(NewtonLeipnikParams(beta=cfg.beta, rho=cfg.rho, mu=cfg.mu))
    if cfg.system == "lorenz":
        return lorenz(LorenzParams(a=cfg.a, b=cfg.b, c=cfg.c, mu=cfg.mu))
    return linear_test(lam=cfg.lam, sigma0=cfg.sigma0)


def _setup(args, rule=None):
    """The run of a command: (cfg, model, scfg, meta), its RunConfig, model,
    SolverConfig and the metadata that its output files embed, once the run
    keys and the command's rule pass :func:`_validate`."""
    cfg = _build_config(args)
    _validate(cfg, rule)
    model = _build_model(cfg)
    scfg = SolverConfig(alpha=cfg.alpha, grid=make_grid(cfg.T, cfg.h),
                        stochastic=cfg.stochastic(), noise_history=cfg.noise_history,
                        weight_mode=cfg.weight_mode)
    meta = {"version": __version__, "system": cfg.system, **dict(sorted(model.params.items())),
            "alpha": cfg.alpha, "h": cfg.h, "T": cfg.T, "seed": cfg.seed, "paths": cfg.paths,
            "stochastic": scfg.stochastic, "noise_history": cfg.noise_history,
            "weight_mode": cfg.weight_mode}
    return cfg, model, scfg, meta


def _summary(meta: dict, **fields) -> dict:
    """A JSON summary: the version, the run's config (meta without the
    version), then fields."""
    config = {k: v for k, v in meta.items() if k != "version"}
    return {"version": meta["version"], "config": config, **fields}


def _write(path, writer) -> None:
    """Run writer on stdout or on the output file at path.

    A regular file is written to a temporary file beside it that replaces it
    only once complete, so a failed run leaves no partial file and any earlier
    file intact.  A device or pipe is written in place.  Any OSError, a
    standard output closed early by its reader included, is a ConfigError.
    """
    if path is None:
        try:
            writer(sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            # what is still buffered can never be written: point stdout at
            # the null device so that the flush at exit does not fail again
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
            with open(path, "w", encoding="utf-8", newline="\n") as stream:
                writer(stream)
        else:
            _replace(os.path.realpath(path), writer)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror or exc}") from None


def _replace(target: str, writer) -> None:
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as stream:
            writer(stream)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path, summary: dict) -> None:
    """Write summary as strict JSON: a non-finite number becomes null."""
    text = json.dumps(_finite_or_null(summary), indent=2, allow_nan=False) + "\n"
    _write(path, lambda s: s.write(text))


def cmd_simulate(args) -> int:
    cfg, model, scfg, meta = _setup(args)
    # the increments alone: the cumulative path is freed before the stepper allocates
    dW = None
    if scfg.stochastic:
        dW = generate_path(SeedSpec(cfg.seed), scfg.grid, model.noise_dim).increments
    traj = Trajectory(grid=scfg.grid, states=solve_batch(model, scfg, dW))
    meta["num_steps"] = scfg.grid.num_steps
    meta["max_abs_state"] = format(float(abs(traj.states).max()), ".17g")
    _write(args.output, lambda s: write_trajectory_csv(traj, s, meta))
    return 0


def cmd_ensemble(args) -> int:
    cfg, model, scfg, meta = _setup(args)
    stats = ensemble_run(model, scfg, cfg.seed, cfg.paths, workers=cfg.workers)

    if args.format == "json":
        summary = _summary(meta, num_paths=stats.num_paths, terminal={
            "t": scfg.grid.T,
            "mean": stats.mean[:, -1].tolist(),
            "variance": stats.variance[:, -1].tolist(),
            "l2sq": float(stats.l2sq[-1]),
        })
        if cfg.system == "linear_test" and cfg.lam == 0.0 and cfg.sigma0 != 0.0:
            expected = (
                cfg.sigma0 * cfg.sigma0 * cfg.T ** (2 * cfg.alpha - 1)
                / ((2 * cfg.alpha - 1) * gamma(cfg.alpha) ** 2)
            )
            observed = float(stats.variance[0, -1])
            # sigma0**2 may overflow to inf or underflow to 0: then no check passes
            rel = abs(observed - expected) / expected if expected > 0 else math.inf
            summary["variance_law"] = {
                "expected": expected,
                "observed": observed,
                "rel_error": rel,
                "passed": bool(rel <= 0.10),
            }
        _write_json(args.output, summary)
    else:
        _write(args.output, lambda s: write_stats_csv(stats, s, meta))
    return 0


def cmd_picard(args) -> int:
    cfg, model, scfg, meta = _setup(args, lambda cfg, grid: diagnostic_rule(
        cfg.alpha, cfg.paths, args.iterations, grid))
    report = cauchy_diagnostic(
        model, cfg.alpha, scfg.grid, cfg.seed, cfg.paths, args.iterations,
        sup_mode=args.sup,
    )
    meta["iterations"] = args.iterations
    meta["converged"] = report.converged
    meta["max_terminal_l2"] = format(report.max_terminal_l2, ".17g")
    _write(args.output, lambda s: write_distance_csv(report, s, meta))
    return 0 if report.converged else 4


def cmd_converge(args) -> int:
    cfg, model, scfg, meta = _setup(args, lambda cfg, grid: levels_rule(args.levels, grid))
    report = convergence_order(model, scfg, args.levels, master_seed=cfg.seed)
    summary = _summary(
        meta,
        levels=[{"h": float(h), "error": float(e)} for h, e in zip(report.h, report.errors)],
        order=None if report.degenerate else report.order,
        degenerate=report.degenerate,
    )
    _write_json(args.output, summary)
    return 4 if report.degenerate else 0


def cmd_weights(args) -> int:
    checks.require(table_rule(args.alpha, args.h, args.mode, args.step))
    meta = {"version": __version__, "n": args.step, "alpha": args.alpha,
            "h": args.h, "mode": args.mode}
    columns = [range(args.step + 2), corrector_weights(args.step, args.alpha, args.mode),
               predictor_weights(args.step, args.alpha, args.h)]
    _write(args.output, lambda s: write_table(s, meta, ["j", "a_j", "b_j"], columns))
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    choices = {"system": _SYSTEMS, "noise_history": [m.value for m in NoiseHistory],
               "weight_mode": [m.value for m in WeightMode]}
    for f in fields(RunConfig):  # one typed flag per run key
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       choices=choices.get(f.name))
    p.add_argument("--output", "-o", help="output file (default: stdout)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfode",
        description="Predictor-corrector solver for stochastic fractional-order systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a single path and export the trajectory")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="Monte Carlo ensemble statistics")
    _add_run_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("picard", help="fixed-point contraction diagnostic")
    _add_run_flags(p)
    p.add_argument("--iterations", "-K", type=int, default=6)
    p.add_argument("--sup", action="store_true",
                   help="measure gaps over the whole grid instead of at T")
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser("converge", help="empirical convergence order over dyadic grids")
    _add_run_flags(p)
    p.add_argument("--levels", type=int, default=3,
                   help="number of dyadic refinements starting from --h")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("weights", help="dump predictor/corrector weight tables")
    p.add_argument("--step", "-n", type=int, required=True, help="step index n")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--mode", default=WeightMode.STANDARD.value)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_weights)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"sfode: configuration error:\n{exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"sfode: divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
