#!/usr/bin/env python3
"""Check that the command line writes the same bytes as at a git revision.

Usage: python scripts/identity.py --against REF [--expect-change NAME ...]
                                   [--env KEY=VALUE ...]

Extracts REF (``git archive``) into a temporary directory and runs one fixed
list of ``sfode`` invocations there and in the working tree: ``python -W
error::RuntimeWarning -m sfode.cli`` (a numpy warning is an error, as in
pytest) with PYTHONPATH set to that tree's ``src``, the tree as working
directory, one BLAS thread, and the output on stdout.  It prints one row per
run, with the output sha256, the exit code and whether stderr matches, and
marks each difference.  It exits 1 if any run differs, unless that run is
named with --expect-change, and 2 on a bad REF or run name.

Both sides run on the same machine, so BLAS and CPU differences cancel and
no digest is stored.  A change that alters some outputs on purpose names
those runs with --expect-change.  --env sets a variable for the working
tree's runs only, so ``--against HEAD --env OPENBLAS_CORETYPE=Prescott``
lists the runs whose bytes follow that setting; a variable set for this
script itself reaches both sides.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINEAR = ["--system", "linear_test"]
NL_PICARD = ["picard", "--system", "newton_leipnik", "--alpha", "0.93", "--h", "0.005",
             "--mu", "0.1", "--iterations", "6"]

# name -> argv of one run; {tmp} is a scratch directory shared by both sides
RUNS = {
    # the attractor recipes
    **{f"fig{i}": ["simulate", "--config", f"configs/fig{i}.cfg"] for i in range(1, 5)},
    "fig2_literal": ["simulate", "--config", "configs/fig2.cfg", "--weight-mode", "literal"],
    "fig3_literal": ["simulate", "--config", "configs/fig3.cfg", "--weight-mode", "literal"],
    "fig1_last_increment": ["simulate", "--config", "configs/fig1.cfg",
                            "--noise-history", "last_increment"],
    # last_increment runs that finish: one path of 1000 steps, past an FFT
    # square, and a batch of 8 paths
    "fig1_last_increment_T5": ["simulate", "--config", "configs/fig1.cfg",
                               "--noise-history", "last_increment", "--T", "5"],
    "ensemble_last_increment": ["ensemble", "--system", "newton_leipnik", "--alpha", "0.93",
                                "--h", "0.005", "--T", "2", "--mu", "0.1", "--paths", "8",
                                "--seed", "1", "--noise-history", "last_increment"],
    # the benchmark workloads at seed 1
    "ensemble_scalar": ["ensemble", *LINEAR, "--lam", "0", "--sigma0", "1.0", "--alpha", "0.75",
                        "--h", "0.00390625", "--T", "1.0", "--paths", "200", "--format", "json",
                        "--seed", "1"],
    "long_nl": ["simulate", "--config", "configs/fig1.cfg", "--T", "100.0", "--seed", "1"],
    "picard_nl": [*NL_PICARD, "--T", "0.5", "--paths", "200", "--seed", "1"],
    # the README examples (its simulate is fig1)
    "readme_ensemble": ["ensemble", *LINEAR, "--lam", "0", "--sigma0", "1", "--alpha", "0.75",
                        "--h", "0.00390625", "--T", "1", "--paths", "2000", "--seed", "12345",
                        "--format", "json"],
    "readme_picard": [*NL_PICARD, "--T", "0.5", "--paths", "200"],
    "readme_converge": ["converge", *LINEAR, "--lam", "1", "--alpha", "0.8", "--h", "0.02",
                        "--T", "1", "--mu", "0", "--levels", "4"],
    "readme_weights": ["weights", "-n", "2", "--alpha", "1.0", "--h", "0.01"],
    # more outputs: a CSV ensemble, a drift-coupled JSON ensemble, a stochastic
    # converge, both comparison modes past one block, a long weight table
    "ensemble_csv": ["ensemble", "--system", "newton_leipnik", "--alpha", "0.93", "--h", "0.02",
                     "--T", "0.5", "--mu", "0.1", "--paths", "12", "--seed", "5"],
    "ensemble_lam1_json": ["ensemble", *LINEAR, "--lam", "1", "--sigma0", "0.5", "--alpha", "0.8",
                           "--h", "0.01", "--T", "1", "--paths", "64", "--seed", "3",
                           "--format", "json"],
    "converge_stochastic": ["converge", "--system", "newton_leipnik", "--alpha", "0.93",
                            "--h", "0.01", "--T", "1", "--mu", "0.1", "--levels", "4",
                            "--seed", "5"],
    "last_increment_literal": ["simulate", "--system", "newton_leipnik", "--alpha", "0.9",
                               "--h", "0.01", "--T", "3", "--seed", "4",
                               "--noise-history", "last_increment", "--weight-mode", "literal"],
    "weights_300": ["weights", "-n", "300", "--alpha", "0.7", "--h", "0.01"],
    # divergences (exit 3) and a failed diagnostic (exit 4)
    "lorenz_ensemble_path1": ["ensemble", "--system", "lorenz", "--alpha", "0.9", "--h", "0.005",
                              "--T", "5", "--mu", "2", "--paths", "8", "--seed", "1"],
    "lorenz_ensemble_path0": ["ensemble", "--system", "lorenz", "--alpha", "0.9", "--h", "0.005",
                              "--T", "5", "--mu", "2", "--paths", "8", "--seed", "2"],
    "linear_ensemble_block2": ["ensemble", *LINEAR, "--lam", "-3", "--sigma0", "1",
                               "--alpha", "0.9", "--h", "0.01", "--T", "6", "--paths", "8",
                               "--seed", "1"],
    "linear_blowup_block2": ["simulate", *LINEAR, "--lam", "-3", "--alpha", "1", "--h", "0.01",
                             "--T", "6", "--mu", "0"],
    # one path: deterministic past one block, and a stochastic divergence at
    # step 113, in block 1, found by the block check and replayed with checks
    "nl_deterministic": ["simulate", "--system", "newton_leipnik", "--alpha", "0.93",
                         "--h", "0.005", "--T", "5", "--mu", "0"],
    "lorenz_path_step113": ["simulate", "--system", "lorenz", "--alpha", "0.9", "--h", "0.005",
                            "--T", "5", "--mu", "2", "--seed", "3"],
    "lorenz_picard_sup": ["picard", "--system", "lorenz", "--alpha", "0.95", "--h", "0.01",
                          "--T", "1", "--mu", "0.01", "--paths", "100", "--iterations", "4",
                          "--sup"],
    "picard_T5": [*NL_PICARD, "--T", "5", "--paths", "100"],
    # paths in two batches of increment_batches: 349 and 51 of 3 x 1001 nodes
    "ensemble_two_batches": ["ensemble", "--system", "newton_leipnik", "--alpha", "0.93",
                             "--h", "0.005", "--T", "5", "--mu", "0.1", "--paths", "400",
                             "--seed", "3", "--format", "json"],
    # the master seed as one and as two 32-bit words of the stream keys
    "ensemble_seed0": ["ensemble", "--system", "newton_leipnik", "--alpha", "0.93",
                       "--h", "0.02", "--T", "0.5", "--mu", "0.1", "--paths", "8",
                       "--seed", "0"],
    "picard_seed_max": [*NL_PICARD, "--T", "0.5", "--paths", "100",
                        "--seed", "18446744073709551615"],
    # input edges: exit 2, and a variance law out of float range (exit 0)
    "negative_workers": ["ensemble", "--workers", "-1"],
    "counts_and_alpha": ["ensemble", "--paths", "0", "--workers", "-1", "--alpha", "1.5"],
    "weights_bad_mode": ["weights", "-n", "2", "--alpha", "0.5", "--mode", "bogus"],
    "two_levels": ["converge", "--levels", "2"],
    "config_line_without_equals": ["simulate", "--config", "{tmp}/bad.cfg"],
    "bad_alpha": ["simulate", "--alpha", "1.5"],
    "grid_too_large": ["simulate", "--T", "1e9", "--h", "1"],
    "unwritable_output": ["simulate", *LINEAR, "--alpha", "0.8", "--h", "0.25", "--T", "1",
                          "-o", "{tmp}/missing/out.csv"],
    "variance_law_overflow": ["ensemble", *LINEAR, "--lam", "0", "--sigma0", "1e155",
                              "--alpha", "1", "--h", "1e-300", "--T", "2e-300", "--paths", "2",
                              "--format", "json"],
}


def run(tree: Path, argv: list, tmp: str, extra_env: dict) -> tuple:
    """(output sha256, stderr, exit code) of one run in tree, with extra_env set."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **extra_env)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sfode.cli",
                           *(a.format(tmp=tmp) for a in argv)],
                          cwd=tree, env=env, capture_output=True, timeout=600)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.stderr, proc.returncode


def extract(ref: str, dest: Path) -> None:
    """Write the files of git revision ref into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REF", help="git revision")
    parser.add_argument("--expect-change", action="append", default=[], metavar="NAME",
                        help="a run whose output may differ (repeatable)")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="a variable set for the working tree's runs only (repeatable)")
    args = parser.parse_args(argv)
    if bad := [item for item in args.env if item.find("=") < 1]:
        parser.error(f"--env takes KEY=VALUE; got {', '.join(bad)}")
    tree_env = dict(item.split("=", 1) for item in args.env)
    unknown = sorted(set(args.expect_change) - set(RUNS))
    if unknown:
        parser.error(f"unknown run name(s): {', '.join(unknown)}")
    if subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.against}^{{commit}}"],
                      cwd=ROOT, capture_output=True).returncode:
        parser.error(f"not a git revision: {args.against}")

    failed = 0
    with tempfile.TemporaryDirectory(prefix="sfode-identity-") as tmp:
        ref_tree = Path(tmp) / "ref"
        extract(args.against, ref_tree)
        Path(tmp, "bad.cfg").write_text("system = lorenz\nalpha 0.9\n")
        print(f"{'run':<28} {'exit':>6}  {'ref sha256':<16} "
              f"{'tree sha256':<16} stderr")
        for name, run_argv in RUNS.items():
            ref_out, ref_err, ref_code = run(ref_tree, run_argv, tmp, {})
            out, err, code = run(ROOT, run_argv, tmp, tree_env)
            same = (ref_out, ref_err, ref_code) == (out, err, code)
            mark = "" if same else ("  differs (expected)" if name in args.expect_change
                                    else "  DIFFERS")
            failed += not same and name not in args.expect_change
            exit_col = str(code) if code == ref_code else f"{ref_code}->{code}"
            tree_col = "same" if out == ref_out else out[:16]
            print(f"{name:<28} {exit_col:>6}  {ref_out[:16]:<16} {tree_col:<16} "
                  f"{'same' if err == ref_err else 'differs'}{mark}", flush=True)
    print(f"{len(RUNS)} runs against {args.against}"
          f"{''.join(f' --env {item}' for item in args.env)}: {failed} unexpected difference(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
