#!/usr/bin/env python3
"""Measure the empirical strong convergence rate of the stochastic stepper.

Each case runs convergence_order on five dyadic grids of [0, 1], h = 1/32 down
to 1/512.  One fine Wiener path is drawn and restricted to each coarser grid by
summing increments, so the measured errors reflect discretization alone.  No
theoretical rate is claimed for the noisy scheme; this script just records
what the implementation achieves on two representative problems.

Usage: python scripts/strong_order.py [master_seed]
"""

import sys

from sfode.analysis import convergence_order
from sfode.solver import SolverConfig
from sfode.stochastic import make_grid
from sfode.systems import NewtonLeipnikParams, linear_test, newton_leipnik


def main(master_seed: int = 7) -> None:
    cases = [
        ("additive noise, lam=1, sigma0=0.5, alpha=0.8",
         linear_test(lam=1.0, sigma0=0.5), 0.8),
        ("Newton-Leipnik, mu=0.1, alpha=0.93",
         newton_leipnik(NewtonLeipnikParams(mu=0.1)), 0.93),
    ]
    for label, model, alpha in cases:
        cfg = SolverConfig(alpha=alpha, grid=make_grid(1.0, 1 / 32), stochastic=True)
        report = convergence_order(model, cfg, 5, master_seed=master_seed)
        print(f"{label} (seed {master_seed})")
        for h, err in zip(report.h, report.errors):
            print(f"  h = {h:9.6f}   error vs finest = {err:.3e}")
        print(f"  fitted order: {report.order:.3f}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
