#!/usr/bin/env python3
"""Energy budget of a stirred, diffusing scalar.

Runs the cellular-vortex advection of a single Fourier mode, prints the
budget 0.5||u(t)||^2 + int_0^t ||grad u||^2 per record, and verifies that
the budget defect shrinks at the scheme's order when dt is halved.

Usage: python scripts/energy_budget_demo.py [--n 128] [--t-final 0.25] [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from advdiff.grid import ScalarField, TorusGrid
from advdiff.library import FieldSpec
from advdiff.solver import SolverConfig, solve


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--t-final", type=float, default=0.25)
    ap.add_argument("--dt", type=float, default=2e-4)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    grid = TorusGrid(2, args.n)
    x, y = grid.coordinate_mesh()
    u0 = ScalarField(grid, np.broadcast_to(np.sin(2 * np.pi * y), grid.shape))
    field = FieldSpec("taylor_green")

    residuals = []
    for dt in (args.dt, args.dt / 2):
        traj = solve(field, u0, SolverConfig(t_final=args.t_final, dt=dt, record_every=10**9))
        diag = traj.diagnostics
        half = [0.5 * x**2 for x in diag["l2"].tolist()]  # Python's float power, as the solver's energy_lhs
        residuals.append(abs(diag["energy_lhs"][-1] - half[0]))
        if dt == args.dt:
            budget = list(zip(diag["t"], half, diag["grad_l2_sq_cum"], diag["energy_lhs"]))
            print(f"{'t':>8s} {'0.5||u||^2':>12s} {'cum dissip':>12s} {'budget':>12s}")
            for t, h, cum, lhs in budget[:: max(1, len(budget) // 20)]:
                print(f"{t:8.4f} {h:12.6e} {cum:12.6e} {lhs:12.6e}")
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                rows = ["t,half_l2_sq,grad_l2_sq_cum,energy_lhs"]
                rows += [",".join(f"{v:.17g}" for v in row) for row in budget]
                (args.out / "energy_budget.csv").write_text("\n".join(rows) + "\n")

    print(f"\nbudget defect at dt:   {residuals[0]:.3e}")
    print(f"budget defect at dt/2: {residuals[1]:.3e}  (ratio {residuals[0] / residuals[1]:.1f})")


if __name__ == "__main__":
    main()
