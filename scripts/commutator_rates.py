#!/usr/bin/env python3
"""Empirical commutator decay rates across kernels and norms.

Sweeps dyadic kernel scales for a Lipschitz velocity (cellular vortex) and
a merely p-integrable one (power singularity), in both the space-time L1
norm and the L2-in-time H^-1-in-space norm, under both kernel profiles.
Rates are empirical observations of this discretization, not asserted limits.

Usage: python scripts/commutator_rates.py [--n 256] [--levels 5] [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from advdiff.commutators import L1_SPACETIME, L2_HMINUS1, CommutatorStudyConfig, convergence_study
from advdiff.grid import ScalarField, TorusGrid
from advdiff.library import FieldSpec
from advdiff.mollify import PROFILES, dyadic_schedule


def bounded_smooth(grid):
    x, y = grid.coordinate_mesh()
    return ScalarField(grid, np.broadcast_to(np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y) + 0.5 * np.cos(2 * np.pi * y), grid.shape))


def thread_count(text):
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--levels", type=int, default=5)
    ap.add_argument("--delta0", type=float, default=0.1)
    ap.add_argument("--threads", type=thread_count, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    grid = TorusGrid(2, args.n)
    w = bounded_smooth(grid)
    velocities = {
        "taylor_green": FieldSpec("taylor_green"),
        "power_singularity_a1.25": FieldSpec("power_singularity", {"exponent": 1.25}),
    }

    rows = ["velocity,norm,profile,delta,value,ratio"]
    print(f"{'velocity':26s} {'norm':12s} {'profile':20s} {'rate':>6s}  norms")
    for vname, spec in velocities.items():
        for norm in (L1_SPACETIME, L2_HMINUS1):
            for profile in PROFILES:
                cfg = CommutatorStudyConfig(
                    b_source=spec,
                    w_source=w,
                    delta_schedule=dyadic_schedule(args.delta0, args.levels),
                    mollifier_profile=profile,
                    norm=norm,
                )
                st = convergence_study(cfg, threads=args.threads)
                rate = "exact" if st.verdict == "exact" else (f"{st.fitted_rate:.2f}" if st.fitted_rate else st.verdict)
                print(f"{vname:26s} {norm:12s} {profile:20s} {rate:>6s}  " + " ".join(f"{v:.2e}" for v in st.norms))
                for i, (d, v) in enumerate(zip(st.deltas, st.norms)):
                    ratio = "" if i == 0 else f"{st.ratios[i - 1]:.17g}"
                    rows.append(f"{vname},{norm},{profile},{d:.17g},{v:.17g},{ratio}")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "commutator_rates.csv").write_text("\n".join(rows) + "\n")
        print(f"\nwrote {args.out / 'commutator_rates.csv'}")


if __name__ == "__main__":
    main()
