#!/usr/bin/env python3
"""Emit the well-posedness region maps as SVG + CSV.

Produces the existence square for d = 2 (time-integrability axis at its
best, 1/alpha = 0) and two slices of the d = 3 uniqueness/regularity cube
(1/alpha = 0 and 1/alpha = 1/2).

Usage: python scripts/regime_figures.py [--resolution 64] --out DIR
"""

import argparse
from pathlib import Path

from advdiff.regimes import check_resolution, emit_region_map, region_map_csv, region_map_svg


def resolution(text: str) -> int:
    """An integer resolution that ``emit_region_map`` accepts, or a usage error."""
    value = int(text)
    try:
        check_resolution(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=resolution, default=64)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    slices = [
        ("existence_d2", 2, 0.0),
        ("uniqueness_d3_alpha_inf", 3, 0.0),
        ("uniqueness_d3_alpha_2", 3, 0.5),
    ]
    args.out.mkdir(parents=True, exist_ok=True)
    for name, d, inv_alpha in slices:
        rm = emit_region_map(d, inv_alpha, args.resolution)
        (args.out / f"{name}.svg").write_text(region_map_svg(rm))
        (args.out / f"{name}.csv").write_text(region_map_csv(rm))
        labels = {rep.label for row in rm.reports for rep in row}
        print(f"{name}: {len(labels)} distinct regions over {args.resolution}^2 cells")
    print(f"wrote {3 * 2} files under {args.out}/")


if __name__ == "__main__":
    main()
