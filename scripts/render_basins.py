#!/usr/bin/env python3
"""Render the three basin plots at full resolution into an output directory."""

import argparse
import time
from pathlib import Path

from valentiner.basins import MAX_ITER, render_basins


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="basins_out")
    ap.add_argument("--res", type=int, default=720)
    ap.add_argument("--max-iter", type=int, default=MAX_ITER)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for slice_id in ("rp2", "conic", "line45"):
        t0 = time.time()
        grid = render_basins(slice_id, resolution=args.res, max_iter=args.max_iter)
        path = out / f"{slice_id}_{args.res}.ppm"
        grid.to_ppm(path)
        print(f"{slice_id}: converged {grid.converged_fraction():.4f} "
              f"in {time.time() - t0:.1f}s -> {path}")


if __name__ == "__main__":
    main()
