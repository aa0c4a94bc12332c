#!/usr/bin/env python3
"""Sample a resolvent with known roots, solve it by iteration, compare."""

import argparse

import numpy as np

from valentiner.dynamics import IterationConfig, solve_resolvent
from valentiner.equivariants import registry
from valentiner.projective import random_unit_points
from valentiner.resolvents import (curve_point, oracle_roots_general,
                                   oracle_roots_special, quotient_v, quotient_y,
                                   tau_det_value)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--case", choices=["general", "special"], default="general")
    args = ap.parse_args()
    inv = registry().inv
    rng = np.random.default_rng(args.seed)
    if args.case == "general":
        while True:
            z = random_unit_points(rng, 1)[0]
            y1, y2 = quotient_y(inv, z)
            if 0.3 < abs(y1) < 2.2 and 0.3 < abs(y2) < 2.2 \
                    and abs(complex(tau_det_value(y1, y2))) > 1e-4:
                break
        params = (y1, y2)
        roots = oracle_roots_general(inv, z)
        print(f"parameters: Y1 = {y1:.6f}, Y2 = {y2:.6f}")
    else:
        while True:
            z = curve_point(rng, inv)
            v = quotient_v(inv, z)
            if 0.25 < abs(v) < 3.0 and abs(v - 1) > 0.15:
                break
        params = (v,)
        roots = oracle_roots_special(inv, z)
        print(f"parameter: V = {v:.6f}")
    result = solve_resolvent(params, args.case, IterationConfig(seed=args.seed))
    scale = max(float(np.mean(np.abs(roots))), abs(result.root))
    match = float(np.min(np.abs(roots - result.root)) / scale)
    print(f"root from iteration: {result.root:.12f}")
    print(f"resolvent residual:  {result.residual:.3e}")
    print(f"iterations {result.iterations}, restarts {result.restarts_used}")
    print(f"distance to nearest closed-form root (scaled): {match:.3e}")


if __name__ == "__main__":
    main()
