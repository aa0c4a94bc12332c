"""Command-line interface wiring together the verification suites, Molien
tables, resolvent sampling, solving, selector fitting, orbit export, and
basin rendering."""

import argparse
import json
import re
import sys

import numpy as np

SCHEMA = "valentiner/1"
SWEEP_BLOCK = 16


def _emit(payload, out):
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, indent=2, default=_jsonify)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _jsonify(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    raise TypeError(f"cannot serialize {type(x)}")


def _parse_complex(s):
    re, im = s.split(",")
    return complex(float(re), float(im))


def _join_negative_values(argv):
    """`--y1 -0.5,0.2` as `--y1=-0.5,0.2`.

    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number, which "re,im" never is.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--y1", "--y2", "--v") and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def cmd_verify(args):
    """The verification report.  Each call rebuilds the group and the orbit
    catalog (dedup screened by blocked Gram products, confirmed by exact
    distances: projective.first_unique) and sweeps invariance over
    SWEEP_BLOCK lift elements per eval_forms call."""
    from .equivariants import registry
    from .frames import bub_frame
    from .group import enumerate_group
    from .hpoly import eval_forms
    from .invariants import verify_relations
    from .orbits import special_orbits
    from .projective import random_unit_points

    reg = registry()
    inv = reg.inv
    table = enumerate_group().conjugate_to_frame(bub_frame())
    report = {"checks": []}

    def add(name, value, passed):
        report["checks"].append({"identity": name, "max_rel_residual": value, "pass": bool(passed)})

    census = table.order_census()
    add("group order census", 0.0, census == {1: 1, 2: 45, 3: 80, 4: 90, 5: 144})
    dets = np.abs(np.linalg.det(table.lift) - 1)
    add("lift determinants", float(np.max(dets)), np.max(dets) < 1e-10)

    rng = np.random.default_rng(args.seed)
    pts = random_unit_points(rng, 100)
    n_elems = len(table.lift) if args.thorough else 50
    idx = np.arange(len(table.lift)) if args.thorough else rng.choice(len(table.lift), 50, replace=False)
    invariants = [inv.F, inv.Phi, inv.Psi, inv.X]
    vals = eval_forms(invariants, pts).T[:, None]
    worst = 0.0
    for lo in range(0, n_elems, SWEEP_BLOCK):
        moved = np.matmul(pts, table.lift[idx[lo:lo + SWEEP_BLOCK]].transpose(0, 2, 1)).reshape(-1, 3)
        tv = eval_forms(invariants, moved).T.reshape(len(invariants), -1, len(pts))
        worst = max(worst, float(np.max(np.abs(tv - vals) / np.maximum(np.abs(vals), 1e-30))))
    add(f"invariance sweep ({n_elems} lift elements)", worst, worst < 1e-8)

    rep = verify_relations(inv, n_points=args.points, seed=args.seed)
    report["checks"].extend(rep["identities"])

    from .resolvents import frame_determinant_checks

    for item in frame_determinant_checks(seed=args.seed):
        report["checks"].append(item)

    cat = special_orbits(table, inv)
    from .equivariants import verify_h19

    for item in verify_h19(reg, cat, seed=args.seed):
        report["checks"].append(item)

    report["pass"] = all(c["pass"] for c in report["checks"])
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_molien(args):
    from .molien import exterior_molien, quotient_degree_lists

    table = exterior_molien(args.group, args.max_degree)
    payload = {
        "group": args.group,
        "max_degree": args.max_degree,
        "invariant_dims": table.invariant_dims,
        "exterior_dims": table.exterior_dims,
        "series": {f"s^{p}": table.series_string(p) for p in range(4)},
    }
    if args.group in ("v3x360", "icosa60"):
        name = "valentiner" if args.group == "v3x360" else "icosahedral"
        lists, q, valid = quotient_degree_lists(name, args.max_degree)
        payload["quotient_degrees"] = {f"s^{p}": lists[p] for p in range(4)}
    _emit(payload, args.out)
    return 0


def cmd_orbits(args):
    from .equivariants import registry
    from .frames import bub_frame
    from .group import enumerate_group
    from .orbits import special_orbits

    reg = registry()
    table = enumerate_group().conjugate_to_frame(bub_frame())
    cat = special_orbits(table, reg.inv)
    payload = {"frame": "bub22"}
    for name in ("orbit36", "orbit45", "orbit60", "orbit60bar", "orbit72", "orbit90"):
        pts = getattr(cat, name)
        payload[name] = [[_jsonify(complex(c)) for c in p] for p in pts]
    payload["line45"] = [[_jsonify(complex(c)) for c in ell] for ell in cat.line45]
    payload["array45"] = cat.array45.astype(int).tolist()
    _emit(payload, args.out)
    return 0


def cmd_sample_resolvent(args):
    from .equivariants import registry
    from .projective import random_unit_points
    from .resolvents import (curve_point, monic_from_roots, oracle_roots_general,
                             oracle_roots_special, quotient_v, quotient_y,
                             resolvent_ry, resolvent_tv)

    inv = registry().inv
    rng = np.random.default_rng(args.seed)
    if args.case == "general":
        while True:
            z = random_unit_points(rng, 1)[0]
            y1, y2 = quotient_y(inv, z)
            if 0.25 < abs(y1) < 2.5 and 0.25 < abs(y2) < 2.5:
                break
        roots = oracle_roots_general(inv, z)
        coeffs = resolvent_ry(y1, y2)
        payload = {"case": "general", "z": [_jsonify(complex(c)) for c in z],
                   "Y1": _jsonify(complex(y1)), "Y2": _jsonify(complex(y2))}
    else:
        z = curve_point(rng, inv)
        v = quotient_v(inv, z)
        roots = oracle_roots_special(inv, z)
        coeffs = resolvent_tv(v)
        payload = {"case": "special", "z": [_jsonify(complex(c)) for c in z],
                   "V": _jsonify(complex(v))}
    prod = monic_from_roots(roots)
    payload["resolvent_coefficients"] = [_jsonify(complex(c)) for c in coeffs]
    payload["oracle_roots"] = [_jsonify(complex(r)) for r in roots]
    payload["product_vs_printed_max_err"] = float(np.max(np.abs(prod - coeffs)))
    _emit(payload, args.out)
    return 0


def cmd_fit_selectors(args):
    from .selectors import default_cache_dir, fit_selectors
    from pathlib import Path

    cache = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    out = {}
    for case in (args.case,) if args.case else ("general", "special"):
        table = fit_selectors(case, progress=lambda s: print(f"[{case}] {s}", file=sys.stderr))
        with open(cache / f"selector_{case}.json", "w") as f:
            json.dump(table.to_json_dict(), f)
        out[case] = {"fit_residual": table.fit_residual,
                     "sel_const": _jsonify(table.sel_const),
                     "anchors": {k: {kk: _jsonify(vv) for kk, vv in v.items()}
                                 for k, v in table.anchor_report().items()}}
    _emit({"fitted": out, "cache_dir": str(cache)}, args.out)
    return 0


def cmd_solve(args, case):
    from .dynamics import IterationConfig, solve_resolvent
    from .selectors import load_or_fit_selectors

    if case == "general":
        params = (_parse_complex(args.y1), _parse_complex(args.y2))
    else:
        params = (_parse_complex(args.v),)
    cfg = IterationConfig(seed=args.seed)
    table = load_or_fit_selectors(case, cache_dir=args.cache_dir)
    result = solve_resolvent(params, case, cfg, table)
    _emit(result.to_json_dict(), args.out)
    return 0 if result.converged else 1


def cmd_basins(args):
    from .basins import render_basins

    grid = render_basins(args.slice, resolution=args.res, max_iter=args.max_iter)
    grid.to_ppm(args.out_ppm)
    if args.json:
        _emit(grid.to_json_dict(), args.json)
    print(f"wrote {args.out_ppm}: {grid.resolution}x{grid.resolution}, "
          f"converged {grid.converged_fraction():.4f}", file=sys.stderr)
    return 0


def build_parser():
    from .basins import MAX_ITER

    ap = argparse.ArgumentParser(prog="valentiner",
                                 description="Valentiner action on CP^2: invariants, "
                                             "equivariant dynamics, sextic resolvent solving")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity and structure verification suite")
    p.add_argument("--thorough", action="store_true", help="sweep all 1080 lift elements")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("molien", help="Molien and exterior Molien tables")
    p.add_argument("--group", choices=["v3x360", "v6x360", "icosa60", "icosa120"], default="v3x360")
    p.add_argument("--max-degree", type=int, default=48)
    p.add_argument("--out")

    p = sub.add_parser("orbits", help="special orbit catalog as JSON")
    p.add_argument("--out")

    p = sub.add_parser("sample-resolvent", help="sample a resolvent with its oracle roots")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--case", choices=["general", "special"], default="general")
    p.add_argument("--out")

    p = sub.add_parser("fit-selectors", help="fit and cache the root-selector tables")
    p.add_argument("--case", choices=["general", "special"])
    p.add_argument("--cache-dir")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="solve a general two-parameter resolvent")
    p.add_argument("--y1", required=True, metavar="re,im")
    p.add_argument("--y2", required=True, metavar="re,im")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir")
    p.add_argument("--out")

    p = sub.add_parser("solve-special", help="solve a special one-parameter resolvent")
    p.add_argument("--v", required=True, metavar="re,im")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir")
    p.add_argument("--out")

    p = sub.add_parser("basins", help="render a basin grid to PPM")
    p.add_argument("--slice", choices=["rp2", "conic", "line45"], required=True)
    p.add_argument("--res", type=int, default=720)
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--out", dest="out_ppm", required=True, metavar="FILE.ppm")
    p.add_argument("--json")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "molien":
            return cmd_molien(args)
        if args.command == "orbits":
            return cmd_orbits(args)
        if args.command == "sample-resolvent":
            return cmd_sample_resolvent(args)
        if args.command == "fit-selectors":
            return cmd_fit_selectors(args)
        if args.command == "solve":
            return cmd_solve(args, "general")
        if args.command == "solve-special":
            return cmd_solve(args, "special")
        if args.command == "basins":
            return cmd_basins(args)
    except Exception as e:  # surface failures as exit code 1 with a message
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
