"""The three workloads: seeded inputs, set-up, timed operations and checks.

Each workload runs rounds of operations.  Timing wraps only the call into
the package; inputs are made before it and outputs are checked after it,
against the references in reference.py.

Import this module only after the set-up clock has started: it imports
numpy and the package, and that import is part of set-up.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "valentiner").is_dir():
    raise ImportError(f"no package source at {SRC / 'valentiner'}")
sys.path.insert(0, str(SRC))

import valentiner  # noqa: E402

if str(SRC / "valentiner") not in [str(Path(p)) for p in valentiner.__path__]:
    raise ImportError(f"valentiner was imported from {list(valentiner.__path__)}, not {SRC}")

import reference as ref  # noqa: E402

# solve-window: the acceptance window of criterion 9, two general points per
# special one, except that |Y1| stays below 1 where criterion 9 allows 2.2:
# above 1 a few in a thousand general solves do not converge (see README.md)
Y1_WINDOW = (0.3, 1.0)
Y2_WINDOW = (0.3, 2.2)
T_Y_MIN = 1e-4
SPECIAL_WINDOW = (0.25, 3.0)
SPECIAL_AWAY_FROM_1 = 0.15
WARM_PARAMS = (0.7 + 0.2j, 1.1 - 0.3j)   # the set-up solve, not in the measured set

# basins: (slice, resolution, iteration budget); the extent of each round's
# grids is drawn from EXTENT_RANGE
SLICES = (("rp2", 360, 200), ("conic", 300, 200), ("line45", 300, 60))
EXTENT_RANGE = (1.9, 2.1)
D5_RESOLUTION = 90
D5_MAX_MISMATCH = 0.01
RP2_MIN_CONVERGED = 0.95

# verify: one in-process CLI call per round
VERIFY_ARGS = ["verify", "--thorough"]


# --- set-up -----------------------------------------------------------------------


def setup(workload):
    """Build what the workload's timed calls use; returns the shared state."""
    if workload == "solve-window":
        from valentiner.dynamics import IterationConfig, solve_resolvent
        from valentiner.resolvents import fv_table, fy_table
        from valentiner.selectors import load_or_fit_selectors

        tables = {case: load_or_fit_selectors(case) for case in ("general", "special")}
        fy_table()
        fv_table()
        solve_resolvent(WARM_PARAMS, "general", IterationConfig(seed=0), tables["general"])
        return {"tables": tables}
    if workload in ("basins", "verify"):
        from valentiner.equivariants import registry
        from valentiner.frames import bub_frame
        from valentiner.group import enumerate_group
        from valentiner.orbits import special_orbits

        import valentiner.basins  # noqa: F401
        import valentiner.cli  # noqa: F401
        reg = registry()
        table = enumerate_group().conjugate_to_frame(bub_frame())
        return {"reg": reg, "table": table, "catalog": special_orbits(table, reg.inv)}
    raise ValueError(f"unknown workload {workload!r}")


def import_all():
    """Import every module the tracer wraps (cheap once numpy is loaded)."""
    import valentiner.basins  # noqa: F401
    import valentiner.cli  # noqa: F401
    import valentiner.dynamics  # noqa: F401
    import valentiner.equivariants  # noqa: F401
    import valentiner.group  # noqa: F401
    import valentiner.invariants  # noqa: F401
    import valentiner.orbits  # noqa: F401
    import valentiner.resolvents  # noqa: F401
    import valentiner.selectors  # noqa: F401
    import valentiner.slices  # noqa: F401


# --- solve-window -----------------------------------------------------------------


def _unit_point(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return v / np.linalg.norm(v)


class SolveInputs:
    """Seeded stream of solve inputs: general, general, special, ...

    General points are random unit points z mapped to Y1 = Phi/F^2,
    Y2 = Psi/(4 F^5); special points are random points of {F = 0} mapped to
    V = (8/3) Phi^5 / Psi^2.  Draws outside the windows are rejected.
    """

    def __init__(self, seed, inv):
        self.rng = np.random.default_rng(seed)
        self.inv = inv
        self.grad_f = inv.F.grad()
        self.f_sup = inv.F.supnorm()

    def triple(self):
        return [self._general(), self._general(), self._special()]

    def _next(self, case, params, z, coeffs, closed_form):
        return {"case": case, "params": params, "z": z,
                "iter_seed": int(self.rng.integers(2 ** 31)),
                "coeffs": coeffs, "closed_form": closed_form}

    def _general(self):
        inv = self.inv
        while True:
            z = _unit_point(self.rng)
            f = inv.F.eval(z)
            y1 = inv.Phi.eval(z) / f ** 2
            y2 = inv.Psi.eval(z) / (4 * f ** 5)
            # T_Y = det(tau_z)^2 / F^25 = (3/8)^2 X^2 / F^15 in the table frame
            t_y = abs((3 / 8) ** 2 * inv.X.eval(z) ** 2 / f ** 15)
            if Y1_WINDOW[0] < abs(y1) < Y1_WINDOW[1] and Y2_WINDOW[0] < abs(y2) < Y2_WINDOW[1] \
                    and t_y > T_Y_MIN:
                return self._next("general", (y1, y2), z, ref.sextic_general(y1, y2),
                                  ref.closed_form_roots_general(inv, z))

    def _special(self):
        inv = self.inv
        lo, hi = SPECIAL_WINDOW
        while True:
            z = self._curve_point()
            if z is None:
                continue
            v = (8 / 3) * inv.Phi.eval(z) ** 5 / inv.Psi.eval(z) ** 2
            if lo < abs(v) < hi and abs(v - 1) > SPECIAL_AWAY_FROM_1:
                return self._next("special", (v,), z, ref.sextic_special(v),
                                  ref.closed_form_roots_special(self.inv, z))

    def _curve_point(self):
        """A random point of {F = 0}: a root of F on a random line, polished."""
        a = _unit_point(self.rng)
        b = _unit_point(self.rng)
        w = np.exp(2j * np.pi * np.arange(7) / 7)
        vals = np.array([self.inv.F.eval(a + t * b) for t in w])
        coef = np.fft.fft(vals) / 7           # F(a + t b) = sum_k coef[k] t^k
        t = min(np.roots(coef[::-1]), key=abs)
        for _ in range(8):
            p = a + t * b
            d = sum(g.eval(p) * b[k] for k, g in enumerate(self.grad_f))
            t = t - self.inv.F.eval(p) / d
        z = (a + t * b) / np.linalg.norm(a + t * b)
        if abs(self.inv.F.eval(z)) < 1e-12 * self.f_sup:
            return z
        return None


def solve_once(state, inp):
    from valentiner.dynamics import IterationConfig, solve_resolvent

    return solve_resolvent(inp["params"], inp["case"], IterationConfig(seed=inp["iter_seed"]),
                           state["tables"][inp["case"]])


def check_solve(inp, result):
    """Reasons a solve result is wrong; an empty list means it passed."""
    if result is None:
        return [f"raised {inp.get('error')}"]
    bad = [] if result.converged else ["not converged"]
    return bad + ref.check_root(result.root, inp["coeffs"], inp["closed_form"])


def _hex(c):
    c = complex(c)
    return [c.real.hex(), c.imag.hex()]


def root_record(inputs, results):
    """[(params, root)] as exact hex strings, for comparing passes."""
    return [[[_hex(p) for p in inp["params"]], _hex(r.root) if r is not None else None]
            for inp, r in zip(inputs, results)]


def check_repeat(state, inp, result):
    """Solve inp again: the root must repeat bit for bit."""
    if result is None:
        return []  # check_solve already failed it
    try:
        again = solve_once(state, inp)
    except Exception as e:  # noqa: BLE001 -- reported as the failure
        return [f"raised {type(e).__name__} when solved again"]
    return [] if _hex(again.root) == _hex(result.root) else ["root differs when solved again"]


# --- basins -----------------------------------------------------------------------


def round_extent(rng):
    lo, hi = EXTENT_RANGE
    return float(lo + (hi - lo) * rng.random())


def render_once(state, slice_id, res, max_iter, extent):
    from valentiner import basins

    return basins.render_basins(slice_id, state["reg"], state["catalog"], resolution=res,
                                max_iter=max_iter, extent=extent)


def map_evals(grid, max_iter):
    """Summed per-cell iterations; cells that never converged count the budget."""
    return int(np.where(grid.labels >= 0, grid.iterations, max_iter).sum())


def check_grid(slice_id, grid):
    labels = set(int(v) for v in np.unique(grid.labels)) - {-1}
    if slice_id == "rp2":
        bad = []
        if grid.converged_fraction() < RP2_MIN_CONVERGED:
            bad.append(f"converged {grid.converged_fraction():.4f}")
        if labels != set(range(5)) or grid.n_attractors != 5:
            bad.append(f"pair labels {sorted(labels)}")
        return bad
    if slice_id == "conic":
        return [] if labels == set(range(6)) else [f"pair labels {sorted(labels)}"]
    if slice_id == "line45":
        ok = grid.n_attractors == 4 and labels == set(range(4))
        return [] if ok else [f"{grid.n_attractors} fixed points, labels {sorted(labels)}"]
    raise ValueError(slice_id)


def d5_mismatch(state, extent):
    """Five-fold rotation check of the rp2 grid at D5_RESOLUTION."""
    from valentiner import basins

    ang = 2 * math.pi / 5
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    plain = basins.render_rp2(state["reg"], state["catalog"], D5_RESOLUTION, 200, extent)
    rotated = basins.render_rp2(state["reg"], state["catalog"], D5_RESOLUTION, 200, extent,
                                cell_transform=rot)
    return ref.rotation_mismatch(plain.labels, rotated.labels, plain.n_attractors)


def grid_digest(grid):
    return hashlib.sha256(grid.labels.tobytes() + grid.iterations.tobytes()).hexdigest()


# --- verify -----------------------------------------------------------------------


def verify_once(state, seed, out_path):
    """One in-process `valentiner verify --thorough`; returns (exit code, report)."""
    import json

    from valentiner import cli

    if out_path.exists():
        out_path.unlink()
    rc = cli.main(VERIFY_ARGS + ["--seed", str(seed), "--out", str(out_path)])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return rc, report


def check_verify(rc, report, census_ok):
    bad = [] if census_ok else ["independent order census differs from A6"]
    if rc != 0:
        bad.append(f"exit code {rc}")
    if report is None:
        return bad + ["no report"]
    if report.get("pass") is not True:
        bad.append("report pass is not true: " + ", ".join(
            c["identity"] for c in report.get("checks", []) if not c["pass"]))
    census = [c for c in report.get("checks", []) if c["identity"] == "group order census"]
    if len(census) != 1 or not census[0]["pass"]:
        bad.append("report has no passing order census")
    return bad


def census_matches(table):
    return len(table.projective) == 360 and ref.order_census(table.projective) == ref.A6_ORDER_CENSUS
