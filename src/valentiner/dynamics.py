"""Iteration engine and the end-to-end resolvent solver.

Trajectories of the degree-19 family maps converge (conjecturally, on a
full-measure set) to period-2 cycles lying over the 72-point orbit.  The
family's sextic curve F = 0 is critical for the map (J(h19) = F G48), and
the 72 points lie on it, so these cycles are superattracting: once the
trajectory is near the orbit, each step roughly squares its distance to
it.  The solver therefore certifies trajectory points as they come, by
the vanishing of the family's degree-6 and degree-12 forms, and hands the
first certified consecutive pair straight to root selection.
`polish_72point` (Newton onto the common zero locus) pins exact
72-points for the selector calibration; the solve path does not use it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllRestartsFailed, NotAConvergedCycle
from .projective import fs_distance, normalize_point
from .resolvents import _invariant_chain, eval_monic


NEWTON_MAX_STEPS = 16
# map steps per restart, the Fubini-Study distance fs(w_k, w_{k-2}) at which a
# trajectory counts as settled on a cycle, the certificate bound on |F|/sup|F|
# and |Phi|/sup|Phi| (also the solve's residual gate), and restarts per solve
MAX_ITERATIONS = 500
CYCLE_TOLERANCE = 1e-9
CERTIFICATE_TOLERANCE = 1e-7
RESTARTS = 8
# Newton steps and the |F|, |Phi| (over their sup norms) at which polish_72point stops
POLISH_STEPS = 40
POLISH_TOL = 1e-13


def _newton_root(coeffs, u):
    """Sharpen a selected root on its sextic and report the last step size.

    The selector picks which root; Newton removes its evaluation noise.
    Steps continue while |R/R'| shrinks, so a start that needs five steps
    gets them, and stop at the roundoff floor, where the step no longer
    decreases.  The last step taken bounds the distance to the nearest
    true root, which is the meaningful convergence gate (the raw |R| scale
    collapses when all six roots are small).
    """
    last = np.inf
    for _ in range(NEWTON_MAX_STEPS):
        f = eval_monic(coeffs, u)
        d = 6 * u ** 5
        for k, c in enumerate(coeffs[:-1]):
            d += (5 - k) * c * u ** (4 - k)
        if d == 0:
            break
        step = f / d
        if not np.isfinite(step.real) or abs(step) > 0.5 * max(abs(u), 1e-6):
            return u, np.inf
        if abs(step) >= last:
            break
        u = u - step
        last = abs(step)
    return u, last


@dataclass
class IterationConfig:
    seed: int = 0


@dataclass
class RootResult:
    case: str
    params: tuple
    root: complex
    residual: float
    cycle: tuple
    iterations: int
    restarts_used: int
    converged: bool = True

    def to_json_dict(self):
        return {
            "case": self.case,
            "params": [{"re": complex(p).real, "im": complex(p).imag} for p in self.params],
            "root": {"re": self.root.real, "im": self.root.imag},
            "residual": self.residual,
            "cycle": [[{"re": c.real, "im": c.imag} for c in p] for p in self.cycle],
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
        }


def polish_72point(fam, w):
    """Newton-polish w onto {F = 0} cap {Phi = 0} of a family system.

    Works in an affine chart centered at w: two complex unknowns against
    the two certificate equations, with F, Phi and their gradients read
    off the family map's jet tables (sup|F| is 1).
    """
    w = normalize_point(np.asarray(w, dtype=complex))
    # chart directions orthogonal to w
    basis = []
    for e in np.eye(3, dtype=complex):
        v = e - np.vdot(w, e) * w
        n = np.linalg.norm(v)
        if n > 0.3:
            basis.append(v / n)
        if len(basis) == 2:
            break
    if len(basis) < 2:
        raise NotAConvergedCycle("degenerate chart at candidate cycle point")
    u, v = basis
    ab = np.zeros(2, dtype=complex)
    for _ in range(POLISH_STEPS):
        p = w + ab[0] * u + ab[1] * v
        fv, gf, pv, gp = _invariant_chain(fam.h.jets, p)[:4]
        pv, gp = pv / fam.phi_sup, gp / fam.phi_sup
        if abs(fv) < POLISH_TOL and abs(pv) < POLISH_TOL:
            break
        jac = np.array([[gf @ u, gf @ v], [gp @ u, gp @ v]])
        try:
            delta = np.linalg.solve(jac, np.array([fv, pv]))
        except np.linalg.LinAlgError:
            raise NotAConvergedCycle("singular Newton system while polishing")
        ab = ab - delta
        if np.linalg.norm(delta) > 10.0:
            raise NotAConvergedCycle("polish diverged")
    return normalize_point(w + ab[0] * u + ab[1] * v)


def certified_cycle(fam, w0):
    """Iterate to the attractor and return the first certified pair.

    The first consecutive pair (w_{k-1}, w_k) whose points both certify on
    {F = 0, Phi = 0} and lie at least 1e-8 apart is returned as it stands:
    the cycles over the 72-point orbit are superattracting, so the map
    itself lands the trajectory on the locus to machine precision.  Each
    new point is certified once.  A restart ends at a fixed point (a
    certified pair closer than 1e-8), at a cycle settled off the locus
    (fs(w_k, w_{k-2}) < CYCLE_TOLERANCE without a certified pair), at a
    non-finite image (the family map's denominator X vanishes on the 45
    mirror lines) or after MAX_ITERATIONS steps.

    Returns (pair, iterations), with pair None when no pair certified.
    """
    w = normalize_point(np.asarray(w0, dtype=complex))
    prev = [w]
    cert_prev = np.inf
    k = 0
    for k in range(MAX_ITERATIONS):
        w = fam.h(prev[-1])
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0:
            break
        w = w / nrm
        prev = prev[-2:] + [w]
        cert = max(fam.certificate(w))
        if max(cert, cert_prev) < CERTIFICATE_TOLERANCE:
            if fs_distance(prev[-2], w) < 1e-8:
                break  # a fixed point, not a two-cycle
            return (normalize_point(prev[-2]), normalize_point(w)), k + 1
        if len(prev) == 3 and fs_distance(w, prev[0]) < CYCLE_TOLERANCE:
            break  # settled on a cycle off the invariant locus
        cert_prev = cert
    return None, k + 1


def solve_resolvent(params, case="general", cfg=None, selector_table=None):
    """End-to-end solve: instantiate, iterate to a certified cycle, select a root.

    Deterministic for a fixed config seed.  The returned root annihilates
    the published sextic for the given parameters within
    CERTIFICATE_TOLERANCE (relative to the coefficient scale).
    """
    from .resolvents import instantiate_family, resolvent_ry, resolvent_tv
    from .selectors import load_or_fit_selectors

    cfg = cfg or IterationConfig()
    table = selector_table or load_or_fit_selectors(case)
    fam = instantiate_family(params, case)
    rng = np.random.default_rng(cfg.seed)
    coeffs = resolvent_ry(*params) if case == "general" else resolvent_tv(params[0])
    cscale = float(np.max(np.abs(coeffs)))
    gamma_coeffs = table.contract(params)
    best = None
    for attempt in range(RESTARTS):
        w0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pair, iters = certified_cycle(fam, w0)
        if pair is None:
            continue
        result, gate = _rooted_result(table, gamma_coeffs, fam, pair, coeffs, cscale, case,
                                      params, iters, attempt + 1)
        if result.residual < CERTIFICATE_TOLERANCE and gate < 1e-6:
            return result
        if best is None or result.residual < best.residual:
            best = result
    if best is not None:
        best.converged = False
        return best
    raise AllRestartsFailed(f"no certified cycle in {RESTARTS} restarts")


def _rooted_result(table, gamma_coeffs, fam, pair, coeffs, cscale, case, params, iters,
                   attempt):
    from .selectors import select_root

    root, step = _newton_root(coeffs, select_root(table, fam, pair[0], gamma_coeffs))
    root2, step2 = _newton_root(coeffs, select_root(table, fam, pair[1], gamma_coeffs))
    if (step2 / max(abs(root2), 1e-12)) < (step / max(abs(root), 1e-12)):
        root, step = root2, step2
    resid = abs(eval_monic(coeffs, root)) / cscale
    gate = step / max(abs(root), 1e-12)
    return RootResult(case, tuple(params), complex(root),
                      float(max(resid, gate * 1e-12)),
                      (tuple(pair[0]), tuple(pair[1])), iters, attempt), gate
