"""Iteration engine and the end-to-end resolvent solver.

Trajectories of the degree-19 family maps converge (conjecturally, on a
full-measure set) to period-2 cycles lying over the 72-point orbit.  The
cycle detector compares w_{k+2} with w_k, so it needs no prior knowledge
of the attractor; membership is then certified by the vanishing of the
family's degree-6 and degree-12 forms, after a Newton polish onto their
common zero locus (the trajectory only approaches the attractor, and the
polish lands the candidate pair on it before root selection).
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllRestartsFailed, NotAConvergedCycle
from .projective import fs_distance, normalize_point
from .resolvents import eval_monic


def _newton_root(coeffs, u, steps=4):
    """Sharpen a selected root on its sextic and report the last step size.

    The selector picks which root; Newton removes its evaluation noise.
    The final |R/R'| bounds the distance to the nearest true root, which is
    the meaningful convergence gate (the raw |R| scale collapses when all
    six roots are small).
    """
    last = np.inf
    for _ in range(steps):
        f = eval_monic(coeffs, u)
        d = 6 * u ** 5
        for k, c in enumerate(coeffs[:-1]):
            d += (5 - k) * c * u ** (4 - k)
        if d == 0:
            break
        step = f / d
        if not np.isfinite(step.real) or abs(step) > 0.5 * max(abs(u), 1e-6):
            return u, np.inf
        u = u - step
        last = abs(step)
    return u, last


@dataclass
class IterationConfig:
    max_iterations: int = 500
    cycle_tolerance: float = 1e-9
    certificate_tolerance: float = 1e-7
    restarts: int = 8
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
    strict_cycle: bool = True   # period-2 confirmed through polished points

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
            "strict_cycle": self.strict_cycle,
        }


def iterate_to_cycle(emap, w0, cfg=IterationConfig()):
    """Iterate to a period-2 cycle; returns (pair, iterations) or (None, n).

    Fixed points come back as a degenerate pair.  Each step renormalizes
    to unit norm, without which a degree-19 map overflows in a few steps.
    """
    w = normalize_point(np.asarray(w0, dtype=complex))
    prev = [w]
    for k in range(cfg.max_iterations):
        w = emap(prev[-1])
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0:
            return None, k
        w = w / nrm
        prev.append(w)
        if len(prev) >= 3 and fs_distance(prev[-1], prev[-3]) < cfg.cycle_tolerance:
            return (normalize_point(prev[-3]), normalize_point(prev[-2])), k + 1
    return None, cfg.max_iterations


def polish_72point(fam, w, steps=40, tol=1e-13):
    """Newton-polish w onto {F = 0} cap {Phi = 0} of a family system.

    Works in an affine chart centered at w: two complex unknowns against
    the two certificate equations, using the (well-conditioned) low end of
    the family tower.
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
    fsup = fam.F.supnorm()
    psup = fam.Phi.supnorm()
    grad_f, grad_phi = fam.F.grad(), fam.Phi.grad()
    for _ in range(steps):
        p = w + ab[0] * u + ab[1] * v
        fv = fam.F.eval(p) / fsup
        pv = fam.Phi.eval(p) / psup
        if abs(fv) < tol and abs(pv) < tol:
            break
        gf = np.array([c.eval(p) for c in grad_f]) / fsup
        gp = np.array([c.eval(p) for c in grad_phi]) / psup
        jac = np.array([[gf @ u, gf @ v], [gp @ u, gp @ v]])
        try:
            delta = np.linalg.solve(jac, np.array([fv, pv]))
        except np.linalg.LinAlgError:
            raise NotAConvergedCycle("singular Newton system while polishing")
        ab = ab - delta
        if np.linalg.norm(delta) > 10.0:
            raise NotAConvergedCycle("polish diverged")
    return normalize_point(w + ab[0] * u + ab[1] * v)


def certified_cycle(fam, w0, cfg, trigger=0.02):
    """Iterate to the attractor, polish a candidate period-2 pair, certify.

    Once the certificate indicates proximity, two consecutive trajectory
    points are polished onto {F = 0, Phi = 0} by Newton, and the period-2
    property is confirmed through the images of the polished pair.  Pairs
    that fail that confirmation are kept as a fallback; either way the
    caller's resolvent residual is the binding acceptance test.  A step
    whose image is zero or not finite (the family map's denominator X
    vanishes on the 45 mirror lines) ends the restart.

    Returns (pair, iterations, strict) or (None, iterations, False).
    """
    w = normalize_point(np.asarray(w0, dtype=complex))
    prev = [w]
    fallback = None
    best_transient = (np.inf, None)
    for k in range(cfg.max_iterations):
        w = fam.h(prev[-1])
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0:
            break
        w = w / nrm
        prev.append(w)
        if len(prev) < 3:
            continue
        settled = fs_distance(prev[-1], prev[-3]) < cfg.cycle_tolerance
        cert_now = max(fam.certificate(w))
        if cert_now < best_transient[0]:
            best_transient = (cert_now, w.copy())
        if settled and cert_now > 100 * cfg.certificate_tolerance:
            break  # settled on a cycle off the invariant locus
        near = cert_now < trigger and max(fam.certificate(prev[-2])) < trigger
        if not (settled or near):
            continue
        try:
            p1 = polish_72point(fam, prev[-2])
            p2 = polish_72point(fam, prev[-1])
        except NotAConvergedCycle:
            continue
        if fs_distance(p1, p2) < 1e-8:
            continue  # a fixed point, not a two-cycle
        if max(*fam.certificate(p1), *fam.certificate(p2)) > cfg.certificate_tolerance:
            continue
        strict = False
        try:
            h1 = fam.h(p1)
            q2 = polish_72point(fam, h1 / np.linalg.norm(h1))
            h2 = fam.h(p2)
            q1 = polish_72point(fam, h2 / np.linalg.norm(h2))
            strict = fs_distance(q2, p2) < 1e-6 and fs_distance(q1, p1) < 1e-6
        except NotAConvergedCycle:
            strict = False
        if strict:
            return (p1, p2), k + 1, True
        if fallback is None:
            fallback = ((p1, p2), k + 1)
    if fallback is not None:
        return fallback[0], fallback[1], False
    # last resort: the trajectory grazed the invariant locus without a
    # settled pair; polish the closest pass (root extraction needs only a
    # certified point of the locus, with its image-polish as companion)
    if best_transient[1] is not None and best_transient[0] < trigger:
        try:
            p1 = polish_72point(fam, best_transient[1])
            h1 = fam.h(p1)
            p2 = polish_72point(fam, h1 / np.linalg.norm(h1))
            if max(*fam.certificate(p1), *fam.certificate(p2)) < cfg.certificate_tolerance                     and fs_distance(p1, p2) > 1e-8:
                return (p1, p2), cfg.max_iterations, False
        except NotAConvergedCycle:
            pass
    return None, cfg.max_iterations, False


def solve_resolvent(params, case="general", cfg=None, selector_table=None):
    """End-to-end solve: instantiate, iterate to a certified cycle, select a root.

    Deterministic for a fixed config seed.  The returned root annihilates
    the published sextic for the given parameters within
    cfg.certificate_tolerance (relative to the coefficient scale).
    """
    from .resolvents import instantiate_family, resolvent_ry, resolvent_tv
    from .selectors import load_or_fit_selectors

    cfg = cfg or IterationConfig()
    table = selector_table or load_or_fit_selectors(case)
    fam = instantiate_family(params, case)
    rng = np.random.default_rng(cfg.seed)
    coeffs = resolvent_ry(*params) if case == "general" else resolvent_tv(params[0])
    cscale = float(np.max(np.abs(coeffs)))
    best = None
    fallbacks = []
    for attempt in range(cfg.restarts):
        w0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pair, iters, strict = certified_cycle(fam, w0, cfg)
        if pair is None:
            continue
        if not strict:
            fallbacks.append((pair, iters, attempt + 1))
            continue
        result, gate = _rooted_result(table, fam, pair, coeffs, cscale, case, params,
                                      iters, attempt + 1, True)
        if result.residual < cfg.certificate_tolerance and gate < 1e-6:
            return result
        if best is None or result.residual < best.residual:
            best = result
    # no strictly verified two-cycle: fall back to certified invariant-locus
    # pairs; the resolvent residual remains the binding acceptance test
    for pair, iters, attempt in fallbacks:
        result, gate = _rooted_result(table, fam, pair, coeffs, cscale, case, params,
                                      iters, attempt, False)
        if result.residual < cfg.certificate_tolerance and gate < 1e-6:
            return result
        if best is None or result.residual < best.residual:
            best = result
    if best is not None:
        best.converged = False
        return best
    raise AllRestartsFailed(f"no certified cycle in {cfg.restarts} restarts")


def _rooted_result(table, fam, pair, coeffs, cscale, case, params, iters, attempt,
                   strict):
    from .selectors import select_root

    root, step = _newton_root(coeffs, select_root(table, fam, pair[0]))
    root2, step2 = _newton_root(coeffs, select_root(table, fam, pair[1]))
    if (step2 / max(abs(root2), 1e-12)) < (step / max(abs(root), 1e-12)):
        root, step = root2, step2
    resid = abs(eval_monic(coeffs, root)) / cscale
    gate = step / max(abs(root), 1e-12)
    return RootResult(case, tuple(params), complex(root),
                      float(max(resid, gate * 1e-12)),
                      (tuple(pair[0]), tuple(pair[1])), iters, attempt,
                      strict_cycle=strict), gate
