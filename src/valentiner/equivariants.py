"""Equivariant self-maps of CP^2: the cross maps, the degree-64 family,
and the canonical conic-preserving degree-19 map.

The degree-19 map is constructed from scratch, exactly:

1. the fourteen degree-64 maps (invariant promotions of the three cross
   maps) span all degree-64 equivariants;
2. restricting to the mirror line y1 = y2 and solving the exact rational
   nullspace gives the 3-dimensional space of 64-maps vanishing on all 45
   mirror lines;
3. exact division by the degree-45 form turns these into degree-19 maps;
4. inside that space, preserving one barred and one unbarred conic is a
   linear condition over Q(sqrt(-15)); its solution is the canonical map.

The result has integer coefficients; it is compared coefficient-by-
coefficient against the published table, and any disagreements are
reported rather than silently adopted.
"""

from fractions import Fraction

import numpy as np

from . import exactpoly as xp
from .errors import VanishingFailure
from .hpoly import EquivariantMap, HPoly, compose, grad_cross, identity_times
from .invariants import exact_chain

# promotions: (which cross map, F-power, Phi-power, Psi-power)
BASIS_64 = [
    ("psi", 8, 0, 0), ("psi", 6, 1, 0), ("psi", 4, 2, 0), ("psi", 2, 3, 0),
    ("psi", 0, 4, 0), ("psi", 3, 0, 1), ("psi", 1, 1, 1),
    ("phi", 5, 0, 0), ("phi", 3, 1, 0), ("phi", 1, 2, 0), ("phi", 0, 0, 1),
    ("f", 4, 0, 0), ("f", 2, 1, 0), ("f", 0, 2, 0),
]


def _exact_basis_64():
    f, phi, psi, x45, psi16, phi34, f40 = exact_chain()
    cross = {"psi": psi16, "phi": phi34, "f": f40}
    basis = []
    for name, a, b, c in BASIS_64:
        inv = xp.xmul(xp.xmul(xp.xpow(f, a), xp.xpow(phi, b)), xp.xpow(psi, c))
        bmap = [xp.xmul(inv, comp) for comp in cross[name]]
        assert all(sum(e) == 64 for comp in bmap for e in comp)
        basis.append(bmap)
    return basis


def _restrict_line(p):
    """Substitute y1 = y2 = t, y3 = s: dict (deg_t, deg_s) -> coeff."""
    out = {}
    for (i, j, k), c in p.items():
        e = (i + j, k)
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _rational_nullspace(rows, ncols):
    """Nullspace basis of an exact rational matrix, via RREF."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, nrows):
            if m[rr][c] != 0:
                pr = rr
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] != 0:
                fac = m[rr][c]
                m[rr] = [a - fac * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -m[rr][fc]
        basis.append(v)
    return basis


def _vanishing_family():
    """Exact coefficient vectors of 64-maps vanishing on the mirror lines."""
    basis = _exact_basis_64()
    rows_by_eq = {}
    for col, bmap in enumerate(basis):
        for comp in range(3):
            restr = _restrict_line(bmap[comp])
            for e, c in restr.items():
                rows_by_eq.setdefault((comp, e), [Fraction(0)] * len(basis))[col] = Fraction(c)
    rows = list(rows_by_eq.values())
    null = _rational_nullspace(rows, len(basis))
    if len(null) != 3:
        raise VanishingFailure(f"expected a 3-dimensional vanishing family, got {len(null)}")
    return basis, null


def _combo_map(basis, vec):
    comps = []
    for i in range(3):
        acc = {}
        for col, w in enumerate(vec):
            if w:
                acc = xp.xadd(acc, xp.xscale(basis[col][i], w))
        comps.append(acc)
    return comps


def _conic_condition_rows(g_comps, f_x, phi_x, a_coef, svals):
    """Linear conditions in (u, v) for g + (u F^3 + v F Phi) id to fix the conic
    A y1 y2 + y3^2 = 0, evaluated at parameter points [s^2, -A, A s]."""
    f3 = xp.xpow(f_x, 3)
    fphi = xp.xmul(f_x, phi_x)
    rows = []
    for s in svals:
        pt = (xp.Q15(s * s), -a_coef, a_coef * xp.Q15(s))
        g = [_eval_q15(c, pt) for c in g_comps]
        cg = a_coef * g[0] * g[1] + g[2] * g[2]
        lin = a_coef * (g[0] * pt[1] + g[1] * pt[0]) + 2 * g[2] * pt[2]
        t1 = _eval_q15(f3, pt)
        t2 = _eval_q15(fphi, pt)
        rows.append((t1 * lin, t2 * lin, -cg))
    return rows


def _eval_q15(poly, pt):
    acc = xp.Q15(0)
    for (i, j, k), c in poly.items():
        term = xp.Q15(c)
        for _ in range(i):
            term = term * pt[0]
        for _ in range(j):
            term = term * pt[1]
        for _ in range(k):
            term = term * pt[2]
        acc = acc + term
    return acc


def _solve2_q15(rows):
    """Solve an exactly-consistent 2-unknown linear system over Q(sqrt(-15)).

    The per-conic conditions have rank one per conic system (the degree-12
    invariant restricts to the square of the degree-6 one on a conic), so an
    independent pair is searched for rather than assumed.
    """
    import itertools

    for i, j in itertools.combinations(range(len(rows)), 2):
        a1, b1, c1 = rows[i]
        a2, b2, c2 = rows[j]
        det = a1 * b2 - a2 * b1
        if det:
            u = (c1 * b2 - c2 * b1) / det
            v = (a1 * c2 - a2 * c1) / det
            for a, b, c in rows:
                if not (a * u + b * v == c):
                    raise VanishingFailure("conic-preservation conditions are inconsistent")
            return u, v
    raise VanishingFailure("conic-preservation conditions are rank deficient")


def build_h19_exact():
    """Integer tables of the canonical degree-19 conic-preserving map.

    Returns (h19_components, f19_components) as exact dicts, where
    f19 = h19 - 1620 F^3 id.
    """
    from math import gcd, lcm

    f_x, phi_x, psi_x, x45 = exact_chain()[:4]
    basis, null = _vanishing_family()
    gs = []
    for vec in null:
        den = lcm(*[w.denominator for w in vec])
        ivec = [int(w * den) for w in vec]
        f64 = _combo_map(basis, ivec)
        g19 = [xp.xdivide_exact(c, x45) for c in f64]
        gs.append(g19)
    # trivial maps
    f3 = xp.xpow(f_x, 3)
    fphi = xp.xmul(f_x, phi_x)
    t1 = [xp.xmul(f3, m) for m in ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})]
    t2 = [xp.xmul(fphi, m) for m in ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})]
    # find a member of the family independent of the trivial maps:
    # pick the combination maximizing independence via exact elimination on a
    # few coefficient coordinates.
    gstar = None
    for cand in gs:
        if not _in_trivial_span(cand, t1, t2):
            gstar = cand
            break
    if gstar is None:
        raise VanishingFailure("vanishing family is entirely trivial")
    # conic preservation over Q(sqrt(-15)): A = -(1 + w)/6 for the barred conic,
    # conjugate for the unbarred one
    a_b = xp.Q15(Fraction(-1, 6), Fraction(-1, 6))
    a_u = a_b.conj()
    rows = _conic_condition_rows(gstar, f_x, phi_x, a_b, (1, 2, 3))
    rows += _conic_condition_rows(gstar, f_x, phi_x, a_u, (1, 2, 3))
    u, v = _solve2_q15(rows)
    # h = gstar + (u F^3 + v F Phi) id, coefficients should be rational
    h = []
    for i, m in enumerate(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})):
        tr = xp.xadd({e: xp.Q15(c) * u for e, c in t1[i].items()},
                     {e: xp.Q15(c) * v for e, c in t2[i].items()})
        comp = xp.xadd({e: xp.Q15(c) for e, c in gstar[i].items()}, tr)
        h.append(comp)
    for comp in h:
        for e, c in comp.items():
            if c.b != 0:
                raise VanishingFailure(f"canonical map has non-real coefficient at {e}")
    h = [{e: c.a for e, c in comp.items() if c.a != 0} for comp in h]
    # scale: clear denominators to content-1 integers, then anchor the overall
    # factor on the published pure-y3 coefficient of the third component
    den = 1
    for comp in h:
        for c in comp.values():
            den = lcm(den, c.denominator)
    h = [{e: int(c * den) for e, c in comp.items()} for comp in h]
    g = 0
    for comp in h:
        for c in comp.values():
            g = gcd(g, abs(c))
    h = [{e: c // g for e, c in comp.items()} for comp in h]
    anchor = h[2].get((0, 0, 19), 0)
    if anchor == 0:
        raise VanishingFailure("no y3^19 anchor in constructed map")
    fr = Fraction(-1023516, anchor)
    h_scaled = [{e: c * fr for e, c in comp.items()} for comp in h]
    if any(c.denominator != 1 for comp in h_scaled for c in comp.values()):
        raise VanishingFailure("published anchor does not give integer scaling")
    h_final = [{e: int(c) for e, c in comp.items()} for comp in h_scaled]
    ids = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    f19 = [xp.xadd(h_final[i], xp.xscale(xp.xmul(f3, ids[i]), -1620)) for i in range(3)]
    return h_final, f19


_H19_CACHE = None


def h19_exact():
    global _H19_CACHE
    if _H19_CACHE is None:
        _H19_CACHE = build_h19_exact()
    return _H19_CACHE


class EquivariantRegistry:
    """Dense complex versions of the named equivariants in bub22 coordinates."""

    def __init__(self):
        from .invariants import build_invariants

        self.inv = build_invariants("bub22")
        f, phi, psi = self.inv.F, self.inv.Phi, self.inv.Psi
        self.psi16 = grad_cross(f, phi)
        self.phi34 = grad_cross(f, psi)
        self.f40 = grad_cross(phi, psi)
        h, f19 = h19_exact()
        self.h19 = EquivariantMap([xp.to_hpoly(c, 19) for c in h])
        self.f19 = EquivariantMap([xp.to_hpoly(c, 19) for c in f19])
        self.k25 = build_k25()

    def g19(self, a, b):
        """The two-parameter family h19 + F (a B12 + b U12) id."""
        s = (self.inv.F * (self.inv.B12.scale(a) + self.inv.U12.scale(b)))
        return self.h19 + identity_times(s)


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = EquivariantRegistry()
    return _REGISTRY


# --- the degree-25 companion map ----------------------------------------------


def build_k25(calibrate=True):
    """The degree-25 equivariant from the doubled conjugate gradient of F.

    Built in the unitary (octahedral) frame as gradbar(F) after grad(F),
    transported to bub22 by frame conjugation, then scaled so the frame
    determinant |[z, h19(z), k25(z)]| equals -1458 X(z).
    """
    from .frames import bub_frame
    from .invariants import build_invariants

    inv_oct = build_invariants("octahedral")
    grad_f = inv_oct.F.grad()
    grad_f_bar = [HPoly(5, np.conj(g.coeffs)) for g in grad_f]
    k_oct = [compose(gb, grad_f) for gb in grad_f_bar]
    fr = bub_frame()
    m = np.asarray(fr.to_octahedral, dtype=complex)
    minv = np.asarray(fr.from_octahedral, dtype=complex)
    comps = [c.compose_linear(m) for c in k_oct]
    # y-components: k_bub = M^-1 k_oct(M y)
    out = []
    for r in range(3):
        acc = comps[0].scale(minv[r, 0]) + comps[1].scale(minv[r, 1]) + comps[2].scale(minv[r, 2])
        out.append(acc)
    k = EquivariantMap(out)
    if not calibrate:
        return k
    reg_h, _ = h19_exact()
    h = EquivariantMap([xp.to_hpoly(c, 19) for c in reg_h])
    from .invariants import build_invariants as _bi

    inv = _bi("bub22")
    rng = np.random.default_rng(210)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z /= np.linalg.norm(z)
    d = np.linalg.det(np.stack([z, h(z), k(z)], axis=1))
    target = -1458 * inv.X.eval(z)
    s = target / d
    k = k.scale(s)
    return k


def frame_determinant_ratio(inv, h, k, z):
    """|[z, h(z), k(z)]| / (F(z)^5-free certificate): returns det / X(z)."""
    d = np.linalg.det(np.stack([z, h(z), k(z)], axis=1))
    return d / inv.X.eval(z)


def conic_points(c, n, rng):
    """n points on the conic {c = 0} via quadratic slices of random pencils."""
    out = []
    while len(out) < n:
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # c(a + t b) = q2 t^2 + q1 t + q0
        q0 = c.eval(a)
        cpl = c.eval(a + b)
        cmi = c.eval(a - b)
        q2 = (cpl + cmi) / 2 - q0
        q1 = (cpl - cmi) / 2
        disc = np.sqrt(q1 * q1 - 4 * q2 * q0)
        for t in ((-q1 + disc) / (2 * q2), (-q1 - disc) / (2 * q2)):
            if len(out) < n and np.isfinite(t):
                p = a + t * b
                out.append(p / np.linalg.norm(p))
    return np.array(out)


def verify_h19(reg, catalog, seed=0, n_conic=50):
    """Structure report for the canonical degree-19 map.

    Checks conic preservation, absence of base points, the Jacobian
    factorization, the mirror-line restriction shape, the 72-point
    two-cycles, fixed special orbits, Jacobian rank one at cycle points,
    and the conic-swap symmetry.  Report items, never raises.
    """
    from .projective import fs_distance, normalize_point, random_unit_points

    rng = np.random.default_rng(seed)
    inv = reg.inv
    h = reg.h19
    items = []

    def add(name, value, passed):
        items.append({"identity": name, "max_rel_residual": float(value), "pass": bool(passed)})

    worst = 0.0
    for c in inv.conics_barred + inv.conics_unbarred:
        pts = conic_points(c, n_conic, rng)
        sup = c.supnorm()
        for p in pts:
            img = normalize_point(h(p))
            worst = max(worst, abs(c.eval(img)) / sup)
    add("h19 preserves the 12 conics", worst, worst < 1e-6)

    smallest = np.inf
    pts = np.concatenate([catalog.all_points(), random_unit_points(rng, 1000)])
    for p in pts:
        smallest = min(smallest, float(np.linalg.norm(h(np.asarray(p)))))
    add("h19 nonvanishing (holomorphic)", smallest, smallest > 1e-6)

    # exact Jacobian factorization was established in integers; spot-check it
    jdet = h.jacobian_det()
    fg = inv.F * inv.G48
    sample = random_unit_points(rng, 20)
    ratios = jdet.eval_many(sample) / fg.eval_many(sample)
    dev = float(np.max(np.abs(ratios - 1.0)))
    add("|J_h19| = F G48", dev, dev < 1e-6)

    worst = 0.0
    for p in catalog.orbit72:
        img = h(np.asarray(p))
        partner = min((fs_distance(img, q) for q in catalog.orbit72
                       if fs_distance(p, q) > 1e-6), default=np.inf)
        worst = max(worst, partner)
    add("72-points map into the orbit (two-cycles)", worst, worst < 1e-7)

    worst = 0.0
    for p in catalog.orbit72:
        img2 = h(normalize_point(h(np.asarray(p))))
        worst = max(worst, fs_distance(img2, np.asarray(p)))
    add("72-point pairs are period-2", worst, worst < 1e-7)

    worst = 0.0
    for orb in (catalog.orbit36, catalog.orbit45, catalog.orbit60, catalog.orbit60bar):
        for p in orb:
            worst = max(worst, fs_distance(h(np.asarray(p)), np.asarray(p)))
    add("36/45/60-points fixed", worst, worst < 1e-7)

    ranks = []
    for p in catalog.orbit72[:12]:
        j = h.jacobian_at(np.asarray(p))
        s = np.linalg.svd(j, compute_uv=False)
        ranks.append(s[1] / s[0])
    add("Jacobian rank one at 72-points", float(np.max(ranks)), np.max(ranks) < 1e-6)

    # restriction to the mirror line y1 = y2 has the shape [f, f, g]
    worst = 0.0
    for t in np.linspace(0.2, 1.9, 7):
        p = np.array([1.0, 1.0, t], dtype=complex)
        img = h(p)
        worst = max(worst, abs(img[0] - img[1]) / max(np.abs(img)))
    add("mirror-line restriction [f, f, g]", worst, worst < 1e-10)

    worst = 0.0
    for p in random_unit_points(rng, 20):
        a = normalize_point(h(np.conj(p)))
        b = normalize_point(np.conj(h(p)))
        worst = max(worst, fs_distance(a, b))
    add("conic-swap (conjugation) symmetry", worst, worst < 1e-8)
    return items


def _in_trivial_span(g, t1, t2):
    """Exact check whether g is a rational combination of t1, t2."""
    rows = []
    for i in range(3):
        for e in sorted(set(t1[i]) | set(t2[i]) | set(g[i])):
            rows.append((Fraction(t1[i].get(e, 0)), Fraction(t2[i].get(e, 0)), Fraction(g[i].get(e, 0))))
    # solve for (p, q) from the first independent pair, then verify
    import itertools

    for r1, r2 in itertools.combinations(range(len(rows)), 2):
        a1, b1, c1 = rows[r1]
        a2, b2, c2 = rows[r2]
        det = a1 * b2 - a2 * b1
        if det != 0:
            p = (c1 * b2 - c2 * b1) / det
            q = (a1 * c2 - a2 * c1) / det
            return all(a * p + b * q == c for a, b, c in rows)
    return False
