"""Equivariant self-maps of CP^2: the cross maps, the degree-64 family,
and the canonical conic-preserving degree-19 map.

The degree-19 map is constructed from scratch, exactly:

1. the fourteen degree-64 maps (invariant promotions of the three cross
   maps) span all degree-64 equivariants;
2. restricting to the mirror line y1 = y2 gives integer conditions whose
   nullspace, found by fraction-free (Bareiss) elimination over the
   integers, is the 3-dimensional space of 64-maps vanishing on all 45
   mirror lines;
3. exact division by the degree-45 form turns these into degree-19 maps;
4. inside that space, preserving one barred and one unbarred conic is a
   linear condition over Q(sqrt(-15)); it is evaluated in Z[sqrt(-15)] at
   points scaled to be integral, which multiplies every condition by one
   common factor, and solved by Cramer's rule with a single division by
   the norm of the determinant.  Its solution is the canonical map.

Every step runs on HPoly with Python-int coefficients; Fraction appears
only in the small echelon back-substitution and the solved scalars.  The
result has integer coefficients; it is compared coefficient-by-coefficient
against the published table, and any disagreements are reported rather
than silently adopted.
"""

import functools
import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import VanishingFailure
from .frames import bub_frame, mpmath_constants
from .hpoly import (EquivariantMap, HPoly, det3, divide_exact, eval_forms, exps, identity_times,
                    monomial_index, restrict_line)
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
        inv = f.pow(a) * phi.pow(b) * psi.pow(c)
        bmap = [inv * comp for comp in cross[name].components]
        assert all(comp.degree == 64 for comp in bmap)
        basis.append(bmap)
    return basis


def _integer_nullspace(rows, ncols):
    """Nullspace basis of an integer matrix, the one its RREF gives.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) brings the
    rows to echelon form in Python ints: every entry is a minor of the
    input, so each division by the previous pivot is exact.  The pivot
    columns are the RREF's.  The basis vector of free column fc is 1 at fc
    and 0 at the other free columns; back-substitution over Fraction on the
    r echelon rows fills in its pivot entries, which are then the RREF's
    -R[:, fc].
    """
    m = [list(r) for r in rows]
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(r + 1, len(m)):
            fac = m[i][c]
            m[i] = [(p * a - fac * b) // prev for a, b in zip(m[i], m[r])]
        prev = p
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc = pivots[r]
            v[pc] = Fraction(-sum(m[r][j] * v[j] for j in range(pc + 1, ncols)), m[r][pc])
        basis.append(v)
    return basis


def _vanishing_family():
    """Exact coefficient vectors of 64-maps vanishing on the mirror lines."""
    basis = _exact_basis_64()
    # one row per (component, power of s) of the restriction, one column per basis map
    cols = [np.concatenate([restrict_line(comp) for comp in bmap]) for bmap in basis]
    rows = [row for row in zip(*cols) if any(row)]
    null = _integer_nullspace(rows, len(basis))
    if len(null) != 3:
        raise VanishingFailure(f"expected a 3-dimensional vanishing family, got {len(null)}")
    return basis, null


def _combo_map(basis, vec):
    return [HPoly(64, np.dot(np.array(vec, dtype=object), np.stack([b[i].coeffs for b in basis])))
            for i in range(3)]


# 6A for the barred conic A y1 y2 + y3^2 = 0, A = -(1 + w)/6, and for the
# unbarred one, its conjugate: pairs (a, b) = a + b w in Z[w], w^2 = -15
A6_BARRED, A6_UNBARRED = (-1, -1), (-1, 1)


def _zw_mul(x, y):
    """Product of x = x0 + x1 w and y = y0 + y1 w in Z[w], w^2 = -15, as a pair
    (parts may be numpy arrays, multiplied elementwise)."""
    return x[0] * y[0] - 15 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _zw_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _zw_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _zw_eval(forms, pt):
    """Values of integer forms at a point of Z[w]^3 given as three pairs."""
    d, pws = max(f.degree for f in forms), []
    for x in pt:
        pw = [(1, 0)]
        for _ in range(d):
            pw.append(_zw_mul(pw[-1], x))
        pws.append(np.array(pw, dtype=object).T)
    vals = []
    for f in forms:
        nz = np.flatnonzero(f.coeffs)
        e = exps(f.degree)[nz].T
        mono = _zw_mul(_zw_mul(pws[0][:, e[0]], pws[1][:, e[1]]), pws[2][:, e[2]])
        vals.append(tuple(f.coeffs[nz] @ part for part in mono))
    return vals


def _conic_condition_rows(g_comps, f_x, phi_x, a6, svals):
    """Linear conditions in (u, v) for g + (u F^3 + v F Phi) id to fix the conic
    A y1 y2 + y3^2 = 0, given a6 = 6A in Z[w], as rows of Z[w] pairs.

    The conditions are evaluated at the parameter points [s^2, -A, A s]
    scaled by 6, [6 s^2, -a6, a6 s], which are integral.  Each row is
    homogeneous of degree 38 in the point and linear in A, so with a6 in
    place of A every row is 6^39 times the unscaled one, and (u, v) is the
    same.
    """
    forms = [*g_comps, f_x.pow(3), f_x * phi_x]
    rows = []
    for s in svals:
        pt = ((6 * s * s, 0), (-a6[0], -a6[1]), (a6[0] * s, a6[1] * s))
        g0, g1, g2, f3, fphi = _zw_eval(forms, pt)
        # 6^39 times A g0 g1 + g2^2 and 6^21 times A (g0 y2 + g1 y1) + 2 g2 y3
        cg = _zw_add(_zw_mul(a6, _zw_mul(g0, g1)), _zw_mul((6, 0), _zw_mul(g2, g2)))
        lin = _zw_add(_zw_mul(a6, _zw_add(_zw_mul(g0, pt[1]), _zw_mul(g1, pt[0]))),
                      _zw_mul((12, 0), _zw_mul(g2, pt[2])))
        rows.append((_zw_mul(f3, lin), _zw_mul(fphi, lin), _zw_mul((-1, 0), cg)))
    return rows


def _solve2(rows):
    """Exact solution (u, v) of rows a u + b v = c over Z[w], or None if there is none.

    Cramer's rule on the first independent pair of rows gives u = du / det
    and v = dv / det; every row is checked by cross-multiplying,
    a du + b dv = c det, and u, v are returned as pairs of Fractions after
    one division by the norm det conj(det), a rational integer.  None when
    no pair is independent or a row fails.  The per-conic conditions have
    rank one per conic system (the degree-12 invariant restricts to the
    square of the degree-6 one on a conic), so an independent pair is
    searched for rather than assumed.
    """
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        det = _zw_sub(_zw_mul(a1, b2), _zw_mul(a2, b1))
        if det != (0, 0):
            du = _zw_sub(_zw_mul(c1, b2), _zw_mul(c2, b1))
            dv = _zw_sub(_zw_mul(a1, c2), _zw_mul(a2, c1))
            if any(_zw_add(_zw_mul(a, du), _zw_mul(b, dv)) != _zw_mul(c, det) for a, b, c in rows):
                return None
            norm = det[0] ** 2 + 15 * det[1] ** 2
            return tuple(tuple(Fraction(p, norm) for p in _zw_mul(d, (det[0], -det[1])))
                         for d in (du, dv))
    return None


def _nontrivial_member():
    """A degree-19 map of the vanishing family outside the span of the trivial
    maps F^3 id and F Phi id, returned with those two maps' components."""
    f_x, phi_x, _, x45 = exact_chain()[:4]
    basis, null = _vanishing_family()
    gs = []
    for vec in null:
        den = lcm(*[w.denominator for w in vec])
        f64 = _combo_map(basis, [int(w * den) for w in vec])
        gs.append([divide_exact(c, x45) for c in f64])
    t1 = identity_times(f_x.pow(3)).components
    t2 = identity_times(f_x * phi_x).components
    gstar = next((g for g in gs if not _in_trivial_span(g, t1, t2)), None)
    if gstar is None:
        raise VanishingFailure("vanishing family is entirely trivial")
    return gstar, t1, t2


def build_h19_exact():
    """Integer tables of the canonical degree-19 conic-preserving map.

    Returns (h19_components, f19_components) as lists of three integer
    HPolys, where f19 = h19 - 1620 F^3 id.
    """
    f_x, phi_x = exact_chain()[:2]
    gstar, t1, t2 = _nontrivial_member()
    # conic preservation over Z[w], for one barred and one unbarred conic
    rows = [row for a6 in (A6_BARRED, A6_UNBARRED)
            for row in _conic_condition_rows(gstar, f_x, phi_x, a6, (1, 2, 3))]
    sol = _solve2(rows)
    if sol is None:
        raise VanishingFailure("conic-preservation conditions are inconsistent or rank deficient")
    (u, u_w), (v, v_w) = sol
    if u_w or v_w:
        raise VanishingFailure("canonical map has non-real coefficients")
    # den h = den (gstar + (u F^3 + v F Phi) id), with rational u, v and
    # integer den u, den v
    den = lcm(u.denominator, v.denominator)
    q = np.array([g.coeffs * den + a.coeffs * int(u * den) + b.coeffs * int(v * den)
                  for g, a, b in zip(gstar, t1, t2)])
    # scale: anchor the overall factor on the published pure-y3 coefficient
    # of the third component
    anchor = q[2, monomial_index(19, (0, 0, 19))]
    if anchor == 0:
        raise VanishingFailure("no y3^19 anchor in constructed map")
    q = q * -1023516
    if any((q % anchor).flat):
        raise VanishingFailure("published anchor does not give integer scaling")
    h19 = [HPoly(19, row // anchor) for row in q]
    f19 = [h19[i] - t1[i].scale(1620) for i in range(3)]
    return h19, f19


@functools.cache
def h19_exact():
    return build_h19_exact()


class EquivariantRegistry:
    """Dense complex versions of the named equivariants in bub22 coordinates."""

    def __init__(self):
        from .invariants import build_invariants

        self.inv = build_invariants("bub22")
        self.psi16 = EquivariantMap([c.astype(complex) for c in exact_chain()[4].components])
        h, f19 = h19_exact()
        self.h19 = EquivariantMap([c.astype(complex) for c in h])
        self.f19 = EquivariantMap([c.astype(complex) for c in f19])
        self.k25 = build_k25(self.inv.F, self.h19, self.inv.X)

    def g19(self, a, b):
        """The two-parameter family h19 + F (a B12 + b U12) id."""
        s = (self.inv.F * (self.inv.B12.scale(a) + self.inv.U12.scale(b)))
        return self.h19 + identity_times(s)


@functools.cache
def registry():
    return EquivariantRegistry()


# --- the degree-25 companion map ----------------------------------------------


class K25Map:
    """The degree-25 equivariant from the doubled conjugate gradient of F.

    In the unitary (octahedral) frame it is gradbar(F_oct) after
    grad(F_oct).  With x = M y and F_oct(x) = F(M^-1 x) for the integer
    bub22 form F, whose gradient has real coefficients, the bub22 map
    k(y) = M^-1 gradbar(F_oct)(grad F_oct(M y)) reads

        k(y) = s G grad F(conj(G) grad F(y)),    G = M^-1 M^-H,

    evaluated pointwise in the ring build_k25 takes from F: complex128, or
    mpmath numbers at the ambient precision in the selector fit.  s makes
    |[z, h19(z), k(z)]| = -1458 X(z).
    """

    degree = 25

    def __init__(self, grad_f, g):
        self.grad_f = grad_f
        self.g = g
        self.g_bar = np.conj(g)
        self.scale = 1

    def __call__(self, z):
        z = np.asarray(z)
        if z.dtype != object:
            z = z.astype(complex)
        w = self.g_bar @ np.array([c.eval(z) for c in self.grad_f])
        return self.scale * (self.g @ np.array([c.eval(w) for c in self.grad_f]))


def build_k25(f, h19, x45):
    """k25 from bub22's F, h19 and X, in F's ring: mpmath at the ambient
    precision when F has object coefficients, binary64 otherwise.

    The scale is calibrated once, at a fixed point, against -1458 X.
    """
    exact = f.coeffs.dtype == object
    minv = bub_frame(mp=exact).from_octahedral
    k = K25Map(f.grad(), minv @ np.conj(minv).T)
    scalar = mpmath_constants()[2] if exact else complex
    z = np.array([scalar(0.32, 0.11), scalar(-0.74, 0.41), scalar(0.52, -0.23)], dtype=scalar)
    k.scale = -1458 * x45.eval(z) / det3(np.stack([z, h19(z), k(z)], axis=1))
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
    and the conic-swap symmetry.  Every check evaluates h19 once per point
    stack (eval_many) and compares stacks with fs_distances.  Report
    items, never raises.
    """
    from .projective import fs_distances, random_unit_points

    rng = np.random.default_rng(seed)
    inv = reg.inv
    h = reg.h19
    items = []

    def add(name, value, passed):
        items.append({"identity": name, "max_rel_residual": float(value), "pass": bool(passed)})

    def unit_images(pts):
        img = h.eval_many(pts)
        return img / np.linalg.norm(img, axis=1)[:, None]

    worst = 0.0
    for c in inv.conics_barred + inv.conics_unbarred:
        img = unit_images(conic_points(c, n_conic, rng))
        worst = max(worst, float(np.max(np.abs(c.eval_many(img)))) / c.supnorm())
    add("h19 preserves the 12 conics", worst, worst < 1e-6)

    pts = np.concatenate([catalog.all_points(), random_unit_points(rng, 1000)])
    smallest = float(np.min(np.linalg.norm(h.eval_many(pts), axis=1)))
    add("h19 nonvanishing (holomorphic)", smallest, smallest > 1e-6)

    # exact Jacobian factorization was established in integers; spot-check it
    jdet = h.jacobian_det()
    fg = inv.F * inv.G48
    sample = random_unit_points(rng, 20)
    j, f_g = eval_forms([jdet, fg], sample).T
    ratios = j / f_g
    dev = float(np.max(np.abs(ratios - 1.0)))
    add("|J_h19| = F G48", dev, dev < 1e-6)

    p72 = catalog.orbit72
    img = unit_images(p72)
    others = fs_distances(p72[:, None], p72[None]) > 1e-6
    partner = np.where(others, fs_distances(img[:, None], p72[None]), np.inf)
    worst = float(np.max(np.min(partner, axis=1)))
    add("72-points map into the orbit (two-cycles)", worst, worst < 1e-7)

    worst = float(np.max(fs_distances(h.eval_many(img), p72)))
    add("72-point pairs are period-2", worst, worst < 1e-7)

    fixed = np.concatenate([catalog.orbit36, catalog.orbit45, catalog.orbit60, catalog.orbit60bar])
    worst = float(np.max(fs_distances(h.eval_many(fixed), fixed)))
    add("36/45/60-points fixed", worst, worst < 1e-7)

    jac = eval_forms([c.diff(v) for c in h.components for v in range(3)], p72[:12])
    s = np.linalg.svd(jac.reshape(-1, 3, 3), compute_uv=False)
    ranks = s[:, 1] / s[:, 0]
    add("Jacobian rank one at 72-points", float(np.max(ranks)), np.max(ranks) < 1e-6)

    # restriction to the mirror line y1 = y2 has the shape [f, f, g]
    line = np.array([[1.0, 1.0, t] for t in np.linspace(0.2, 1.9, 7)], dtype=complex)
    img = h.eval_many(line)
    worst = float(np.max(np.abs(img[:, 0] - img[:, 1]) / np.max(np.abs(img), axis=1)))
    add("mirror-line restriction [f, f, g]", worst, worst < 1e-10)

    pts = random_unit_points(rng, 20)
    worst = float(np.max(fs_distances(h.eval_many(np.conj(pts)), np.conj(h.eval_many(pts)))))
    add("conic-swap (conjugation) symmetry", worst, worst < 1e-8)
    return items


def _in_trivial_span(g, t1, t2):
    """Exact check whether the integer map g is a rational combination of t1, t2."""
    rows = [tuple((v, 0) for v in r)
            for i in range(3) for r in zip(t1[i].coeffs, t2[i].coeffs, g[i].coeffs) if any(r)]
    return _solve2(rows) is not None
