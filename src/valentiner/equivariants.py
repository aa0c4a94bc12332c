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

Every step runs on HPoly with exact coefficients (Python ints, Fraction,
and Q(sqrt(-15)) for the conic conditions).  The result has integer
coefficients; it is compared coefficient-by-coefficient against the
published table, and any disagreements are reported rather than silently
adopted.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from .context import CTX64
from .errors import VanishingFailure
from .frames import bub_frame
from .hpoly import (EquivariantMap, HPoly, det3, divide_exact, eval_forms, exps, identity_times,
                    monomial_index)
from .invariants import exact_chain


class Q15:
    """The field Q(sqrt(-15)): numbers a + b*w with w^2 = -15, exact rationals a, b.

    Conic coefficients and the barred/unbarred split live here; the basic
    invariants themselves are plain integers in the special real frame.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return Q15(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q15(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-(o if isinstance(o, Q15) else Q15(o)))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return Q15(self.a * o.a - 15 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        n = o.a * o.a + 15 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("Q15 division by zero")
        return self * Q15(o.a / n, -o.b / n)

    def conj(self):
        return Q15(self.a, -self.b)

    def __eq__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Q15({self.a}, {self.b})"


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


def _restrict_line(p):
    """Coefficients of p(t, t, s), indexed by the power of s."""
    out = np.zeros(p.degree + 1, dtype=object)
    np.add.at(out, exps(p.degree)[:, 2], p.coeffs)
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
    # one row per (component, power of s) of the restriction, one column per basis map
    cols = [np.concatenate([_restrict_line(comp) for comp in bmap]) for bmap in basis]
    rows = [[Fraction(v) for v in row] for row in zip(*cols) if any(row)]
    null = _rational_nullspace(rows, len(basis))
    if len(null) != 3:
        raise VanishingFailure(f"expected a 3-dimensional vanishing family, got {len(null)}")
    return basis, null


def _combo_map(basis, vec):
    return [HPoly(64, np.dot(np.array(vec, dtype=object), np.stack([b[i].coeffs for b in basis])))
            for i in range(3)]


def _conic_condition_rows(g_comps, f_x, phi_x, a_coef, svals):
    """Linear conditions in (u, v) for g + (u F^3 + v F Phi) id to fix the conic
    A y1 y2 + y3^2 = 0, evaluated at parameter points [s^2, -A, A s]."""
    f3 = f_x.pow(3)
    fphi = f_x * phi_x
    rows = []
    for s in svals:
        pt = (Q15(s * s), -a_coef, a_coef * Q15(s))
        g = [c.eval(pt) for c in g_comps]
        cg = a_coef * g[0] * g[1] + g[2] * g[2]
        lin = a_coef * (g[0] * pt[1] + g[1] * pt[0]) + 2 * g[2] * pt[2]
        rows.append((f3.eval(pt) * lin, fphi.eval(pt) * lin, -cg))
    return rows


def _solve2(rows):
    """Exact solution (u, v) of rows a u + b v = c, or None if there is none.

    Solves from the first independent pair of rows, then checks every row;
    None when no pair is independent or a row fails.  Runs over any exact
    field (Fraction, Q15).  The per-conic conditions have rank one per conic
    system (the degree-12 invariant restricts to the square of the degree-6
    one on a conic), so an independent pair is searched for rather than
    assumed.
    """
    for i, j in itertools.combinations(range(len(rows)), 2):
        a1, b1, c1 = rows[i]
        a2, b2, c2 = rows[j]
        det = a1 * b2 - a2 * b1
        if det:
            u = (c1 * b2 - c2 * b1) / det
            v = (a1 * c2 - a2 * c1) / det
            return (u, v) if all(a * u + b * v == c for a, b, c in rows) else None
    return None


def build_h19_exact():
    """Integer tables of the canonical degree-19 conic-preserving map.

    Returns (h19_components, f19_components) as lists of three integer
    HPolys, where f19 = h19 - 1620 F^3 id.
    """
    f_x, phi_x, psi_x, x45 = exact_chain()[:4]
    basis, null = _vanishing_family()
    gs = []
    for vec in null:
        den = lcm(*[w.denominator for w in vec])
        f64 = _combo_map(basis, [int(w * den) for w in vec])
        gs.append([divide_exact(c, x45) for c in f64])
    # trivial maps
    t1 = identity_times(f_x.pow(3)).components
    t2 = identity_times(f_x * phi_x).components
    # a member of the family independent of the trivial maps
    gstar = next((g for g in gs if not _in_trivial_span(g, t1, t2)), None)
    if gstar is None:
        raise VanishingFailure("vanishing family is entirely trivial")
    # conic preservation over Q(sqrt(-15)): A = -(1 + w)/6 for the barred conic,
    # conjugate for the unbarred one
    a_b = Q15(Fraction(-1, 6), Fraction(-1, 6))
    rows = _conic_condition_rows(gstar, f_x, phi_x, a_b, (1, 2, 3))
    rows += _conic_condition_rows(gstar, f_x, phi_x, a_b.conj(), (1, 2, 3))
    sol = _solve2(rows)
    if sol is None:
        raise VanishingFailure("conic-preservation conditions are inconsistent or rank deficient")
    u, v = sol
    # h = gstar + (u F^3 + v F Phi) id, coefficients should be rational
    h = [gstar[i] + t1[i].scale(u) + t2[i].scale(v) for i in range(3)]
    if any(c.b for comp in h for c in comp.coeffs):
        raise VanishingFailure("canonical map has non-real coefficients")
    q = np.array([[c.a for c in comp.coeffs] for comp in h], dtype=object)
    # scale: anchor the overall factor on the published pure-y3 coefficient
    # of the third component
    anchor = q[2, monomial_index(19, (0, 0, 19))]
    if anchor == 0:
        raise VanishingFailure("no y3^19 anchor in constructed map")
    q = q * (Fraction(-1023516) / anchor)
    if any(c.denominator != 1 for c in q.flat):
        raise VanishingFailure("published anchor does not give integer scaling")
    h19 = [HPoly(19, np.array([int(c) for c in row], dtype=object)) for row in q]
    f19 = [h19[i] - t1[i].scale(1620) for i in range(3)]
    return h19, f19


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
        self.psi16 = EquivariantMap([c.astype(complex) for c in exact_chain()[4].components])
        h, f19 = h19_exact()
        self.h19 = EquivariantMap([c.astype(complex) for c in h])
        self.f19 = EquivariantMap([c.astype(complex) for c in f19])
        self.k25 = build_k25(self.inv.F, self.h19, self.inv.X)

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


class K25Map:
    """The degree-25 equivariant from the doubled conjugate gradient of F.

    In the unitary (octahedral) frame it is gradbar(F_oct) after
    grad(F_oct).  With x = M y and F_oct(x) = F(M^-1 x) for the integer
    bub22 form F, whose gradient has real coefficients, the bub22 map
    k(y) = M^-1 gradbar(F_oct)(grad F_oct(M y)) reads

        k(y) = s G grad F(conj(G) grad F(y)),    G = M^-1 M^-H,

    evaluated pointwise in the dtype of grad F and G (complex128, or mpmath
    objects for the selector fit); s makes |[z, h19(z), k(z)]| = -1458 X(z).
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


def build_k25(f, h19, x45, ctx=CTX64):
    """k25 in the lane of ctx, from bub22's F, h19 and X in that lane.

    The scale is calibrated once, at a fixed point, against -1458 X.
    """
    minv = bub_frame(ctx).from_octahedral
    k = K25Map(f.grad(), minv @ np.conj(minv).T)
    z = ctx.array([ctx.scalar(0.32, 0.11), ctx.scalar(-0.74, 0.41), ctx.scalar(0.52, -0.23)])
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
    """Exact check whether g is a rational combination of t1, t2."""
    rows = [tuple(Fraction(v) for v in r)
            for i in range(3) for r in zip(t1[i].coeffs, t2[i].coeffs, g[i].coeffs) if any(r)]
    return _solve2(rows) is not None
