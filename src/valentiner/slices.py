"""Distinguished dynamical slices: the real plane of the conic-swap
involution, a conic with its rational parametrization, and the degree-15
restriction of the degree-16 map to a mirror line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChartSingularity
from .hpoly import restrict_line
from .projective import fs_distance


# --- the real-plane chart -------------------------------------------------------

# Columns: the one-point orbit [1, 1, 1] as the origin, and the directions
# [4, -1, -1] and [0, -3, 1], which span its polar line y1 + y2 + 3 y3 = 0,
# the line at infinity.  The origin's stabilizer then acts linearly, and
# its five-fold element by exact rotations.  The scales put the ten real
# 72-points on the unit circle, with [1, 0, 0] at (1, 0).
RP2_BASIS = np.array([[1, 4, 0], [1, -1, -np.sqrt(15)], [1, -1, np.sqrt(15) / 3]]) / np.sqrt(3)


@dataclass
class RP2Chart:
    attractors: np.ndarray      # (10, 2) chart positions of the real 72-points
    attractor_points: np.ndarray  # (10, 3) real unit vectors
    pair_label: np.ndarray      # (10,) int: label of the period-2 pair

    def to_point(self, t):
        t = np.asarray(t, dtype=float)
        return RP2_BASIS @ np.array([1.0, t[0], t[1]])

    def to_points(self, ts):
        ts = np.asarray(ts, dtype=float)
        ones = np.ones((len(ts), 1))
        return np.concatenate([ones, ts], axis=1) @ RP2_BASIS.T

    def to_chart(self, p):
        """Chart coordinates of a real projective point (not at infinity)."""
        c = np.linalg.solve(RP2_BASIS, np.asarray(p, dtype=float))
        if abs(c[0]) < 1e-12 * np.max(np.abs(c)):
            raise ChartSingularity("point on the line at infinity")
        return c[1:] / c[0]


def _real_representative(p):
    """Real unit vector for a projective point with a real representative."""
    p = np.asarray(p, dtype=complex)
    k = int(np.argmax(np.abs(p)))
    q = p / p[k]
    if np.max(np.abs(q.imag)) > 1e-8:
        return None
    r = q.real
    return r / np.linalg.norm(r)


def _pair_labels(reg, pts):
    """Period-2 pair labels of 72-points under the canonical map, in order of
    first appearance; every point must pair with another one of pts."""
    labels = -np.ones(len(pts), dtype=int)
    lab = 0
    for i in range(len(pts)):
        if labels[i] >= 0:
            continue
        img = reg.h19(pts[i])
        for j in range(len(pts)):
            if j != i and fs_distance(img, pts[j]) < 1e-6:
                labels[i] = labels[j] = lab
                lab += 1
                break
    if 2 * lab != len(pts):
        raise ChartSingularity(f"expected {len(pts) // 2} period-2 pairs, found {lab}")
    return labels


def rp2_chart(reg, catalog):
    """Chart on the real plane fixed by the conic-system swap, in RP2_BASIS,
    with the ten real 72-points as its attractors."""
    reals = [r for r in map(_real_representative, catalog.orbit72) if r is not None]
    if len(reals) != 10:
        raise ChartSingularity(f"expected 10 real 72-points, found {len(reals)}")
    reals = np.array(reals)
    c = np.linalg.solve(RP2_BASIS, reals.T)
    return RP2Chart((c[1:] / c[0]).T, reals, _pair_labels(reg, reals))


# --- conic slice ----------------------------------------------------------------

@dataclass
class ConicSlice:
    a_coef: complex             # the conic is a y1 y2 + y3^2
    vertices: np.ndarray        # (12, 3) the 72-points on the conic
    pair_label: np.ndarray      # (12,)

    def to_point(self, s):
        return np.array([s * s, -self.a_coef, self.a_coef * s])


def conic_slice(reg, catalog):
    """The first barred conic with its twelve superattracting vertices."""
    inv = reg.inv
    c1 = inv.conics_barred[0]
    from .hpoly import monomial_index

    a = complex(c1.coeffs[monomial_index(2, (1, 1, 0))])
    verts = [p for p in catalog.orbit72 if abs(c1.eval(p)) < 1e-8]
    if len(verts) != 12:
        raise ChartSingularity(f"expected 12 vertices on the conic, found {len(verts)}")
    verts = np.array(verts)
    return ConicSlice(a, verts, _pair_labels(reg, verts))


# --- restricted degree-15 map on a mirror line ------------------------------------

SQRT2 = np.sqrt(2.0)


@dataclass
class Line45Map:
    f1: np.ndarray              # integer coefficients of f1(s), highest power first
    g: np.ndarray               # integer coefficients of g(s), highest power first
    fixed_points: np.ndarray    # u-coordinates of the four 45-points on the line
    degree: int

    def __call__(self, u):
        s = SQRT2 * u
        return np.polyval(self.g, s) / (SQRT2 * np.polyval(self.f1, s))


def restricted_psi16(catalog):
    """The induced self-map of the mirror line y1 = y2 under the degree-16 map.

    n = [1, -1, 0] is both the line's normal and its 45-point.  For x on
    the line, the Jacobian J(x) of the degree-16 map sends the transverse
    direction n to J(x) n, and J(n) brings that back onto the mirror line.
    All of it is integral: psi16 has integer coefficients, J(n) is an
    integer matrix, and on x = [1, 1, s] the image J(n) J(x) n is
    [f1(s), f1(s), g(s)] with integer polynomials f1 and g of degree 15
    and no common root, so nothing cancels.  In the chart
    x(u) = [1, 1, sqrt(2) u] the map is u -> g(s) / (sqrt(2) f1(s)) at
    s = sqrt(2) u.  The coefficients have at most 42 bits, so they are
    exact in binary64.
    """
    from .invariants import exact_chain

    psi = exact_chain()[4].components
    n = (1, -1, 0)
    jn = [[c.diff(v).eval(n) for v in range(3)] for c in psi]
    # J(x) n = (d/dx1 - d/dx2) psi16 on [1, 1, s], one coefficient row per component
    jx_n = [restrict_line(c.diff(0) - c.diff(1)) for c in psi]
    f = [sum(a * row for a, row in zip(r, jx_n)) for r in jn]
    f1, g = (np.trim_zeros(f[k][::-1], "f").astype(float) for k in (0, 2))
    # the four 45-points on the line are the attracting fixed points
    fps = [p[2] / (SQRT2 * p[0]) for p in map(np.asarray, catalog.orbit45)
           if abs(p[0] - p[1]) < 1e-8 * np.linalg.norm(p)]
    return Line45Map(f1, g, np.array(fps, dtype=complex), max(len(f1), len(g)) - 1)
