"""Distinguished dynamical slices: the real plane of the conic-swap
involution, a conic with its rational parametrization, and the degree-15
restriction of the degree-16 map to a mirror line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChartSingularity
from .projective import fs_distance


# --- the real-plane chart -------------------------------------------------------

@dataclass
class RP2Chart:
    basis: np.ndarray           # 3x3 real: [origin | u1 | u2], line {ell=0} at infinity
    attractors: np.ndarray      # (10, 2) chart positions of the real 72-points
    attractor_points: np.ndarray  # (10, 3) real unit vectors
    pair_label: np.ndarray      # (10,) int: label of the period-2 pair

    def to_point(self, t):
        t = np.asarray(t, dtype=float)
        return self.basis @ np.array([1.0, t[0], t[1]])

    def to_points(self, ts):
        ts = np.asarray(ts, dtype=float)
        ones = np.ones((len(ts), 1))
        return np.concatenate([ones, ts], axis=1) @ self.basis.T

    def to_chart(self, p):
        """Chart coordinates of a real projective point (not at infinity)."""
        c = np.linalg.solve(self.basis, np.asarray(p, dtype=float))
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
    """Chart on the real plane fixed by the conic-system swap.

    The one-point orbit [1,1,1] sits at the origin, its polar line at
    infinity, the ten real 72-points on the unit circle, and the first of
    them on the positive horizontal axis.  The chart is adapted to the
    five-fold symmetry, which then acts by exact rotations.
    """
    from .group import generators_octahedral
    from .frames import bub_frame

    o = np.ones(3) / np.sqrt(3.0)
    reals = []
    for p in catalog.orbit72:
        r = _real_representative(p)
        if r is not None:
            reals.append(r)
    if len(reals) != 10:
        raise ChartSingularity(f"expected 10 real 72-points, found {len(reals)}")
    # line at infinity: the polar line of the origin point, i.e. the line
    # through the two non-real five-fold points of its triangle.  The chart
    # action of the origin's stabilizer is honestly linear only with this
    # choice.
    eta = (3 + np.sqrt(15) * 1j) / 4
    p1 = np.array([3, 2 * eta ** 2, -eta])
    p2 = np.conj(p1)
    ell = np.cross(p1, p2)
    ell = (ell / 1j).real if np.max(np.abs((ell / 1j).imag)) < 1e-9 * np.max(np.abs(ell)) else ell.real
    ell = ell / np.linalg.norm(ell)
    basis = []
    for e in np.eye(3):
        v = e - (ell @ e) * ell
        for b in basis:
            v = v - (b @ v) * b
        n = np.linalg.norm(v)
        if n > 0.3:
            basis.append(v / n)
        if len(basis) == 2:
            break
    frame = np.stack(basis, axis=1)
    b3 = np.concatenate([o[:, None], frame], axis=1)
    # adapt to the order-5 element Q P Q^-1 (it stabilizes the origin point
    # and the line at infinity, so its chart action is exactly linear)
    gens = generators_octahedral()
    fr = bub_frame()
    minv = np.asarray(fr.from_octahedral, dtype=complex)
    m = np.asarray(fr.to_octahedral, dtype=complex)
    q = np.asarray(gens["Q"], dtype=complex)
    p5 = np.asarray(gens["P"], dtype=complex)
    pp = (minv @ (q @ p5 @ np.linalg.inv(q)) @ m).real
    cc = np.linalg.solve(b3, pp @ b3)
    mm = cc[1:, 1:] / cc[0, 0]
    # conjugate mm to an exact rotation: the realified eigenvector gives the
    # adapted directions
    ev, evec = np.linalg.eig(mm.astype(complex))
    v = evec[:, 0]
    sadapt = np.stack([v.real, v.imag], axis=1)
    b3 = np.concatenate([o[:, None], frame @ sadapt], axis=1)

    def chart_of(r):
        c = np.linalg.solve(b3, r)
        return c[1:] / c[0]

    pts = np.array([chart_of(r) for r in reals])
    radius = np.mean(np.linalg.norm(pts, axis=1))
    b3[:, 1:] *= radius
    pts = pts / radius
    # rotation freedom: put the chart image of [1,0,0] on the positive axis
    target = None
    for i, r in enumerate(reals):
        if fs_distance(r, np.array([1.0, 0, 0])) < 1e-8:
            target = pts[i]
    if target is None:
        target = pts[0]
    ang = np.arctan2(target[1], target[0])
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    b3[:, 1:] = b3[:, 1:] @ rot
    pts = pts @ rot
    return RP2Chart(b3, pts, np.array(reals), _pair_labels(reg, reals))


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

@dataclass
class Line45Map:
    base: np.ndarray            # point a on the line
    direction: np.ndarray       # direction b: x(u) = a + u b
    num: np.ndarray             # polynomial coefficients of the direction part
    den: np.ndarray             # polynomial coefficients of the base part
    fixed_points: np.ndarray    # u-coordinates of the four 45-points
    degree: int

    def __call__(self, u):
        return np.polyval(self.num, u) / np.polyval(self.den, u)


def restricted_psi16(reg, catalog):
    """The induced self-map of a mirror line under the degree-16 map.

    For x on the line, the Jacobian of the degree-16 map sends a
    transverse direction to a line through the companion fixed point;
    applying the Jacobian at that point gives a point of the mirror line
    again.  In an affine chart the induced map is the ratio of two
    degree-16 polynomials with a common linear factor: degree 15.
    """
    psi = reg.psi16
    # the mirror line y1 = y2
    want = np.array([1.0, -1.0, 0]) / np.sqrt(2)
    line_index = int(np.argmin([fs_distance(ell, want) for ell in catalog.line45]))
    ell = catalog.line45[line_index]
    p_z = catalog.orbit45[line_index]
    # a real basis of the line
    b1, b2 = _line_basis(ell)
    jz = psi.jacobian_at(p_z)
    n0 = np.asarray(ell, dtype=complex)  # transverse direction: the line's normal
    us = 1.4 * np.exp(2j * np.pi * np.arange(40) / 40) + 0.2

    def apply(u):
        x = b1 + u * b2
        v = psi.jacobian_at(x) @ n0
        f = jz @ v
        coef, *_ = np.linalg.lstsq(np.stack([b1, b2], axis=1), f, rcond=None)
        return coef

    vals = np.array([apply(u) for u in us])
    vander = np.vander(us, 17, increasing=False)
    den_c, *_ = np.linalg.lstsq(vander, vals[:, 0], rcond=None)
    num_c, *_ = np.linalg.lstsq(vander, vals[:, 1], rcond=None)
    num_c, den_c, deg = _reduce_common_roots(num_c, den_c)
    # the four 45-points on the line are the fixed points
    fps = []
    for p in catalog.orbit45:
        if abs(np.asarray(ell) @ np.asarray(p)) < 1e-8:
            coef, *_ = np.linalg.lstsq(np.stack([b1, b2], axis=1), np.asarray(p, dtype=complex), rcond=None)
            if abs(coef[0]) < 1e-10:
                continue  # the chart's point at infinity
            fps.append(complex(coef[1] / coef[0]))
    return Line45Map(b1, b2, num_c, den_c, np.array(fps), deg)


def _line_basis(ell):
    ell = np.asarray(ell, dtype=complex)
    basis = []
    for e in np.eye(3, dtype=complex):
        v = e - (np.conj(ell) @ e) / (np.conj(ell) @ ell) * ell
        for b in basis:
            v = v - (np.conj(b) @ v) * b
        n = np.linalg.norm(v)
        if n > 0.3:
            basis.append(v / n)
        if len(basis) == 2:
            break
    return basis[0], basis[1]


def _trim_leading(c):
    scale = np.max(np.abs(c))
    k = 0
    while k < len(c) - 1 and abs(c[k]) < 1e-9 * scale:
        k += 1
    return c[k:]


def _reduce_common_roots(num, den):
    """Drop insignificant leading coefficients and matched root pairs."""
    num = _trim_leading(num)
    den = _trim_leading(den)
    rn = np.roots(num)
    rd = np.roots(den)
    used = np.zeros(len(rd), dtype=bool)
    keep_n = []
    for r in rn:
        hit = None
        for j, rr in enumerate(rd):
            if not used[j] and abs(r - rr) < 1e-5 * max(1.0, abs(r)):
                hit = j
                break
        if hit is None:
            keep_n.append(r)
        else:
            used[hit] = True
    keep_d = [rr for j, rr in enumerate(rd) if not used[j]]
    scale_n = num[0]
    scale_d = den[0]
    pn = scale_n * np.poly(keep_n) if keep_n else np.array([scale_n])
    pd = scale_d * np.poly(keep_d) if keep_d else np.array([scale_d])
    return pn, pd, max(len(pn), len(pd)) - 1
