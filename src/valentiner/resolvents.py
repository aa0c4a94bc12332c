"""Resolvent machinery: quotient parameters, the two published sextic
families, root oracles, parametrized frames, and per-parameter instantiation
of the conic-preserving dynamics.

Conventions (all in bub22 coordinates):

    Y1 = Phi / F^2,           Y2 = Psi / (4 F^5)        (both 1 at a 36-point)
    V  = (8/3) Phi^5 / Psi^2  on {F = 0}                (1 at a 180-point)

The published footnote value 3/8 for the V-normalization is inverted: V
must be 1 where X vanishes on the curve, and on {F = 0} the degree-45
square identity forces Phi^5/Psi^2 = 3/8 there.

The parametrized frames are

    tau_z(w)   = [F^4 z] w1 + [F h19(z)] w2 + k25(z) w3
    sigma_z(w) = [72 Phi^4 z] w1 + [Psi h19(z)] w2 + [24 Phi^2 k25(z)] w3

composed with the fixed simplifying w-substitutions under which the
cached degree-6 coefficient tables (data/fy_table.json, fv_table.json)
are stated.

What is built how often:

- per table, on first use: each coefficient table as a dense (28, rows)
  clongdouble matrix over its parameter monomials (fy_table, fv_table);
- per family (instantiate_family): the degree-6 form as one product of
  that matrix with the parameter monomials, its balanced form, the
  derivative tables of orders 0..4 (the map's jets), sup|Phi|, T_Y (read
  by the selector) and psi_table_value's covariance factor;
- per point: the jets at the point, one matrix-vector product per order.
  The map step and the polish run the whole invariant chain; the
  certificate reads the order-0 and order-2 jets, and psi_table_value only
  the order-2 and order-3 jets and the terms Psi needs.
"""

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from .equivariants import registry
from .errors import (DegenerateDenominator, DegenerateFrame, DegenerateParams,
                     NotOnSexticCurve, OnSexticCurve)
from .hpoly import HPoly, adj3, det3, diff_coeffs, exps, monomial_index, n_monomials

SQ15 = np.sqrt(15.0)

# Scale on the conic cubes making the six root functions reproduce the
# published sextic coefficients exactly.  The matching system is the
# second ("unbarred") one under this package's labels: the published
# family and its conjugate-coefficient partner name the two systems in
# the opposite order from the conic tables.
U_SCALE = (9 - 1j * SQ15) / 144

ALPHA_FY = 2.0 ** -10 * 3.0 ** -12          # F_Y = F(tau_z(w)) / (alpha F^25)
ETA_FV = 2.0 ** 11 * 3.0 ** 18              # F_V = F(sigma_z(C w)) / (eta Phi^2 Psi^9)

# simplifying w-substitutions under which the cached tables are stated:
# the published arrow notation replaces the original coordinates by linear
# forms, so the table's frame is tau composed with the INVERSE of the
# substitution matrix.  Both are stated exactly, for the selector fit at its
# own precision; the binary64 changes are derived from them.
W_SUBST_Y = np.array([[8, -92, 800], [2, -104, 128], [0, 0, 6]])
W_CHANGE_Y = np.linalg.inv(W_SUBST_Y)
# The special-case frame change was recovered from the degenerate fibers of
# the family (quintuple-line fiber at V = 0, quadruple-line at V = inf) and
# Gauss-Newton refinement; it does not match any reading of the published
# substitution, but the resulting identity-part coefficient of the special
# 19-map comes out at the published 11520 V^4 (V-1)^2, confirming it.
W_CHANGE_V_EXACT = np.array([[Fraction(16, 3), 0, Fraction(-10, 3)], [0, 4, 0], [1, 0, -1]],
                            dtype=object)
W_CHANGE_V = W_CHANGE_V_EXACT.astype(float)

# |tau_z|^2 = 432 F^25 sum TAU_DET_POLY[(a,b)] Y1^a Y2^b  (before the w-change;
# the change multiplies the determinant by det(W_CHANGE_Y) = -3888).
# Derived from the degree-45 square identity rather than transcribed: the
# published display of this polynomial carries a sign typo on its Y1^5 Y2
# term (+1944 where the square identity forces -1944).


def _tau_det_poly():
    from .invariants import X_SQUARED_TABLE

    out = {}
    for (a, b, c), coef in X_SQUARED_TABLE.items():
        q = Fraction(coef) * 4 ** c / 4
        assert q.denominator == 1
        out[(b, c)] = int(q)
    return out


TAU_DET_POLY = _tau_det_poly()
DET_WCHANGE_Y = float(np.linalg.det(W_CHANGE_Y).real)  # -1/3888
DET_WCHANGE_V = float(np.linalg.det(W_CHANGE_V).real)   # -8

# |sigma_z|^2 = SIGMA_DET_CONST * Phi^2 Psi^9 V^2 (V - 1) before the w-change
SIGMA_DET_CONST = -(2.0 ** 8) * 3.0 ** 17


def tau_det_value(y1, y2):
    """T_Y: |tau_z|^2 / F(z)^25 in the table's w-coordinates.

    Evaluated in extended precision: the polynomial cancels heavily and
    its value enters the family weights at fourth powers.
    """
    y1 = np.clongdouble(y1)
    y2 = np.clongdouble(y2)
    acc = np.clongdouble(0)
    for (a, b), c in TAU_DET_POLY.items():
        acc += np.clongdouble(c) * y1 ** a * y2 ** b
    return acc * np.clongdouble(432.0) * np.clongdouble(DET_WCHANGE_Y) ** 2


def sigma_det_sq_value(v):
    """|sigma_z|^2 / (Phi^2 Psi^9) in the table's w-coordinates."""
    return SIGMA_DET_CONST * v * v * (v - 1.0) * DET_WCHANGE_V ** 2


# --- quotient parameters --------------------------------------------------------


def quotient_y(inv, z):
    f = inv.F.eval(z)
    scale = np.linalg.norm(np.asarray(z)) ** 6 * inv.F.supnorm()
    if abs(f) < 1e-9 * max(scale, 1e-30):
        raise OnSexticCurve("Y is undefined on {F = 0}")
    return inv.Phi.eval(z) / f ** 2, inv.Psi.eval(z) / (4 * f ** 5)


def quotient_v(inv, z):
    f = inv.F.eval(z)
    scale = np.linalg.norm(np.asarray(z)) ** 6 * inv.F.supnorm()
    if abs(f) > 1e-6 * max(scale, 1e-30):
        raise NotOnSexticCurve(f"|F(z)| = {abs(f):.2e} too large for the special case")
    psi = inv.Psi.eval(z)
    if abs(psi) < 1e-9:
        raise DegenerateDenominator("Psi vanishes (90-point)")
    return (8.0 / 3.0) * inv.Phi.eval(z) ** 5 / psi ** 2


# --- the published resolvents ---------------------------------------------------


def resolvent_ry(y1, y2):
    """Monic coefficients [c5, c4, c3, c2, c1, c0] of R_Y(u)."""
    i15 = 1j * SQ15
    c5 = (-5 + i15) / 90
    c4 = (11 * (1 - i15) - 3 * (3 + i15) * y1) / (2 ** 2 * 3 ** 5 * 5 ** 2)
    c3 = ((100 + 57 * i15) + 9 * (30 + i15) * y1) / (3 ** 9 * 5 ** 4)
    c2 = (-(152 + 17 * i15) + 18 * (-21 + 4 * i15) * y1 + 27 * (-4 + i15) * y1 ** 2) / (2 ** 2 * 3 ** 11 * 5 ** 5)
    c1 = ((425 + 103 * i15) + 6 * (75 + 193 * i15) * y1 + 27 * (-25 + 33 * i15) * y1 ** 2
          - 7776 * i15 * y2) / (2 ** 3 * 3 ** 14 * 5 ** 8)
    c0 = (-(5 + 3 * i15) + 9 * (15 - 7 * i15) * y1 + 81 * (25 - i15) * y1 ** 2
          + 81 * (45 + 11 * i15) * y1 ** 3) / (2 ** 4 * 3 ** 18 * 5 ** 8)
    return np.array([c5, c4, c3, c2, c1, c0])


def resolvent_tv(v):
    """Monic coefficients [c5, c4, c3, c2, c1, c0] of T_V(s).

    The s^4 coefficient is (+(-3 + sqrt15 i) / 21600) V: the product of the
    six root functions forces the sign, which disagrees with the leading
    minus as published (all five other coefficients agree exactly).
    """
    i15 = 1j * SQ15
    c4 = ((-3 + i15) / (2 ** 5 * 3 ** 3 * 5 ** 2)) * v
    c2 = -((4 + i15) / (2 ** 8 * 3 ** 6 * 5 ** 5)) * v ** 2
    c1 = (i15 / (2 ** 6 * 3 ** 7 * 5 ** 8)) * v ** 2
    c0 = ((45 - 11 * i15) / (2 ** 13 * 3 ** 11 * 5 ** 8)) * v ** 3
    return np.array([0j, c4, 0j, c2, c1, c0])


def eval_monic(coeffs, u):
    acc = u ** 6
    for k, c in enumerate(coeffs):
        acc += c * u ** (5 - k)
    return acc


def oracle_roots_general(inv, z):
    """The six icosahedral root functions at z: U_n = sigma_u C_n(z)^3 / F(z)."""
    f = inv.F.eval(z)
    if abs(f) < 1e-12:
        raise DegenerateDenominator("F vanishes at z")
    return np.array([U_SCALE * c.eval(z) ** 3 / f for c in inv.conics_unbarred])


def oracle_roots_special(inv, z):
    """S_n = Phi^2 C_n(z)^3 / Psi on {F = 0}.

    Unlike the general family, these carry no extra unit factor and run
    over the first ("barred") conic system.
    """
    psi = inv.Psi.eval(z)
    if abs(psi) < 1e-12:
        raise DegenerateDenominator("Psi vanishes at z")
    phi2 = inv.Phi.eval(z) ** 2
    return np.array([phi2 * c.eval(z) ** 3 / psi for c in inv.conics_barred])


def monic_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([1.0, -r]))
    return c[1:]


# --- parametrized frames --------------------------------------------------------


def tau_frame(z, inv=None, reg=None, with_change=True):
    """tau_z as a 3x3 matrix (columns F^4 z | F h19(z) | k25(z)), optionally
    composed with the simplifying w-substitution of the cached tables."""
    reg = reg or registry()
    inv = inv or reg.inv
    z = np.asarray(z, dtype=complex)
    f = inv.F.eval(z)
    if abs(f) < 1e-12 or abs(inv.X.eval(z)) < 1e-12:
        raise DegenerateFrame("tau_z is singular on {F X = 0}")
    m = np.stack([f ** 4 * z, f * reg.h19(z), reg.k25(z)], axis=1)
    return m @ W_CHANGE_Y if with_change else m


def sigma_frame(z, inv=None, reg=None, with_change=True):
    reg = reg or registry()
    inv = inv or reg.inv
    z = np.asarray(z, dtype=complex)
    phi = inv.Phi.eval(z)
    psi = inv.Psi.eval(z)
    if abs(phi) < 1e-12 or abs(psi) < 1e-12 or abs(inv.X.eval(z)) < 1e-12:
        raise DegenerateFrame("sigma_z is singular on {Phi Psi X = 0}")
    m = np.stack([72 * phi ** 4 * z, psi * reg.h19(z), 24 * phi ** 2 * reg.k25(z)], axis=1)
    return m @ W_CHANGE_V if with_change else m


# --- cached degree-6 tables -----------------------------------------------------


def _load_table(name):
    with resources.files("valentiner.data").joinpath(name).open() as f:
        return json.load(f)


def _dense_table(raw):
    """(parameter exponents, (28, rows) clongdouble matrix) of a {key: {"i,j,k": w}} table.

    Column r holds the degree-6 coefficients multiplying the r-th parameter
    monomial, so the form at a parameter point is one matrix-vector product.
    """
    keys = np.array([[int(v) for v in key.split(",")] for key in raw]).T
    dense = np.zeros((n_monomials(6), len(raw)), dtype=np.clongdouble)
    for r, terms in enumerate(raw.values()):
        e = [[int(v) for v in k.split(",")] for k in terms]
        dense[monomial_index(6, e), r] = [float(w) for w in terms.values()]
    return keys, dense


@functools.cache
def fy_table():
    return _dense_table(_load_table("fy_table.json"))


@functools.cache
def fv_table():
    return _dense_table(_load_table("fv_table.json"))


def _f6(table, params):
    """sum_r dense[:, r] prod_v params[v]^keys[v, r], in clongdouble."""
    keys, dense = table
    mons = np.prod([np.power(np.clongdouble(p), e) for p, e in zip(params, keys)], axis=0)
    return HPoly(6, dense @ mons)


def f6_general(y1, y2):
    """The degree-6 form of the general family at parameters (Y1, Y2)."""
    return _f6(fy_table(), (y1, y2))


def f6_special(v):
    return _f6(fv_table(), (v,))


# --- per-parameter family -------------------------------------------------------


def _jet_tables(f6):
    """Coefficient rows of every partial derivative of a degree-6 form.

    Entry k is a (3^k, n) array holding the order-k derivatives in
    lexicographic index order, k = 0..4: enough for the family's
    invariant chain up to the gradient of its degree-30 invariant.  Each
    level differentiates every row of the one before along each axis.
    """
    tables = [f6.coeffs[None, :]]
    for d in range(6, 2, -1):
        out = np.stack([diff_coeffs(tables[-1], d, a) for a in range(3)], axis=1)
        tables.append(out.reshape(-1, n_monomials(d - 1)))
    return tables


def _jet(tables, w, k):
    """The order-k derivatives of the form at w, as a (3,) * k array."""
    # np.prod's reduction without its argument handling, which costs more
    # than the product of a few dozen monomials
    mon = np.multiply.reduce(w[None, :] ** exps(6 - k), axis=1)
    return (tables[k] @ mon).reshape((3,) * k)


def _invariant_chain(tables, w):
    """(F, grad F, Phi, grad Phi, Psi, grad Psi) of a degree-6 form at w.

    Everything follows from the form's derivatives of orders 0..4 at the
    point, with no polynomial expansion past degree 6:

        Phi = a det H                 grad Phi by Jacobi's formula
        Psi = -b grad Phi^t adj(H) grad Phi

    with a = -1/20250, b = 1/24300 (the normalizations of the reference
    invariants) and the Hessian of Phi from
    d adj(H)[D] = adj(H + D) - adj(H) - adj(D).
    The expanded degree-30 and degree-45 polynomials of the same chain
    cancel catastrophically in floating point; the pointwise chain is as
    well conditioned as the problem.  Runs in the dtype of w (complex128 or
    clongdouble).
    """
    dt = w.dtype.type
    f, gf, h, t, q = (_jet(tables, w, k) for k in range(5))
    a_phi = dt(-1 / 20250.0)
    adj, gphi, adj_g, psi = _psi_parts(h, t, dt)
    dadj = adj3(h + t) - adj - adj3(t)          # d adj(H) along each d_l H
    phi = a_phi * (h[0] @ adj[:, 0])
    hphi = a_phi * (np.einsum("lij,kij->kl", dadj, t) + np.einsum("ij,klij->kl", adj, q))
    gpsi = -dt(1 / 24300.0) * (2 * (hphi @ adj_g) + np.einsum("i,lij,j->l", gphi, dadj, gphi))
    return f, gf, phi, gphi, psi, gpsi


def _psi_parts(h, t, dt):
    """(adj H, grad Phi, adj(H) grad Phi, Psi) from the order-2 and order-3 jets."""
    adj = adj3(h)
    gphi = dt(-1 / 20250.0) * np.einsum("ij,kij->k", adj, t)
    adj_g = adj @ gphi
    return adj, gphi, adj_g, -dt(1 / 24300.0) * (gphi @ adj_g)


# The canonical degree-64 combination, written in the basis of invariant
# promotions of the three cross maps.  Coefficients are the exact rational
# expansion of (the canonical degree-19 map times the degree-45 form); the
# weight powers follow from the pullback scalings S^a/D^b of each factor.
# Entries: (coefficient, F-power, Phi-power, Psi-power, weight-power, block)
F64_COMBINATION = (
    (1 / 81, 6, 1, 0, 4, "psi"),
    (10 / 81, 4, 2, 0, 3, "psi"),
    (227 / 405, 2, 3, 0, 2, "psi"),
    (26 / 135, 0, 4, 0, 1, "psi"),
    (8129 / 810, 3, 0, 1, 2, "psi"),
    (17 / 270, 1, 1, 1, 1, "psi"),
    (-1618 / 405, 3, 1, 0, 2, "phi"),
    (-1 / 30, 0, 0, 1, 0, "phi"),
    (809 / 405, 4, 0, 0, 2, "f"),
    (1 / 15, 0, 2, 0, 0, "f"),
)


def _cross(a, b):
    """a x b for two 3-vectors, by components (np.cross spends far longer
    on argument handling than on the six products)."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


class FamilyMap:
    """The family's degree-19 map, evaluated pointwise from its degree-6 form.

    h(w) = 1620 weight^2 F^3 w + f64(w) / X(w), where

        f64 = P_psi (grad F x grad Phi) + P_phi (grad F x grad Psi)
              + P_f (grad Phi x grad Psi)

    with the invariant coefficients P of F64_COMBINATION and
    X = -(1/4860) det[grad F, grad Phi, grad Psi].  weight is |frame
    determinant|^2 divided by the family's scale factor (alpha F^25 or
    eta Phi^2 Psi^9); the combination and the identity-part coefficient
    follow from the pullback scalings of the reference construction.
    X vanishes on the 45 mirror lines, where the value is not finite.
    """

    degree = 19

    def __init__(self, f6, weight):
        self.jets = _jet_tables(f6)
        self.weight = complex(weight)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        f, gf, phi, gphi, psi, gpsi = _invariant_chain(self.jets, w)
        cross_f_phi = _cross(gf, gphi)
        cross_f_psi = _cross(gf, gpsi)
        cross_phi_psi = _cross(gphi, gpsi)
        x45 = -(gf @ cross_phi_psi) / 4860.0
        parts = {"psi": 0j, "phi": 0j, "f": 0j}
        for coef, a, b, c, wp, block in F64_COMBINATION:
            parts[block] += coef * f ** a * phi ** b * psi ** c * self.weight ** wp
        f64 = (parts["psi"] * cross_f_phi + parts["phi"] * cross_f_psi
               + parts["f"] * cross_phi_psi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return 1620.0 * self.weight ** 2 * f ** 3 * w + f64 / x45


@dataclass
class FamilySystem:
    case: str                 # "general" | "special"
    params: tuple             # (y1, y2) or (v,)
    F: HPoly                  # the degree-6 form in internal coordinates, sup norm 1
    h: FamilyMap              # its jets are the only tables evaluated at a point
    weight: complex           # |frame|^2 / (scale factor): the pullback weight
    balance: np.ndarray       # diagonal change from internal to table coordinates
    table_scale: float        # sup normalization applied after rebalancing
    phi_sup: float            # sup norm of Phi = -det(H)/20250 of F
    t_y: complex              # T_Y = tau_det_value(*params) (general), None (special)
    psi_cov: np.clongdouble = field(init=False)  # s^8 det(D)^-6 (see psi_table_value)

    def __post_init__(self):
        self.psi_cov = (np.clongdouble(self.table_scale) ** 8
                        / np.prod(self.balance.astype(np.clongdouble)) ** 6)

    def certificate(self, w):
        """(|F(w)|, |Phi(w)|) at unit w, each over its sup norm (that of F is 1)."""
        w = np.asarray(w, dtype=complex) / np.linalg.norm(w)
        return (abs(_jet(self.h.jets, w, 0)),
                abs(det3(_jet(self.h.jets, w, 2))) / (20250.0 * self.phi_sup))

    def to_table_coords(self, w):
        """Map an internal (balanced) point to the cached tables' coordinates."""
        return self.balance.astype(complex) * np.asarray(w, dtype=complex)

    def from_table_coords(self, w):
        return np.asarray(w, dtype=complex) / self.balance.astype(complex)

    def psi_table_value(self, w_table):
        """Degree-30 invariant of the raw table form at a table-coordinate point.

        The internal form is F(x) = f6(D x) / s with D = diag(balance) and
        s = table_scale, and Psi is of degree 8 in the coefficients and
        covariant of weight 6 under x -> D x, so

            Psi_f6(D p) = s^8 det(D)^-6 Psi_F(p).

        Evaluated in extended precision through the Psi part of the map's
        pointwise chain (order-2 and order-3 jets only), which survives the
        very skewed table coordinates at cycle points.
        """
        bal = self.balance.astype(np.clongdouble)
        p = np.asarray(w_table).astype(np.clongdouble) / bal
        jets = self.h.jets
        psi = _psi_parts(_jet(jets, p, 2), _jet(jets, p, 3), np.clongdouble)[3]
        return complex(psi * self.psi_cov)


def instantiate_family(params, case="general"):
    """FamilySystem at the given resolvent parameters.

    general: params = (Y1, Y2); rejects |T_Y| below 1e-12.
    special: params = (V,); rejects V near 0 and 1.
    """
    if case == "general":
        y1, y2 = params
        t_y = tau_det_value(y1, y2)
        if abs(t_y) < 1e-12:
            raise DegenerateParams("T_Y vanishes: singular parameters")
        f6 = f6_general(y1, y2)
        weight = t_y / ALPHA_FY
    elif case == "special":
        (v,) = params
        if abs(v) < 1e-10 or abs(v - 1) < 1e-10:
            raise DegenerateParams("V in {0, 1} is singular")
        f6 = f6_special(v)
        weight = sigma_det_sq_value(v) / ETA_FV
        t_y = None
    else:
        raise ValueError(case)
    # the tables' coordinates are strongly anisotropic (coefficients span
    # thirteen decades).  Rebalance each axis by the sixth root of its
    # pure-power coefficient, then normalize to unit sup norm; both
    # rescalings fold into the weight.
    pure = [abs(f6.coeffs[monomial_index(6, e)]) for e in ((6, 0, 0), (0, 6, 0), (0, 0, 6))]
    if min(pure) == 0:
        raise DegenerateParams("vanishing pure-power coefficient")
    bal = np.array([p ** (-1 / 6.0) for p in pure])
    f6b = HPoly(6, f6.coeffs * np.prod(bal ** exps(6), axis=1))
    weight = weight * (bal[0] * bal[1] * bal[2]) ** 2
    scale = f6b.supnorm()
    if scale == 0:
        raise DegenerateParams("vanishing degree-6 form")
    f6b = HPoly(6, (f6b.coeffs / scale).astype(complex))
    weight = complex(weight / scale)
    h = FamilyMap(f6b, weight)
    # sup|Phi| from the Hessian det of the map's own second-derivative rows
    hess = [[HPoly(4, row) for row in rows] for rows in h.jets[2].reshape(3, 3, -1)]
    return FamilySystem(case, tuple(params), f6b, h, weight, bal, float(scale),
                        det3(hess).supnorm() / 20250.0, None if t_y is None else complex(t_y))


# --- cross-validation helpers (defining quotients vs cached tables) -------------


def fy_from_quotient(z, w_pts, inv=None, reg=None):
    """F(tau_z(w)) / (alpha F^25) at given w points, from the definition."""
    reg = reg or registry()
    inv = inv or reg.inv
    m = tau_frame(z, inv, reg)
    f = inv.F.eval(z)
    vals = np.array([inv.F.eval(m @ w) for w in w_pts])
    return vals / (ALPHA_FY * f ** 25)


def fv_from_quotient(z, w_pts, inv=None, reg=None):
    reg = reg or registry()
    inv = inv or reg.inv
    m = sigma_frame(z, inv, reg)
    phi = inv.Phi.eval(z)
    psi = inv.Psi.eval(z)
    vals = np.array([inv.F.eval(m @ w) for w in w_pts])
    return vals / (ETA_FV * phi ** 2 * psi ** 9)


def frame_determinant_checks(seed=0, n=50):
    """Report items for the parametrized-frame determinant certificates."""
    from .equivariants import registry
    from .projective import random_unit_points

    reg = registry()
    inv = reg.inv
    rng = np.random.default_rng(seed)
    items = []

    def add(name, value, passed):
        items.append({"identity": name, "max_rel_residual": float(value), "pass": bool(passed)})

    worst_tau = worst_ty = 0.0
    count = 0
    while count < n:
        z = random_unit_points(rng, 1)[0]
        try:
            y1, y2 = quotient_y(inv, z)
        except OnSexticCurve:
            continue
        f = inv.F.eval(z)
        x = inv.X.eval(z)
        if abs(x) < 1e-9:
            continue
        m_raw = tau_frame(z, inv, reg, with_change=False)
        worst_tau = max(worst_tau, abs(np.linalg.det(m_raw) / (f ** 5 * x) + 1458) / 1458)
        if 0.25 < abs(y1) < 2.5 and 0.25 < abs(y2) < 2.5:
            m = tau_frame(z, inv, reg)
            t_y = tau_det_value(y1, y2)
            worst_ty = max(worst_ty, abs(np.linalg.det(m) ** 2 / (f ** 25 * complex(t_y)) - 1))
        count += 1
    add("det tau = -1458 F^5 X", worst_tau, worst_tau < 1e-6)
    add("det(tau)^2 = F^25 T_Y (moderate parameters)", worst_ty, worst_ty < 1e-6)

    worst_sig = worst_sq = worst_x2 = 0.0
    for k in range(n):
        z = curve_point(rng, inv)
        v = quotient_v(inv, z)
        phi = inv.Phi.eval(z)
        psi = inv.Psi.eval(z)
        x = inv.X.eval(z)
        m_raw = sigma_frame(z, inv, reg, with_change=False)
        ratio = np.linalg.det(m_raw) / (phi ** 6 * psi * x)
        worst_sig = max(worst_sig, abs(ratio + 2 ** 7 * 3 ** 9) / (2 ** 7 * 3 ** 9))
        sq = np.linalg.det(m_raw) ** 2 / (phi ** 2 * psi ** 9 * v ** 2 * (v - 1))
        worst_sq = max(worst_sq, abs(sq + 2 ** 8 * 3 ** 17) / (2 ** 8 * 3 ** 17))
        lhs = x ** 2
        rhs = -(psi ** 3 / 27) * (v - 1)
        worst_x2 = max(worst_x2, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    add("det sigma = -(2^7 3^9) Phi^6 Psi X (sign fixed by det tau)", worst_sig, worst_sig < 1e-6)
    add("det(sigma)^2 = -(2^8 3^17) Phi^2 Psi^9 V^2 (V-1)", worst_sq, worst_sq < 1e-6)
    add("on-curve X^2 = -(Psi^3/27)(V-1)", worst_x2, worst_x2 < 1e-6)
    return items


def curve_point(rng, inv=None):
    """A random point on {F = 0}, polished along a pencil through the 72-point e1."""
    inv = inv or registry().inv
    grad = inv.F.grad()
    p72 = np.array([1.0, 0, 0])
    for _ in range(64):
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # F restricted to the pencil p + t q is degree 6 in t with root t = 0
        ts = np.linspace(0.3, 1.8, 7)
        vals = np.array([inv.F.eval(p72 + t * q) for t in ts])
        coef = np.polyfit(ts, vals, 6)
        roots = np.roots(coef)
        roots = roots[np.abs(roots) > 1e-3]
        if len(roots) == 0:
            continue
        t = roots[np.argmin(np.abs(roots - 1.0))]
        z = p72 + t * q
        # Newton polish on t, while the step shrinks (at most 60 steps)
        last = np.inf
        for _ in range(60):
            dv = sum(grad[k].eval(z) * q[k] for k in range(3))
            step = inv.F.eval(z) / dv if abs(dv) >= 1e-14 else np.inf
            if abs(step) >= last:
                break
            t, last = t - step, abs(step)
            z = p72 + t * q
        z = z / np.linalg.norm(z)
        if abs(inv.F.eval(z)) < 1e-12 * inv.F.supnorm():
            if abs(inv.Psi.eval(z)) > 1e-6 and abs(inv.Phi.eval(z)) > 1e-6 and abs(inv.X.eval(z)) > 1e-9:
                return z
    raise DegenerateFrame("could not polish a usable curve point")
