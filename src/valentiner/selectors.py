"""Root-selector functions: offline coefficient fit and root extraction.

The selector of the general family is the sum, over the root-system
conics, of the products of the five other conic forms pulled through the
parametrized frame, weighted by the conic form at the parameter point:

    Gamma_z(w) = sum_m prod_{n != m} C_n(frame_z(w)) * C_m(z)

At a period-2 cycle point over a 72-point, five of the six summands die
and the survivor isolates one root of the resolvent.  Divided by F(z)^42
(general) or Phi(z) Psi(z)^16 (special), the w-coefficients are
polynomials in the quotient parameters over a fixed monomial basis; they
are fitted once in extended precision from sample parameter points and
cached as JSON.  mpmath is imported inside the fit functions only: root
extraction from a shipped or cached table runs without it.

The final root constant is calibrated during the fit from samples whose
six roots are known exactly, exercising the same code path as runtime
extraction, which makes the formula immune to normalization conventions.

Runtime evaluation is split by how often its inputs change:

- per table, at load: the coefficients in clongdouble and in magnitude,
  and the exponent index arrays of the w-monomials and the basis;
- per family: SelectorTable.contract, the table contracted with the
  parameter monomials into Gamma's w-coefficients; solve_resolvent
  computes it once and passes it to select_root for both cycle points of
  every restart;
- per point: gamma_value gathers the w-monomials from three power rows and
  takes one dot product with the family's vector, and Psi of the table
  form comes from FamilySystem.psi_table_value.
"""

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FitResidualTooLarge, ValentinerError
from .hpoly import EquivariantMap, exps, inv3

GENERAL_Y_MONOMIALS = [(b, c) for c in range(9) for b in range(22) if 12 * b + 30 * c <= 252]
SPECIAL_V_POWERS = list(range(9))

# printed anchor fragments for the reference normalization
ANCHOR_GENERAL_LEAD = {"monomial": (10, 0, 0), "y": (0, 0)}       # (3 + sqrt15 i) w1^10
ANCHOR_GENERAL_TRAIL = {"monomial": (0, 0, 10), "y": (1, 8)}      # 663552 (3 + 5 sqrt15 i) w3^10
ANCHOR_SPECIAL_LEAD = {"monomial": (0, 10, 0), "v": 0}            # 1944 w2^10
ANCHOR_SPECIAL_TRAIL = {"monomial": (10, 0, 0), "v": 8}           # w1^10 V^8

# the fit's working digits and the seed of its sample points: the shipped
# tables were fitted with these
FIT_DPS = 70
FIT_SEED = 1234


@dataclass
class SelectorTable:
    case: str
    w_monomials: list              # exponent triples, degree 10
    basis: list                    # (b, c) pairs or V powers
    coefficients: np.ndarray       # (n_w, n_basis) complex
    sel_const: complex             # calibrated root constant
    fit_residual: float
    beta: complex                  # ratio of fitted lead anchor to its printed value

    def __post_init__(self):
        # per table: exponent index arrays, and the coefficients in
        # clongdouble and in magnitude
        self._w_exps = np.array(self.w_monomials).T
        self._basis_exps = np.array(self.basis).reshape(len(self.basis), -1).T
        self._basis_top = self._basis_exps.max(axis=1)
        self._coeffs_ld = self.coefficients.astype(np.clongdouble)
        self._coeffs_abs = np.abs(self.coefficients)

    def contract(self, params):
        """Gamma's w-monomial coefficients at one parameter point (clongdouble).

        The per-family half of the table evaluation: a solve contracts once
        and hands the vector to gamma_value for every point it evaluates.
        """
        pw = [np.power(np.clongdouble(p), np.arange(n + 1))
              for p, n in zip(params, self._basis_top)]
        return self._coeffs_ld @ _monomials(pw, self._basis_exps)

    def gamma_value(self, coeffs, w_table_unit):
        """Gamma at a unit point in table coordinates; coeffs is contract(params)."""
        # extended precision: the coefficient table spans many orders
        # between its head and tail blocks, and the basis monomials run to
        # the 21st power, so binary64 loses several digits here
        w = np.asarray(w_table_unit).astype(np.clongdouble)
        pw = np.power(w[:, None], np.arange(11))
        return complex(_monomials(pw, self._w_exps) @ coeffs)

    def gamma_scale(self, params, w_table_unit):
        """Largest term magnitude in the table evaluation: values far below
        it sit at the cache's storage noise floor."""
        w = np.abs(np.asarray(w_table_unit, dtype=complex))
        pw = [np.power(w[v], np.arange(11)) for v in range(3)]
        # scalar pow(), which the binary64 np.power does not always match
        pb = [np.array([abs(p) ** k for k in range(n + 1)])
              for p, n in zip(params, self._basis_top)]
        wvals = _monomials(pw, self._w_exps)
        bvals = _monomials(pb, self._basis_exps)
        return float(np.max(wvals[:, None] * self._coeffs_abs * bvals[None, :]))

    def anchor_report(self):
        """Fitted anchor coefficients after beta-normalization vs printed."""
        widx = {e: i for i, e in enumerate(self.w_monomials)}
        s15 = np.sqrt(15.0)
        if self.case == "general":
            lead = self.coefficients[widx[(10, 0, 0)], self.basis.index((0, 0))] / self.beta
            trail = self.coefficients[widx[(0, 0, 10)], self.basis.index((1, 8))] / self.beta
            return {
                "lead": {"fitted": lead, "printed": 3 + 1j * s15},
                "trail": {"fitted": trail, "printed": 663552 * (3 + 5j * s15)},
            }
        lead = self.coefficients[widx[(0, 10, 0)], self.basis.index(0)] / self.beta
        trail = self.coefficients[widx[(10, 0, 0)], self.basis.index(8)] / self.beta
        return {
            "lead": {"fitted": lead, "printed": 1944 + 0j},
            "trail": {"fitted": trail, "printed": 1 + 0j},
        }

    def to_json_dict(self):
        return {
            "schema": "valentiner/1",
            "case": self.case,
            "w_monomials": [list(e) for e in self.w_monomials],
            "basis": [list(b) if isinstance(b, tuple) else b for b in self.basis],
            "coefficients": [[[c.real, c.imag] for c in row] for row in self.coefficients],
            "sel_const": [self.sel_const.real, self.sel_const.imag],
            "fit_residual": self.fit_residual,
            "beta": [self.beta.real, self.beta.imag],
        }

    @classmethod
    def from_json_dict(cls, d):
        # one float64 (n_w, n_basis, 2) array viewed as complex keeps every
        # part's bits, signed zeros included
        rows = d["coefficients"]
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), dtype=np.float64)
        co = flat.reshape(len(rows), -1, 2).view(np.complex128)[..., 0]
        basis = [tuple(b) if isinstance(b, list) else b for b in d["basis"]]
        return cls(d["case"], [tuple(e) for e in d["w_monomials"]], basis, co,
                   complex(*d["sel_const"]), d["fit_residual"], complex(*d["beta"]))


def _monomials(pw, e):
    """prod_v pw[v][e[v]]: the monomials with exponent columns e from
    per-variable power tables, multiplied left to right."""
    out = pw[0][e[0]]
    for v in range(1, len(e)):
        out = out * pw[v][e[v]]
    return out


# --- runtime root extraction ------------------------------------------------------


def selector_raw_value(table, fam, p_internal, coeffs):
    """(T_Y Gamma)^3 / Psi_T (general) or V^5 (V-1)^3 Gamma^3 / Psi_T.

    coeffs is table.contract(fam.params), which a solve computes once.
    """
    wt = fam.to_table_coords(p_internal)
    wt = wt / np.linalg.norm(wt)
    g = table.gamma_value(coeffs, wt)
    psi_t = fam.psi_table_value(wt)
    if table.case == "general":
        return (fam.t_y * g) ** 3 / psi_t
    (v,) = fam.params
    return v ** 5 * (v - 1) ** 3 * g ** 3 / psi_t


def select_root(table, fam, p_internal, coeffs):
    """Root of the family's resolvent from one (polished) cycle point."""
    return table.sel_const * selector_raw_value(table, fam, p_internal, coeffs)


# --- high-precision fit machinery -------------------------------------------------


def _mp_setup():
    """Fit ingredients at mpmath's ambient precision, which the fit sets."""
    from .equivariants import build_k25, h19_exact
    from .frames import bub_frame
    from .group import conic_forms_octahedral, transport_conics
    from .invariants import exact_chain

    barred_o, unbarred_o = conic_forms_octahedral(mp=True)
    tb, tu = transport_conics(barred_o, unbarred_o, bub_frame(mp=True), normalize_bub=True)
    f, phi, psi, x45 = exact_chain()[:4]
    h19 = EquivariantMap(h19_exact()[0])
    return {"barred": tb, "unbarred": tu, "F": f, "gradF": f.grad(), "Phi": phi, "Psi": psi,
            "h19": h19, "k25": build_k25(f, h19, x45)}


def _onto_sextic_mp(setup, z):
    """Newton steps onto {F = 0} at mp, each the minimal-norm correction.

    Binary64 curve samples sit on the sextic only to ~1e-16, while the
    special selector's V-polynomial form holds only on the curve; six
    quadratically convergent steps carry 1e-16 past 70 digits.
    """
    import mpmath

    for _ in range(6):
        g = np.array([gk.eval(z) for gk in setup["gradF"]], dtype=object)
        gbar = np.array([mpmath.conj(c) for c in g], dtype=object)
        z = z - setup["F"].eval(z) * gbar / (g @ gbar)
    return z


def _w_change_mp(case):
    from fractions import Fraction

    import mpmath

    from .resolvents import W_CHANGE_V_EXACT, W_SUBST_Y

    rows = inv3(W_SUBST_Y.astype(object) * Fraction(1)) if case == "general" else W_CHANGE_V_EXACT
    return np.array([[mpmath.mpc(mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator)
                      for r in row] for row in rows], dtype=object)


def _sample_frame_mp(setup, z, case):
    """(frame matrix at mp, quotient params at mp) for a sample point."""
    import mpmath

    F = setup["F"].eval(z)
    Phi = setup["Phi"].eval(z)
    Psi = setup["Psi"].eval(z)
    hv = setup["h19"](z)
    kv = setup["k25"](z)
    zv = np.array(list(z), dtype=object)
    if case == "general":
        m0 = np.stack([F ** 4 * zv, F * hv, kv], axis=1)
        params = (Phi / F ** 2, Psi / (4 * F ** 5))
        norm = F ** 42
    else:
        m0 = np.stack([72 * Phi ** 4 * zv, Psi * hv, 24 * Phi ** 2 * kv], axis=1)
        params = ((mpmath.mpf(8) / 3) * Phi ** 5 / Psi ** 2,)
        norm = Phi * Psi ** 16
    return m0 @ _w_change_mp(case), params, norm


def _gamma_coeffs_at_z(setup, z, case):
    """w-monomial coefficient vector of Gamma_z / norm at one sample."""
    m, params, norm = _sample_frame_mp(setup, z, case)
    conics = setup["unbarred"] if case == "general" else setup["barred"]
    quads = [c.compose_linear(m) for c in conics]
    acc = None
    for mi in range(6):
        term = conics[mi].eval(z)
        for n in range(6):
            if n != mi:
                term = quads[n] * term
        acc = term if acc is None else acc + term
    return acc.coeffs / norm, params, m


def _sample_points(case, n, seed):
    from .equivariants import registry
    from .resolvents import curve_point, quotient_v, quotient_y

    inv = registry().inv
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        if case == "general":
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = v / np.linalg.norm(v)
            try:
                y1, y2 = quotient_y(inv, z)
            except (ValentinerError, np.linalg.LinAlgError):
                continue
            if 0.25 < abs(y1) < 2.5 and 0.25 < abs(y2) < 2.5:
                out.append(z)
        else:
            try:
                z = curve_point(rng, inv)
                v = quotient_v(inv, z)
            except (ValentinerError, np.linalg.LinAlgError):
                continue
            if 0.25 < abs(v) < 4.0 and abs(v - 1) > 0.15:
                out.append(z)
    return out


def fit_selectors(case="general", progress=None):
    """Fit the selector coefficient table at FIT_DPS digits (one-time batch)."""
    import mpmath

    basis = GENERAL_Y_MONOMIALS if case == "general" else SPECIAL_V_POWERS
    nb = len(basis)
    zs = _sample_points(case, 2 * nb + 40 if case == "general" else 42, FIT_SEED)
    with mpmath.workdps(FIT_DPS):
        setup = _mp_setup()
        rows, targets, params_list = [], [], []
        for i, z in enumerate(zs):
            zmp = np.array([mpmath.mpc(c) for c in z], dtype=object)
            if case == "special":
                zmp = _onto_sextic_mp(setup, zmp)
            vec, params, _ = _gamma_coeffs_at_z(setup, zmp, case)
            targets.append(vec)
            params_list.append(params)
            if case == "general":
                y1, y2 = params
                rows.append([y1 ** b * y2 ** c for (b, c) in basis])
            else:
                (v,) = params
                rows.append([v ** k for k in basis])
            if progress and (i + 1) % 25 == 0:
                progress(f"samples {i + 1}/{len(zs)}")
        a = mpmath.matrix(len(zs), nb)
        for i, r in enumerate(rows):
            for j, vv in enumerate(r):
                a[i, j] = vv
        if progress:
            progress("QR factorization")
        # QR on the rectangular system: the monomial basis on the reachable
        # parameter set is spectacularly ill conditioned, and normal
        # equations would square that
        q, rmat = mpmath.mp.qr(a)
        qh = q.H
        nw = len(targets[0])
        coeffs = np.empty((nw, nb), dtype=object)
        resid = 0.0
        for k in range(nw):
            b = mpmath.matrix([targets[i][k] for i in range(len(zs))])
            rhs_full = qh * b
            rhs = mpmath.matrix([rhs_full[i] for i in range(nb)])
            sol = mpmath.mp.U_solve(rmat[:nb, :nb], rhs)
            pred = a * mpmath.matrix(sol)
            num = max(abs(pred[i] - b[i]) for i in range(len(zs)))
            den = max(max(abs(b[i]) for i in range(len(zs))), mpmath.mpf("1e-300"))
            resid = max(resid, float(num / den))
            for j in range(nb):
                coeffs[k, j] = sol[j]
    # a residual above half of the fit's digits means some ingredient leaked
    # in at binary64
    if resid > 10.0 ** (-FIT_DPS / 2):
        raise FitResidualTooLarge(f"selector fit residual {resid:.3e} at dps {FIT_DPS}")
    if progress:
        progress(f"fit residual {resid:.2e}; calibrating root constant")
    return _finalize_table(case, basis, coeffs, resid, zs)


def _finalize_table(case, basis, coeffs, resid, zs):
    import mpmath

    e10 = [tuple(int(v) for v in row) for row in exps(10)]
    widx = {e: i for i, e in enumerate(e10)}
    if case == "general":
        lead = coeffs[widx[ANCHOR_GENERAL_LEAD["monomial"]], basis.index(ANCHOR_GENERAL_LEAD["y"])]
        printed = mpmath.mpc(3) + mpmath.sqrt(mpmath.mpf(-15))
    else:
        lead = coeffs[widx[ANCHOR_SPECIAL_LEAD["monomial"]], basis.index(ANCHOR_SPECIAL_LEAD["v"])]
        printed = mpmath.mpc(1944)
    beta = complex(lead / printed)
    co = np.array([[complex(coeffs[i, j]) for j in range(coeffs.shape[1])]
                   for i in range(coeffs.shape[0])])
    table = SelectorTable(case, e10, basis, co, 1.0 + 0j, float(resid), beta)
    table.sel_const = _calibrate_root_constant(table, zs[:10])
    return table


def _calibrate_root_constant(table, zs):
    """Exact roots at known samples divided by the raw selector value.

    The cycle point is pushed back through the frame to identify which of
    the six roots it selects (the conic of the root system vanishing at
    its image); samples where the Newton polish slides to a badly scaled
    zero of the pair are discarded by majority clustering.
    """
    from .dynamics import polish_72point
    from .equivariants import registry
    from .projective import normalize_point
    from .resolvents import (instantiate_family, oracle_roots_general,
                             oracle_roots_special, quotient_v, quotient_y,
                             sigma_frame, tau_frame)

    reg = registry()
    inv = reg.inv
    conics = inv.conics_unbarred if table.case == "general" else inv.conics_barred
    consts = []
    for z in zs:
        if table.case == "general":
            params = quotient_y(inv, z)
            frame = tau_frame(z, inv, reg)
            roots = oracle_roots_general(inv, z)
        else:
            params = (quotient_v(inv, z),)
            frame = sigma_frame(z, inv, reg)
            roots = oracle_roots_special(inv, z)
        try:
            fam = instantiate_family(params, table.case)
            wt = np.linalg.solve(frame, np.array([1.0, 0, 0]))
            p_int = normalize_point(fam.from_table_coords(wt))
            p_int = polish_72point(fam, p_int)
        except (ValentinerError, np.linalg.LinAlgError):
            continue
        y = frame @ fam.to_table_coords(p_int)
        y = y / np.linalg.norm(y)
        b = int(np.argmin([abs(c.eval(y)) for c in conics]))
        raw = selector_raw_value(table, fam, p_int, table.contract(params))
        consts.append(roots[b] / raw)
    if len(consts) < 4:
        raise FitResidualTooLarge("too few usable calibration samples")
    consts = np.array(consts)
    # majority cluster around the median magnitude/phase
    med = np.median(consts.real) + 1j * np.median(consts.imag)
    close = np.abs(consts - med) < 1e-4 * abs(med)
    if np.sum(close) < max(3, len(consts) // 2):
        raise FitResidualTooLarge(
            f"root-constant calibration did not cluster: {consts}")
    cluster = consts[close]
    spread = float(np.max(np.abs(cluster / cluster[0] - 1)))
    if spread > 1e-4:
        raise FitResidualTooLarge(f"root-constant calibration drift {spread:.3e}")
    # the median, not the mean: a sample whose cycle point sits where the
    # selector cancels heavily can stay inside the cluster while off by
    # ~1e-4, which would bias a mean of the agreeing majority
    return complex(np.median(cluster.real) + 1j * np.median(cluster.imag))


# --- cache ------------------------------------------------------------------------


def default_cache_dir():
    env = os.environ.get("VALENTINER_CACHE")
    if env:
        return Path(env)
    return Path(".valentiner_cache")


def load_or_fit_selectors(case="general", cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    path = cache_dir / f"selector_{case}.json"
    if path.exists():
        with open(path) as f:
            return SelectorTable.from_json_dict(json.load(f))
    from importlib import resources

    try:
        with resources.files("valentiner.data").joinpath(f"selector_{case}.json").open() as f:
            return SelectorTable.from_json_dict(json.load(f))
    except FileNotFoundError:
        pass
    table = fit_selectors(case)
    cache_dir.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(table.to_json_dict(), f)
    return table
