import numpy as np
import pytest

from valentiner.projective import normalize_point, random_unit_points
from valentiner.resolvents import (curve_point, instantiate_family,
                                   oracle_roots_general, oracle_roots_special,
                                   quotient_v, quotient_y, sigma_frame, tau_frame)
from valentiner.selectors import selector_raw_value, select_root


def _gamma_direct(inv, conics, frame, z, w_unit, norm):
    y = frame @ w_unit
    acc = 0j
    for m in range(6):
        prod = conics[m].eval(np.asarray(z))
        for n in range(6):
            if n != m:
                prod *= conics[n].eval(y)
        acc += prod
    return acc / norm


@pytest.mark.parametrize("case", ["general", "special"])
def test_calibration_reproduces_shipped_root_constant(case, selector_general, selector_special):
    from valentiner.selectors import _calibrate_root_constant, _sample_points

    table = selector_general if case == "general" else selector_special
    const = _calibrate_root_constant(table, _sample_points(case, 10, 1234))
    assert abs(const - table.sel_const) <= 1e-12 * abs(table.sel_const)


def test_general_table_reproduces_direct_evaluation(selector_general, reg, inv, rng):
    worst = 0.0
    checked = 0
    while checked < 12:
        z = random_unit_points(rng, 1)[0]
        y1, y2 = quotient_y(inv, z)
        if not (0.3 < abs(y1) < 2.4 and 0.3 < abs(y2) < 2.4):
            continue
        frame = tau_frame(z, inv, reg)
        for w in random_unit_points(rng, 4):
            direct = _gamma_direct(inv, inv.conics_unbarred, frame, z, w,
                                   inv.F.eval(z) ** 42)
            fitted = selector_general.gamma_value(selector_general.contract((y1, y2)), w)
            worst = max(worst, abs(fitted - direct) / abs(direct))
        checked += 1
    assert worst < 1e-4


def test_special_table_reproduces_direct_evaluation(selector_special, reg, inv, rng):
    worst = 0.0
    for _ in range(8):
        z = curve_point(rng, inv)
        v = quotient_v(inv, z)
        if not (0.25 < abs(v) < 4.0 and abs(v - 1) > 0.15):
            continue
        frame = sigma_frame(z, inv, reg)
        norm = inv.Phi.eval(z) * inv.Psi.eval(z) ** 16
        for w in random_unit_points(rng, 3):
            direct = _gamma_direct(inv, inv.conics_barred, frame, z, w, norm)
            fitted = selector_special.gamma_value(selector_special.contract((v,)), w)
            worst = max(worst, abs(fitted - direct) / abs(direct))
    assert worst < 1e-4


def test_anchor_reports(selector_general, selector_special):
    rep = selector_general.anchor_report()
    lead = rep["lead"]
    assert abs(lead["fitted"] - lead["printed"]) < 1e-9 * abs(lead["printed"])
    # the published trailing fragment sits in a different frame convention
    # from the published head (and from the degree-6 table): the fitted
    # value differs by exactly 6^12 in magnitude
    trail = rep["trail"]
    ratio = trail["fitted"] / trail["printed"]
    assert abs(abs(ratio) - 6 ** 12) < 1e-3 * 6 ** 12
    rep = selector_special.anchor_report()
    assert abs(rep["lead"]["fitted"] - 1944) < 1e-9 * 1944
    assert abs(rep["trail"]["fitted"] - 1) < 1e-6


def test_five_of_six_summands_vanish(reg, inv, rng):
    from valentiner.dynamics import polish_72point

    z = curve_point(rng, inv)
    v = quotient_v(inv, z)
    fam = instantiate_family((v,), "special")
    frame = sigma_frame(z, inv, reg)
    wt = np.linalg.solve(frame, np.array([1.0, 0, 0]))
    p = polish_72point(fam, normalize_point(fam.from_table_coords(wt)))
    wt_unit = fam.to_table_coords(p)
    wt_unit = wt_unit / np.linalg.norm(wt_unit)
    y = frame @ wt_unit
    vals = []
    for m in range(6):
        prod = inv.conics_barred[m].eval(np.asarray(z))
        for n in range(6):
            if n != m:
                prod *= inv.conics_barred[n].eval(y)
        vals.append(abs(prod))
    vals = sorted(vals)
    assert vals[4] < 1e-7 * vals[5]


def test_selector_invariance_along_orbit(selector_general, reg, inv, group_bub, rng):
    # the fitted table only sees the quotient parameters, which are constant
    # along an orbit; the direct sum must agree with it for group-translated z
    z = None
    while z is None:
        cand = random_unit_points(rng, 1)[0]
        y1, y2 = quotient_y(inv, cand)
        if 0.4 < abs(y1) < 2.0 and 0.4 < abs(y2) < 2.0:
            z = cand
    w = random_unit_points(rng, 1)[0]
    vals = []
    for t in group_bub.projective[rng.choice(360, 10, replace=False)]:
        tz = normalize_point(np.asarray(t, dtype=complex) @ z)
        frame = tau_frame(tz, inv, reg)
        direct = _gamma_direct(inv, inv.conics_unbarred, frame, tz, w,
                               inv.F.eval(tz) ** 42)
        vals.append(direct)
    vals = np.array(vals)
    assert np.max(np.abs(vals / vals[0] - 1)) < 1e-6


def test_mu_constant_on_orbit(inv, catalog):
    # the selection constant: degree-30 invariant over the cube of the
    # product of five conic forms, at 72-points
    vals = []
    for p in catalog.orbit72[:12]:
        p = np.asarray(p)
        resid = [abs(c.eval(p)) for c in inv.conics_barred]
        a = int(np.argmin(resid))
        prod = 1.0 + 0j
        for n in range(6):
            if n != a:
                prod *= inv.conics_barred[n].eval(p)
        vals.append(inv.Psi.eval(p) / prod ** 3)
    vals = np.array(vals)
    assert np.max(np.abs(vals / vals[0] - 1)) < 1e-8


def test_roots_from_both_cycle_points_agree(selector_special, reg, inv, rng):
    from valentiner.dynamics import IterationConfig, solve_resolvent

    v = 0.7 + 0.3j
    r = solve_resolvent((v,), "special", IterationConfig(seed=5), selector_special)
    fam = instantiate_family((v,), "special")
    coeffs = selector_special.contract((v,))
    u1 = select_root(selector_special, fam, np.array(r.cycle[0]), coeffs)
    u2 = select_root(selector_special, fam, np.array(r.cycle[1]), coeffs)
    # agreement is limited by the selector's evaluation conditioning at the
    # (skewed) cycle points, a few orders above the cycle-point accuracy
    assert abs(u1 - u2) < 1e-4 * max(abs(u1), 1e-12)
    from valentiner.resolvents import eval_monic, resolvent_tv

    coeffs = resolvent_tv(v)
    scale = float(np.max(np.abs(coeffs)))
    assert abs(eval_monic(coeffs, u1)) / scale < 1e-6
    assert abs(eval_monic(coeffs, u2)) / scale < 1e-6
    # scale-free: each selection lies next to a root of the solved sextic
    roots = np.roots(np.concatenate([[1.0], coeffs]))
    assert np.min(np.abs(u1 - roots)) / abs(u1) < 1e-4
    assert np.min(np.abs(u2 - roots)) / abs(u2) < 1e-4


@pytest.mark.parametrize("case", ["general", "special"])
def test_fit_ingredients_match_shipped_table(case, selector_general, selector_special):
    """The dps-30 w-coefficients of Gamma at a fit sample agree with the
    shipped table's prediction at that sample's parameters."""
    import mpmath

    from valentiner.selectors import (_gamma_coeffs_at_z, _mp_setup, _onto_sextic_mp,
                                      _sample_points)

    table = selector_general if case == "general" else selector_special
    (z,) = _sample_points(case, 1, 1234)
    with mpmath.workdps(30):
        setup = _mp_setup()
        zmp = np.array([mpmath.mpc(c) for c in z], dtype=object)
        if case == "special":
            zmp = _onto_sextic_mp(setup, zmp)
        vec, params, _ = _gamma_coeffs_at_z(setup, zmp, case)
    vec = np.array([complex(v) for v in vec])
    p = [complex(v) for v in params]
    if case == "general":
        basis = np.array([p[0] ** b * p[1] ** c for b, c in table.basis])
    else:
        basis = np.array([p[0] ** k for k in table.basis])
    assert np.max(np.abs(table.coefficients @ basis - vec)) < 1e-9 * np.max(np.abs(vec))


# --- the hoisted table evaluation against the per-call formulas -----------------


def _gamma_per_call(table, params, w):
    w = np.asarray(w).astype(np.clongdouble)
    pw = [np.power(w[v], np.arange(11)) for v in range(3)]
    wvals = np.array([pw[0][e[0]] * pw[1][e[1]] * pw[2][e[2]] for e in table.w_monomials])
    if table.case == "general":
        y1, y2 = (np.clongdouble(p) for p in params)
        bvals = np.array([y1 ** b * y2 ** c for b, c in table.basis])
    else:
        v = np.clongdouble(params[0])
        bvals = np.array([v ** k for k in table.basis])
    return complex(wvals @ (table.coefficients.astype(np.clongdouble) @ bvals))


def _gamma_scale_per_call(table, params, w):
    w = np.abs(np.asarray(w, dtype=complex))
    pw = [np.power(w[v], np.arange(11)) for v in range(3)]
    wvals = np.array([pw[0][e[0]] * pw[1][e[1]] * pw[2][e[2]] for e in table.w_monomials])
    if table.case == "general":
        y1, y2 = (abs(p) for p in params)
        bvals = np.array([y1 ** b * y2 ** c for b, c in table.basis])
    else:
        v = abs(params[0])
        bvals = np.array([v ** k for k in table.basis])
    return float(np.max(wvals[:, None] * np.abs(table.coefficients) * bvals[None, :]))


@pytest.mark.parametrize("case", ["general", "special"])
def test_hoisted_gamma_matches_per_call_formula(case, selector_general, selector_special, rng):
    table = selector_general if case == "general" else selector_special
    for _ in range(20):
        params = tuple(rng.uniform(0.25, 2.5, 2 if case == "general" else 1)
                       * np.exp(2j * np.pi * rng.uniform(size=2 if case == "general" else 1)))
        coeffs = table.contract(params)
        for w in random_unit_points(rng, 3):
            want = _gamma_per_call(table, params, w)
            assert table.gamma_value(coeffs, w) == want
            assert table.gamma_scale(params, w) == _gamma_scale_per_call(table, params, w)


def test_table_load_keeps_every_coefficient_bit(selector_general):
    from valentiner.selectors import SelectorTable

    d = selector_general.to_json_dict()
    rows = d["coefficients"]
    rows[0][0], rows[0][1], rows[1][0], rows[1][1] = [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [3, -2]
    want = np.array([[complex(re, im) for re, im in row] for row in rows])
    got = SelectorTable.from_json_dict(d).coefficients
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
