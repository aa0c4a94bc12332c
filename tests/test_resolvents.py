from fractions import Fraction

import numpy as np
import pytest

from valentiner.equivariants import h19_exact
from valentiner.errors import DegenerateParams, NotOnSexticCurve, OnSexticCurve
from valentiner.invariants import exact_chain
from valentiner.projective import fs_distance, normalize_point, random_unit_points
from valentiner.resolvents import (F64_COMBINATION, curve_point, eval_monic, f6_general, f6_special,
                                   frame_determinant_checks, fy_from_quotient,
                                   fv_from_quotient, instantiate_family,
                                   monic_from_roots, oracle_roots_general,
                                   oracle_roots_special, quotient_v, quotient_y,
                                   resolvent_ry, resolvent_tv, sigma_frame,
                                   tau_det_value, tau_frame)


def _moderate_z(rng, inv):
    while True:
        z = random_unit_points(rng, 1)[0]
        try:
            y1, y2 = quotient_y(inv, z)
        except OnSexticCurve:
            continue
        if 0.3 < abs(y1) < 2.4 and 0.3 < abs(y2) < 2.4:
            return z, y1, y2


def test_quotient_anchor_values(inv):
    y1, y2 = quotient_y(inv, np.array([0, 0, 1.0]))
    assert abs(y1 - 1) < 1e-12 and abs(y2 - 1) < 1e-12


def test_quotient_errors(inv, rng):
    with pytest.raises(OnSexticCurve):
        quotient_y(inv, np.array([1.0, 0, 0]))  # a 72-point lies on {F=0}
    z = random_unit_points(rng, 1)[0]
    with pytest.raises(NotOnSexticCurve):
        quotient_v(inv, z)


def test_v_is_one_at_180_points(inv):
    # intersect the mirror line y1 = y2 with the sextic curve; the points
    # with nonvanishing degree-30 invariant are 180-points
    found = 0
    ts = np.linspace(0.2, 2.6, 7)
    coef = np.polyfit(ts, [inv.F.eval(np.array([1.0, 1.0, t])) for t in ts], 6)
    for r in np.roots(coef):
        z = np.array([1.0, 1.0, r])
        for _ in range(60):
            z = np.array([1.0, 1.0, z[2] - inv.F.eval(z) / inv.F.diff(2).eval(z)])
        z = z / np.linalg.norm(z)
        if abs(inv.F.eval(z)) < 1e-10 and abs(inv.Psi.eval(z)) > 1e-6:
            assert abs(quotient_v(inv, z) - 1) < 1e-9
            found += 1
    assert found >= 2


def test_v_is_zero_at_72_points_on_curve(inv):
    # Phi vanishes on the 72-orbit, so V does too
    p = np.array([1.0, 0, 0])
    assert abs(inv.Phi.eval(p)) < 1e-12
    assert abs(inv.F.eval(p)) < 1e-12


def test_resolvent_oracle_general(inv, rng):
    worst = 0.0
    for _ in range(50):
        z, y1, y2 = _moderate_z(rng, inv)
        got = monic_from_roots(oracle_roots_general(inv, z))
        ref = resolvent_ry(y1, y2)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-14))))
    assert worst < 1e-8


def test_vieta_sum(inv, rng):
    z, y1, y2 = _moderate_z(rng, inv)
    roots = oracle_roots_general(inv, z)
    assert abs(np.sum(roots) + resolvent_ry(y1, y2)[0]) < 1e-12


def test_resolvent_oracle_special(reg, inv, rng):
    worst = 0.0
    for _ in range(25):
        z = curve_point(rng, inv)
        got = monic_from_roots(oracle_roots_special(inv, z))
        ref = resolvent_tv(quotient_v(inv, z))
        nz = np.abs(ref) > 0
        worst = max(worst, float(np.max(np.abs((got - ref)[nz] / ref[nz]))))
        worst = max(worst, float(np.max(np.abs(got[~nz]))) / float(np.max(np.abs(ref))))
    assert worst < 1e-8


def test_tv_structure():
    ref = resolvent_tv(0.5 + 0.25j)
    assert ref[0] == 0 and ref[2] == 0  # no s^5, s^3 terms
    i15 = 1j * np.sqrt(15.0)
    v = 0.5 + 0.25j
    assert abs(ref[5] - (45 - 11 * i15) * v ** 3 / (2 ** 13 * 3 ** 11 * 5 ** 8)) < 1e-18


def test_ry_u5_coefficient():
    i15 = 1j * np.sqrt(15.0)
    for y in ((0.3, 0.4), (1.5 + 0.2j, -0.7)):
        assert abs(resolvent_ry(*y)[0] - (-5 + i15) / 90) < 1e-15


def test_frame_determinants(reg, inv, rng):
    items = frame_determinant_checks(seed=11, n=20)
    for item in items:
        assert item["pass"], item


def test_fy_table_vs_quotient(reg, inv, rng):
    wpts = random_unit_points(rng, 5)
    worst = 0.0
    for _ in range(8):
        z, y1, y2 = _moderate_z(rng, inv)
        tv = f6_general(y1, y2).eval_many(wpts)
        qv = fy_from_quotient(z, wpts, inv, reg)
        worst = max(worst, float(np.max(np.abs(tv - qv) / np.abs(qv))))
    assert worst < 1e-7


def test_fv_table_vs_quotient(reg, inv, rng):
    wpts = random_unit_points(rng, 4)
    worst = 0.0
    for _ in range(6):
        z = curve_point(rng, inv)
        tv = f6_special(quotient_v(inv, z)).eval_many(wpts)
        qv = fv_from_quotient(z, wpts, inv, reg)
        worst = max(worst, float(np.max(np.abs(tv - qv) / np.abs(qv))))
    assert worst < 1e-7


def _assert_frame_conjugate(fam, frame, reg, rng, n=20):
    # the family map is the frame conjugate of the reference degree-19 map
    worst = 0.0
    for w in random_unit_points(rng, n):
        y = frame @ fam.to_table_coords(w)
        ref = fam.from_table_coords(np.linalg.solve(frame, reg.h19(y / np.linalg.norm(y))))
        worst = max(worst, fs_distance(fam.h(w), ref))
    assert worst < 1e-8


def test_family_general_conjugacy(reg, inv, rng):
    from valentiner.dynamics import polish_72point

    z, y1, y2 = _moderate_z(rng, inv)
    fam = instantiate_family((y1, y2), "general")
    assert fam.F.degree == 6 and fam.h.degree == 19
    _assert_frame_conjugate(fam, tau_frame(z, inv, reg), reg, rng)
    m = tau_frame(z, inv, reg) @ np.diag(fam.balance.astype(complex))
    q1 = polish_72point(fam, normalize_point(np.linalg.solve(m, np.array([1.0, 0, 0]))))
    q2 = polish_72point(fam, normalize_point(np.linalg.solve(m, np.array([0, 1.0, 0]))))
    c1, c2 = fam.certificate(q1), fam.certificate(q2)
    assert max(*c1, *c2) < 1e-9
    # the frame carries the polished pair onto a reference two-cycle
    y1p = m @ q1
    y2p = m @ q2
    assert fs_distance(reg.h19(y1p / np.linalg.norm(y1p)), y2p) < 1e-7
    assert fs_distance(reg.h19(y2p / np.linalg.norm(y2p)), y1p) < 1e-7
    # the same conjugacy for the special family on the sextic curve
    z = curve_point(rng, inv)
    fam = instantiate_family((quotient_v(inv, z),), "special")
    _assert_frame_conjugate(fam, sigma_frame(z, inv, reg), reg, rng)


def _cycle_points(fam):
    from valentiner.dynamics import certified_cycle

    rng = np.random.default_rng(3)
    for _ in range(8):
        pair, _ = certified_cycle(fam, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        if pair is not None:
            return [np.array(p) for p in pair]
    raise AssertionError("no certified cycle")


@pytest.mark.parametrize("case,params", [
    ("general", (0.9 + 0.1j, 1.1 - 0.3j)), ("general", (0.45 - 0.7j, 1.6 + 0.9j)),
    ("special", (0.45 + 0.65j,)), ("special", (1.8 - 0.9j,))])
def test_psi_table_value_matches_raw_table_jets(case, params):
    # the balanced jets times the covariance factor against the chain on the
    # raw table form's own derivative tables
    from valentiner.resolvents import _invariant_chain, _jet_tables

    fam = instantiate_family(params, case)
    raw = _jet_tables(f6_general(*params) if case == "general" else f6_special(*params))
    for p in _cycle_points(fam):
        wt = fam.to_table_coords(p)
        wt = wt / np.linalg.norm(wt)
        want = complex(_invariant_chain(raw, wt.astype(np.clongdouble))[4])
        assert abs(fam.psi_table_value(wt) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("case,params", [("general", (0.9 + 0.1j, 1.1 - 0.3j)),
                                         ("special", (0.45 + 0.65j,))])
def test_certificate_matches_expanded_forms(case, params, rng):
    from valentiner.hpoly import hessian_det

    fam = instantiate_family(params, case)
    phi = hessian_det(fam.F).scale(-1 / 20250.0)
    for w in random_unit_points(rng, 50):
        cf, cphi = fam.certificate(w)
        assert abs(cf - abs(fam.F.eval(w)) / fam.F.supnorm()) < 1e-12
        assert abs(cphi - abs(phi.eval(w)) / phi.supnorm()) < 1e-12


def test_family_special_weight_value():
    v = 0.6 + 0.2j
    fam = instantiate_family((v,), "special")
    # identity-part coefficient is 1620 weight^2 with weight = -(8/3) V^2 (V-1)
    # before the internal rescalings; check the invariant combination
    w_expected = -(8.0 / 3.0) * v ** 2 * (v - 1.0)
    bal = np.prod(fam.balance.astype(complex)) ** 2
    assert abs(fam.weight * fam.table_scale / bal - w_expected) < 1e-9 * abs(w_expected)


def test_f64_combination_is_exact():
    """F64_COMBINATION, its floats read back as fractions, is X45 f19 over the
    integers: 810 sum coef F^a Phi^b Psi^c (cross map) = 810 X45 f19."""
    f, phi, psi, x45, psi16, phi34, f40 = exact_chain()
    cross = {"psi": psi16, "phi": phi34, "f": f40}
    acc = [None] * 3
    for coef, a, b, c, _, block in F64_COMBINATION:
        frac = Fraction(coef).limit_denominator()
        assert float(frac) == coef and (810 * frac).denominator == 1
        inv = (f.pow(a) * phi.pow(b) * psi.pow(c)).scale(int(810 * frac))
        for i, comp in enumerate(cross[block].components):
            term = inv * comp
            acc[i] = term if acc[i] is None else acc[i] + term
    for got, f19 in zip(acc, h19_exact()[1]):
        want = (x45 * f19).scale(810)
        assert got.degree == want.degree == 64
        assert list(got.coeffs) == list(want.coeffs)


def test_component_cross_matches_numpy(rng):
    # the same products and differences as np.cross, whose vectorized complex
    # multiply rounds differently: agreement to a few ulps of |a| |b|
    from valentiner.resolvents import _cross

    eps = np.finfo(float).eps
    for _ in range(200):
        a, b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        err = np.max(np.abs(_cross(a, b) - np.cross(a, b)))
        assert err <= 4 * eps * np.linalg.norm(a) * np.linalg.norm(b)


def test_degenerate_params():
    with pytest.raises(DegenerateParams):
        instantiate_family((0.0,), "special")
    with pytest.raises(DegenerateParams):
        instantiate_family((1.0,), "special")
    with pytest.raises(DegenerateParams):
        instantiate_family((0.0, 0.0), "general")  # T_Y(0,0) = 0


def test_tau_det_polynomial_consistency(reg, inv, rng):
    z, y1, y2 = _moderate_z(rng, inv)
    f = inv.F.eval(z)
    m = tau_frame(z, inv, reg)
    assert abs(np.linalg.det(m) ** 2 / (f ** 25 * complex(tau_det_value(y1, y2))) - 1) < 1e-8


# --- the per-family tables against the formulations they replace ----------------


@pytest.mark.parametrize("case,params", [("general", (0.9 + 0.1j, 1.1 - 0.3j)),
                                         ("special", (0.45 + 0.65j,))])
def test_jet_tables_match_repeated_diff(case, params):
    from valentiner.resolvents import _jet_tables

    raw = f6_general(*params) if case == "general" else f6_special(*params)
    # the raw table form in clongdouble and the family's balanced form in complex128
    for form in (raw, instantiate_family(params, case).F):
        polys = [form]
        for table in _jet_tables(form):
            assert table.dtype == form.coeffs.dtype
            assert np.array_equal(table, np.array([p.coeffs for p in polys]))
            polys = [p.diff(a) for p in polys for a in range(3)]


def _f6_by_rows(name, params):
    """The degree-6 form accumulated row by row over a coefficient table."""
    from valentiner.hpoly import HPoly, monomial_index
    from valentiner.resolvents import _load_table

    x = [np.clongdouble(v) for v in params]
    p = HPoly(6, np.zeros(28, dtype=np.clongdouble))
    for key, terms in _load_table(name).items():
        e = [int(v) for v in key.split(",")]
        idx = monomial_index(6, [[int(v) for v in k.split(",")] for k in terms])
        coef = np.array([float(w) for w in terms.values()], dtype=np.clongdouble)
        p.coeffs[idx] += coef * (x[0] ** e[0] if len(e) == 1 else x[0] ** e[0] * x[1] ** e[1])
    return p.coeffs


def test_f6_matches_row_accumulation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        y = rng.uniform(0.3, 2.2, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        got = f6_general(y[0], y[1]).coeffs
        assert got.dtype == np.clongdouble
        assert np.array_equal(got, _f6_by_rows("fy_table.json", y[:2]))
        assert np.array_equal(f6_special(y[2]).coeffs, _f6_by_rows("fv_table.json", y[2:]))


@pytest.mark.parametrize("case,params", [("general", (0.9 + 0.1j, 1.1 - 0.3j)),
                                         ("special", (1.8 - 0.9j,))])
def test_psi_table_value_is_the_chain_entry(case, params, rng):
    # the Psi-only path against the full chain it shortens, at cycle points
    # and at random points
    from valentiner.resolvents import _invariant_chain

    fam = instantiate_family(params, case)
    bal = fam.balance.astype(np.clongdouble)
    cov = np.clongdouble(fam.table_scale) ** 8 / np.prod(bal) ** 6
    for p in [*_cycle_points(fam), *random_unit_points(rng, 10)]:
        wt = fam.to_table_coords(p)
        wt = wt / np.linalg.norm(wt)
        want = complex(_invariant_chain(fam.h.jets, wt.astype(np.clongdouble) / bal)[4] * cov)
        assert fam.psi_table_value(wt) == want
