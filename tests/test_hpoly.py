import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valentiner.hpoly import (EquivariantMap, HPoly, bordered_hessian_det, divide_exact,
                              eval_forms, exps, grad_cross, hessian_det, jacobian_det,
                              monomial_index, n_monomials)


def _random_poly(rng, degree):
    return HPoly(degree, rng.standard_normal(n_monomials(degree))
                 + 1j * rng.standard_normal(n_monomials(degree)))


def test_eval_homogeneity(rng):
    p = _random_poly(rng, 7)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = 0.7 - 0.3j
    assert abs(p.eval(lam * x) - lam ** 7 * p.eval(x)) < 1e-10 * abs(p.eval(x))


@pytest.mark.parametrize("degree", [0, 6, 19, 45])
def test_eval_many_dtype_contract(rng, degree):
    """eval_many agrees with pointwise eval and keeps the dtype its inputs give."""
    from valentiner.resolvents import f6_general

    def check(p, pts, dtype):
        vals = p.eval_many(pts)
        assert vals.dtype == dtype
        ref = np.array([p.eval(x) for x in pts])
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))

    # 150 points span several of eval_many's blocks at degree 45
    zc = rng.standard_normal((150, 3)) + 1j * rng.standard_normal((150, 3))
    check(_random_poly(rng, degree), zc, np.complex128)
    real = HPoly(degree, rng.standard_normal(n_monomials(degree)))
    check(real, rng.standard_normal((150, 3)), np.float64)
    if degree == 6:
        check(f6_general(0.7 + 0.2j, 1.1 - 0.3j), zc, np.clongdouble)


def _eval_many_fresh_tables(p, pts):
    """eval_many with new power and monomial tables for every block."""
    from valentiner.hpoly import _EVAL_BLOCK

    nz = np.flatnonzero(p.coeffs)
    c, e, d = p.coeffs[nz], exps(p.degree)[nz].T, p.degree
    dtype = np.result_type(pts.dtype, c.dtype, np.float64)
    step = max(1, _EVAL_BLOCK // max(len(nz), 3 * (d + 1)))
    out = []
    for lo in range(0, len(pts), step):
        x = np.asarray(pts[lo:lo + step].T, dtype=dtype, order="C")
        pw = np.empty((3, d + 1, x.shape[1]), dtype=dtype)
        pw[:, 0] = 1
        for k in range(1, d + 1):
            np.multiply(pw[:, k - 1], x, out=pw[:, k])
        out.append(c @ (pw[0, e[0]] * pw[1, e[1]] * pw[2, e[2]]))
    return np.concatenate(out)


@pytest.mark.parametrize("n", [1, 59, 60, 61, 187])
def test_eval_many_reused_tables_are_bitwise_fresh(rng, n):
    """Reusing one set of tables for every block, the last one partial, changes no bit."""
    from valentiner.resolvents import f6_general

    zc = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for p, pts in [(_random_poly(rng, 45), zc), (_random_poly(rng, 19), zc),
                   (HPoly(45, rng.standard_normal(n_monomials(45))), zc.real),
                   (f6_general(0.7 + 0.2j, 1.1 - 0.3j), zc)]:
        got, want = p.eval_many(pts), _eval_many_fresh_tables(p, pts)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_eval_forms_matches_pointwise_eval(rng, inv):
    """One pass over forms of degrees 6, 12, 30 and 45 agrees with each form's
    pointwise eval, in the dtype the points and coefficients promote to."""
    from valentiner.resolvents import f6_general

    # the invariants' supports are sparse; 150 points span several blocks
    zc = rng.standard_normal((150, 3)) + 1j * rng.standard_normal((150, 3))
    real = [HPoly(d, rng.standard_normal(n_monomials(d))) for d in (6, 12, 30, 45)]
    cases = [([inv.F, inv.Phi, inv.Psi, inv.X], zc, np.complex128),
             (real, rng.standard_normal((150, 3)), np.float64),
             ([f6_general(0.7 + 0.2j, 1.1 - 0.3j), inv.Phi, inv.Psi, inv.X], zc, np.clongdouble)]
    for forms, pts, dtype in cases:
        vals = eval_forms(forms, pts)
        assert vals.shape == (len(pts), len(forms)) and vals.dtype == dtype
        for p, col in zip(forms, vals.T):
            ref = np.array([p.eval(x) for x in pts])
            assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_map_eval_many_matches_per_component(rng, reg):
    """EquivariantMap.eval_many agrees with each component's eval_many to 4 eps,
    relative to the sum of the terms' moduli (only the summation blocks differ)."""
    h_real = EquivariantMap([HPoly(c.degree, c.coeffs.real.copy()) for c in reg.h19.components])
    zc = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    for h, pts in [(reg.h19, zc), (h_real, zc.real)]:
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        got = h.eval_many(pts)
        want = np.stack([c.eval_many(pts) for c in h.components], axis=1)
        scale = np.stack([HPoly(c.degree, np.abs(c.coeffs)).eval_many(np.abs(pts))
                          for c in h.components], axis=1)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want) / scale) <= 4 * np.finfo(float).eps


def test_compose_identity_and_roundtrip(rng):
    p = _random_poly(rng, 5)
    eye = np.eye(3)
    assert np.allclose(p.compose_linear(eye).coeffs, p.coeffs)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = p.compose_linear(m).compose_linear(np.linalg.inv(m))
    assert np.max(np.abs(q.coeffs - p.coeffs)) < 1e-10 * p.supnorm()


def test_hessian_of_round_quadric():
    p = HPoly.from_terms(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    h = hessian_det(p)
    assert h.degree == 0
    assert abs(h.coeffs[0] - 8.0) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_euler_identity(deg, seed):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, deg)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = sum(x[i] * p.diff(i).eval(x) for i in range(3))
    assert abs(lhs - deg * p.eval(x)) < 1e-10 * max(1.0, abs(p.eval(x)))


def test_hessian_compose_rule(rng):
    p = _random_poly(rng, 4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = hessian_det(p.compose_linear(m))
    rhs = hessian_det(p).compose_linear(m).scale(np.linalg.det(m) ** 2)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-8 * lhs.supnorm()


def test_jacobian_compose_rule(rng):
    p, q, r = (_random_poly(rng, d) for d in (3, 4, 5))
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = jacobian_det(*(f.compose_linear(m) for f in (p, q, r)))
    rhs = jacobian_det(p, q, r).compose_linear(m).scale(np.linalg.det(m))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-8 * lhs.supnorm()


def test_grad_cross_degrees(inv):
    assert grad_cross(inv.F, inv.Phi).degree == 16
    assert grad_cross(inv.F, inv.Psi).degree == 34
    assert grad_cross(inv.Phi, inv.Psi).degree == 40


def test_grad_cross_orthogonality(rng, inv):
    # the cross map is orthogonal to both gradient factors (so its image
    # point lies on both polar lines); orthogonality to x itself does not
    # hold and is not claimed
    g = grad_cross(inv.F, inv.Phi)
    for _ in range(100):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = np.array([c.eval(x) for c in g.components])
        gf = np.array([inv.F.diff(i).eval(x) for i in range(3)])
        gp = np.array([inv.Phi.diff(i).eval(x) for i in range(3)])
        scale = np.linalg.norm(v)
        assert abs(gf @ v) < 1e-10 * scale * np.linalg.norm(gf)
        assert abs(gp @ v) < 1e-10 * scale * np.linalg.norm(gp)


def test_grad_cross_of_parallel_gradients(rng):
    p = _random_poly(rng, 4)
    g = grad_cross(p, p)
    assert all(c.supnorm() < 1e-12 * p.supnorm() ** 2 for c in g.components)


def test_bordered_hessian_degree(inv):
    bh = bordered_hessian_det(inv.F, inv.Phi)
    assert bh.degree == 30


def test_json_roundtrip(rng):
    p = _random_poly(rng, 3)
    q = HPoly.from_json_dict(p.to_json_dict())
    assert np.allclose(p.coeffs, q.coeffs)
    m = EquivariantMap([_random_poly(rng, 2) for _ in range(3)])
    m2 = EquivariantMap.from_json_dict(m.to_json_dict())
    for a, b in zip(m.components, m2.components):
        assert np.allclose(a.coeffs, b.coeffs)


def test_closed_form_monomial_index():
    for d in range(65):
        rows = [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
        assert exps(d).tolist() == [list(r) for r in rows]
        assert monomial_index(d, np.array(rows)).tolist() == list(range(len(rows)))


def test_mul_dtype_contract(rng):
    """int x int stays exact, clongdouble x complex128 gives clongdouble, and
    the complex128 product equals a dense scatter-add over all coefficient pairs."""
    big = HPoly(3, np.array([3 ** 40 * (t - 4) for t in range(10)], dtype=object))
    sq = big * big
    assert sq.coeffs.dtype == object and all(isinstance(c, int) for c in sq.coeffs)
    assert sq.eval((2, -1, 5)) == big.eval((2, -1, 5)) ** 2

    p = _random_poly(rng, 7)
    p.coeffs[rng.choice(n_monomials(7), 12, replace=False)] = 0
    q = _random_poly(rng, 5)
    assert (p.astype(np.clongdouble) * q).coeffs.dtype == np.clongdouble

    ea, eb = exps(7), exps(5)
    tab = np.array([[monomial_index(12, a + b) for b in eb] for a in ea])
    ref = np.zeros(n_monomials(12), dtype=np.complex128)
    np.add.at(ref, tab.ravel(), np.outer(p.coeffs, q.coeffs).ravel())
    out = (p * q).coeffs
    assert out.dtype == np.complex128 and np.array_equal(out, ref)


def test_divide_exact():
    x = HPoly.from_terms(1, {(1, 0, 0): 1}, dtype=object)
    y = HPoly.from_terms(1, {(0, 1, 0): 1}, dtype=object)
    d = x * x - y.scale(3) * y
    q = x.scale(2) - y
    assert divide_exact(q * d, d).terms() == q.terms()
    with pytest.raises(ArithmeticError):
        divide_exact(q * d + y.pow(3), d)
    with pytest.raises(ArithmeticError):
        divide_exact(x, d)
