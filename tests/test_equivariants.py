import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valentiner.equivariants import (A6_BARRED, A6_UNBARRED, _conic_condition_rows,
                                     _integer_nullspace, _nontrivial_member, _solve2,
                                     build_h19_exact, conic_points,
                                     frame_determinant_ratio, h19_exact,
                                     verify_h19)
from valentiner.hpoly import divide_exact, identity_times, jacobian_det, restrict_line
from valentiner.invariants import _g48_from, exact_chain
from valentiner.projective import fs_distance, normalize_point, random_unit_points


def test_h19_matches_published_table():
    h19, f19 = h19_exact()
    with resources.files("valentiner.data").joinpath("h19_printed.json").open() as f:
        printed = json.load(f)
    for i in range(3):
        ref = {tuple(int(v) for v in k.split(",")): val for k, val in printed[i].items()}
        assert ref == h19[i].terms(), f"component {i + 1} disagrees"


def test_h19_anchor_coefficients():
    h19 = [c.terms() for c in h19_exact()[0]]
    assert h19[2][(0, 0, 19)] == -1023516
    assert h19[0][(15, 4, 0)] == -3591
    assert h19[1][(19, 0, 0)] == -81


def test_f19_definition():
    h19, f19 = h19_exact()
    f = exact_chain()[0]
    f3_id = identity_times(f.pow(3)).components
    for i in range(3):
        recon = f3_id[i].scale(1620) + f19[i]
        assert recon.terms() == h19[i].terms()


def test_f64_divisible_by_x45():
    _, f19 = h19_exact()
    x45 = exact_chain()[3]
    f64 = [c * x45 for c in f19]
    for c, q in zip(f64, f19):
        assert divide_exact(c, x45).terms() == q.terms()


def test_jacobian_factorization_exact():
    h19, _ = h19_exact()
    j = jacobian_det(*h19)
    f, phi = exact_chain()[:2]
    fg = f * _g48_from(f, phi)
    assert divide_exact(j, fg).terms() == {(0, 0, 0): 1}


def test_promotion_basis_rank_14():
    from valentiner.equivariants import _exact_basis_64

    basis = _exact_basis_64()
    m = np.array([np.concatenate([c.coeffs for c in b]) for b in basis]).T.astype(complex)
    assert np.linalg.matrix_rank(m / np.max(np.abs(m))) == 14


def test_equivariance(reg, group_bub, rng):
    pts = random_unit_points(rng, 5)
    idx = rng.choice(len(group_bub.lift), 20, replace=False)
    for t in group_bub.lift[idx]:
        m = np.asarray(t, dtype=complex)
        for p in pts:
            assert fs_distance(reg.h19(m @ p), m @ reg.h19(p)) < 1e-8
            assert fs_distance(reg.psi16(m @ p), m @ reg.psi16(p)) < 1e-8
            assert fs_distance(reg.k25(m @ p), m @ reg.k25(p)) < 1e-8


def test_k25_degree_and_determinant(reg, rng):
    assert reg.k25.degree == 25
    ratios = [frame_determinant_ratio(reg.inv, reg.h19, reg.k25,
                                      normalize_point(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
              for _ in range(10)]
    assert np.max(np.abs(np.array(ratios) + 1458)) < 1e-6


def test_h19_published_dynamical_anchors(reg):
    assert fs_distance(reg.h19(np.array([0, 0, 1.0])), [0, 0, 1.0]) < 1e-12
    assert fs_distance(reg.h19(np.array([1.0, 0, 0])), [0, 1.0, 0]) < 1e-12
    assert fs_distance(reg.h19(np.array([0, 1.0, 0])), [1.0, 0, 0]) < 1e-12


def test_verify_h19_report(reg, catalog):
    items = verify_h19(reg, catalog, seed=7, n_conic=25)
    for item in items:
        assert item["pass"], item


def test_psi16_collapses_mirror_line_to_companion_point(reg, catalog):
    from valentiner.projective import fs_distance

    want = np.array([1.0, -1.0, 0]) / np.sqrt(2)
    li = int(np.argmin([fs_distance(e, want) for e in catalog.line45]))
    p_z = catalog.orbit45[li]
    for t in np.linspace(0.3, 1.7, 6):
        a = np.array([1.0, 1.0, t], dtype=complex)
        img = reg.psi16(a)
        assert fs_distance(img, np.asarray(p_z)) < 1e-8


def test_g19_family_on_72_points(reg, catalog, rng):
    for _ in range(5):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        g = reg.g19(a, b)
        for p in catalog.orbit72[rng.choice(72, 6, replace=False)]:
            assert fs_distance(g(np.asarray(p)), reg.h19(np.asarray(p))) < 1e-7


def test_bub_symmetry_of_h19(reg, rng):
    # coordinates of the canonical map are real, so conjugation symmetry is
    # exact; check it pointwise anyway
    for _ in range(10):
        p = normalize_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        lhs = reg.h19(np.conj(p))
        rhs = np.conj(reg.h19(p))
        assert fs_distance(lhs, rhs) < 1e-10


def test_critical_degree():
    h19, _ = h19_exact()
    j = jacobian_det(*h19)
    assert max(sum(e) for e in j.terms()) == 54


def test_conic_points_helper(reg, rng):
    c = reg.inv.conics_barred[2]
    pts = conic_points(c, 10, rng)
    assert max(abs(c.eval(p)) for p in pts) < 1e-9 * c.supnorm()


def _rref_nullspace(rows, ncols):
    """Oracle: the nullspace basis read off the RREF over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(len(m)):
            fac = m[i][c]
            if i != r and fac:
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


@st.composite
def _tall_integer_matrices(draw):
    """More rows than columns, of any rank (a product of rank-k factors),
    with some columns zeroed; factor entries of 2 or 40 bits, so products
    reach about 80 bits like the mirror-line rows."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(ncols + 1, ncols + 8))
    rank = draw(st.integers(0, ncols))
    bits = draw(st.sampled_from([2, 40]))
    entry = st.integers(-(1 << bits), 1 << bits)
    left = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=rank, max_size=rank))
    zero = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = [[0 if c in zero else sum(x * y[c] for x, y in zip(row, right)) for c in range(ncols)]
            for row in left]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(_tall_integer_matrices())
def test_integer_nullspace_matches_rref(case):
    rows, ncols = case
    basis = _integer_nullspace(rows, ncols)
    assert basis == _rref_nullspace(rows, ncols)
    assert all(type(x) is Fraction for v in basis for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for v in basis for row in rows)


def test_mirror_line_nullspace_matches_rref():
    from valentiner.equivariants import _exact_basis_64, _vanishing_family

    cols = [np.concatenate([restrict_line(c) for c in b]) for b in _exact_basis_64()]
    rows = [row for row in zip(*cols) if any(row)]
    assert _vanishing_family()[1] == _rref_nullspace(rows, len(cols))


def test_conic_conditions_solve_to_1620():
    f, phi = exact_chain()[:2]
    g = _nontrivial_member()[0]
    barred = _conic_condition_rows(g, f, phi, A6_BARRED, (1, 2, 3))
    unbarred = _conic_condition_rows(g, f, phi, A6_UNBARRED, (1, 2, 3))
    # g and F have integer coefficients, so the conjugate conic's rows are conjugate
    assert unbarred == [tuple((x, -y) for x, y in row) for row in barred]
    for rows in (barred, unbarred):
        # one conic gives a rank-one system, and (u, v) = (1620, 0) solves it
        assert _solve2(rows) is None
        assert all(a[0] * 1620 == c[0] and a[1] * 1620 == c[1] for a, _, c in rows)
    assert _solve2(barred + unbarred) == ((1620, 0), (0, 0))


def test_h19_builds_without_package_data(monkeypatch):
    with resources.files("valentiner.data").joinpath("h19_printed.json").open() as f:
        printed = json.load(f)
    files = resources.files

    def no_data(package):
        if getattr(package, "__name__", package) == "valentiner.data":
            raise AssertionError("the h19 construction read package data")
        return files(package)

    monkeypatch.setattr(resources, "files", no_data)
    h19, f19 = build_h19_exact()
    for i in range(3):
        ref = {tuple(int(v) for v in k.split(",")): val for k, val in printed[i].items()}
        assert h19[i].terms() == ref
        assert f19[i].terms() == h19_exact()[1][i].terms()
