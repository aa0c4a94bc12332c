import numpy as np
import pytest

from valentiner.hpoly import monomial_index
from valentiner.invariants import (F_BUB_TERMS, _g48_from, build_invariants, exact_chain,
                                   verify_relations)
from valentiner.projective import random_unit_points

RHO = np.exp(2j * np.pi / 3)


def test_exact_chain_anchors():
    f, phi, psi, x45 = (p.terms() for p in exact_chain()[:4])
    assert f == F_BUB_TERMS
    assert phi[(11, 1, 0)] == 6 and phi[(0, 0, 12)] == 729
    assert psi[(30, 0, 0)] == 3 and psi[(0, 0, 30)] == 57395628
    assert x45[(45, 0, 0)] == 1 and x45[(0, 45, 0)] == -1
    assert x45[(0, 5, 40)] == 3570467226624
    assert all(isinstance(c, int) for tab in (phi, psi, x45) for c in tab.values())


def test_reconstructed_degree_six_term():
    # the published table shows a degree-4 monomial inside the degree-6 form;
    # the reconstruction from conic cubes puts the coefficient 9 on y2^5 y3
    f = exact_chain()[0].terms()
    assert f[(0, 5, 1)] == 9
    assert (0, 3, 1) not in f


def test_f_from_both_conic_systems(inv):
    fb = None
    fu = None
    for system in (inv.conics_barred, inv.conics_unbarred):
        acc = system[0].pow(3)
        for c in system[1:]:
            acc = acc + c.pow(3)
        acc = acc.scale(27.0 / acc.coeffs[monomial_index(6, (0, 0, 6))])
        if fb is None:
            fb = acc
        else:
            fu = acc
    assert np.max(np.abs(fb.coeffs - inv.F.coeffs)) < 1e-9 * inv.F.supnorm()
    assert np.max(np.abs(fu.coeffs - inv.F.coeffs)) < 1e-9 * inv.F.supnorm()


def test_octahedral_f_matches_published():
    invo = build_invariants("octahedral")
    c = invo.F.terms()
    s5 = np.sqrt(5)
    assert abs(c[(6, 0, 0)] - 1) < 1e-12
    assert abs(c[(2, 2, 2)] - 3 * (5 - np.sqrt(15) * 1j)) < 1e-10
    assert abs(c[(4, 2, 0)] - 0.75 * (2 * s5 - (5 - s5) * RHO)) < 1e-10
    assert abs(c[(4, 0, 2)] + 0.75 * (2 * s5 + (5 + s5) * RHO ** 2)) < 1e-10


def test_pure_point_evaluations(inv):
    invo = build_invariants("octahedral")
    assert abs(invo.F.eval(np.array([1.0, 0, 0])) - 1) < 1e-12
    assert abs(inv.F.eval(np.array([0, 0, 1.0])) - 27) < 1e-12
    assert inv.F.eval(np.zeros(3)) == 0


def test_verify_relations_pass(inv):
    rep = verify_relations(inv, n_points=150, seed=3)
    for item in rep["identities"]:
        assert item["pass"], item
    assert rep["pass"]


def test_invariance_eval_sweep(group_bub, inv, rng):
    pts = random_unit_points(rng, 50)
    idx = rng.choice(len(group_bub.lift), 30, replace=False)
    for p in (inv.F, inv.Phi, inv.Psi, inv.X):
        vals = p.eval_many(pts)
        for t in group_bub.lift[idx]:
            tv = p.eval_many(pts @ np.asarray(t, dtype=complex).T)
            assert np.max(np.abs(tv - vals) / np.maximum(np.abs(vals), 1e-30)) < 1e-8


def test_invariance_coefficient_level(group_bub, inv, rng):
    # full polynomial identity F o T = F for a random subset of the lift
    idx = rng.choice(len(group_bub.lift), 8, replace=False)
    for t in group_bub.lift[idx]:
        m = np.asarray(t, dtype=complex)
        for p in (inv.F, inv.Phi):
            q = p.compose_linear(m)
            assert np.max(np.abs(q.coeffs - p.coeffs)) < 1e-8 * p.supnorm()


def test_x_sign_character(group_bub, inv, rng):
    # X is invariant under the unit-determinant lift and picks up the
    # determinant sign on the extended group
    t = group_bub.lift[17]
    q = inv.X.compose_linear(np.asarray(-t, dtype=complex))
    # det(-T) = -1: odd degree 45 flips sign relative to X o T
    q2 = inv.X.compose_linear(np.asarray(t, dtype=complex))
    assert np.max(np.abs(q.coeffs + q2.coeffs)) < 1e-8 * inv.X.supnorm()


def test_g48_exact_tables():
    f, phi = exact_chain()[:2]
    g = _g48_from(f, phi).terms()
    # sanity: it is the stated combination (already by construction) and integral
    assert all(isinstance(c, int) for c in g.values())
    assert max(abs(c) for c in g.values()) > 0


def test_degree_bookkeeping_matches_molien(inv):
    from valentiner.molien import molien_series

    dims = molien_series("v3x360", 45)
    assert [dims[d] for d in (6, 12, 18, 24, 30)] == [1, 2, 2, 3, 4]
    assert (inv.F.degree, inv.Phi.degree, inv.Psi.degree, inv.X.degree) == (6, 12, 30, 45)
