import numpy as np
import pytest

from valentiner.frames import bub_frame, fricke_frame, frame_by_name, icosahedral_frame
from valentiner.group import (bub_antilinear_in_frame, bub_antilinear_octahedral,
                              conic_forms_octahedral, conic_permutation,
                              enumerate_group, generators_octahedral,
                              transport_conics)
from valentiner.hpoly import HPoly, monomial_index
from valentiner.projective import fs_distance, normalize_point

RHO = np.exp(2j * np.pi / 3)
ETA = (3 + np.sqrt(15) * 1j) / 4


@pytest.fixture(scope="module")
def table():
    return enumerate_group()


def test_census(table):
    assert len(table.projective) == 360
    assert len(table.lift) == 1080
    assert table.order_census() == {1: 1, 2: 45, 3: 80, 4: 90, 5: 144}


def test_lift_determinants(table):
    assert np.max(np.abs(np.linalg.det(table.lift) - 1)) < 1e-10


def test_generator_relations():
    g = generators_octahedral()
    q = np.asarray(g["Q"], dtype=complex)
    p = np.asarray(g["P"], dtype=complex)
    z1 = np.diag([1.0, -1.0, -1.0])
    assert np.allclose(q @ q, z1)
    assert np.allclose(np.linalg.matrix_power(p, 5), np.eye(3), atol=1e-12)
    # printed matrix for Q
    assert np.allclose(q, [[1, 0, 0], [0, 0, RHO ** 2], [0, -RHO, 0]])
    # P entry (1,1) is 1/2
    assert abs(p[0, 0] - 0.5) < 1e-14


def test_conic_forms_match_published():
    barred, unbarred = conic_forms_octahedral()
    c2 = HPoly.from_terms(2, {(2, 0, 0): 1, (0, 2, 0): RHO ** 2, (0, 0, 2): RHO})
    assert np.max(np.abs(barred[1].coeffs - c2.coeffs)) < 1e-12
    e2 = ETA * ETA / 3
    c3 = HPoly.from_terms(2, {(2, 0, 0): e2, (0, 2, 0): e2 * RHO, (0, 0, 2): e2 * RHO ** 2,
                              (1, 1, 0): ETA * RHO ** 2, (1, 0, 1): ETA * RHO, (0, 1, 1): -ETA})
    assert np.max(np.abs(barred[2].coeffs - c3.coeffs)) < 1e-12
    u1 = HPoly.from_terms(2, {(2, 0, 0): -ETA * RHO ** 2, (0, 2, 0): -ETA * (4 / 3) * ETA ** 2,
                              (0, 0, 2): -ETA * RHO, (1, 0, 1): -ETA * 2 * RHO * (RHO - 1)})
    assert np.max(np.abs(unbarred[0].coeffs - u1.coeffs)) < 1e-12


def test_conic_permutations():
    barred, unbarred = conic_forms_octahedral()
    gens = generators_octahedral()
    perm_p, chars_p = conic_permutation(barred, gens["P"])
    assert perm_p == [0, 5, 1, 2, 3, 4]
    assert np.allclose(chars_p, 1)
    perm_z, chars_z = conic_permutation(barred, gens["Z"])
    assert perm_z == [0, 1, 3, 2, 5, 4]
    assert abs(chars_z[2] - RHO ** 2) < 1e-9 and abs(chars_z[4] - RHO) < 1e-9
    # published Q-chain is cumulative: Q C3 = C6, Q^2 C3 = rho^2 C5, Q^3 C3 = rho^2 C4
    q = np.asarray(gens["Q"], dtype=complex)
    idx = 2
    form = barred[idx]
    images = []
    for k in range(1, 4):
        form = form.compose_linear(np.linalg.inv(q))
        from valentiner.group import match_to_scaled_conic

        i, s = match_to_scaled_conic(barred, form)
        images.append((i, s))
    assert images[0][0] == 5 and abs(images[0][1] - 1) < 1e-9
    assert images[1][0] == 4 and abs(images[1][1] - RHO ** 2) < 1e-9
    assert images[2][0] == 3 and abs(images[2][1] - RHO ** 2) < 1e-9


def test_every_element_permutes_conics(table):
    barred, unbarred = conic_forms_octahedral()
    rng = np.random.default_rng(0)
    for t in table.projective[rng.choice(360, 25, replace=False)]:
        for system in (barred, unbarred):
            perm, chars = conic_permutation(system, t)
            assert None not in perm
            assert sorted(perm) == [0, 1, 2, 3, 4, 5]


def test_bub_involution_and_exchange(rng):
    b = np.asarray(bub_antilinear_octahedral(), dtype=complex)
    bb = b @ np.conj(b)
    assert np.max(np.abs(bb / bb[0, 0] - np.eye(3))) < 1e-12
    barred, unbarred = conic_forms_octahedral()
    # C_k(bub x) = (3 + sqrt15 i) char_k conj(Cbar_k(x)), chars (rho^2, rho, 1, 1, rho^2, rho)
    chars = [RHO ** 2, RHO, 1, 1, RHO ** 2, RHO]
    alpha2 = 3 + np.sqrt(15) * 1j
    for _ in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        bx = b @ np.conj(x)
        for k in range(6):
            lhs = unbarred[k].eval(bx)
            rhs = alpha2 * chars[k] * np.conj(barred[k].eval(x))
            assert abs(lhs - rhs) < 1e-9 * abs(lhs)


def test_bub_conjugation_stays_in_group(table):
    b = np.asarray(bub_antilinear_octahedral(), dtype=complex)
    gens = generators_octahedral()
    for name in ("P", "Q", "Z", "T"):
        t = np.asarray(gens[name], dtype=complex)
        # bub(T(bub(x))) = B conj(T) conj(B) x: a projective transformation
        m = b @ np.conj(t) @ np.conj(b)
        overlaps = [abs(np.vdot(g, m)) / (np.linalg.norm(g) * np.linalg.norm(m))
                    for g in table.projective]
        assert max(overlaps) > 1 - 1e-10


def test_frames_roundtrip():
    for name in ("octahedral", "icosahedral", "fricke", "bub22"):
        fr = frame_by_name(name)
        assert fr.roundtrip_error() < 1e-10


def test_fricke_frame_anchors():
    fr = fricke_frame()
    # the five-fold generator is diagonal (eps, 1, eps^4) there
    gens = generators_octahedral()
    m = np.asarray(fr.from_octahedral, dtype=complex)
    pz = m @ np.asarray(gens["P"], dtype=complex) @ np.linalg.inv(m)
    off = pz - np.diag(np.diag(pz))
    assert np.max(np.abs(off)) < 1e-9
    eps = np.exp(2j * np.pi / 5)
    d = np.diag(pz) / pz[1, 1]
    assert abs(d[0] - eps) < 1e-9 and abs(d[2] - eps ** 4) < 1e-9
    # the conic becomes z1 z3 + z2^2
    c1 = HPoly.from_terms(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    cf = c1.compose_linear(np.asarray(fr.to_octahedral, dtype=complex))
    s = cf.coeffs[monomial_index(2, (0, 2, 0))]
    ref = np.zeros_like(cf.coeffs)
    ref[monomial_index(2, (1, 0, 1))] = s
    ref[monomial_index(2, (0, 2, 0))] = s
    assert np.max(np.abs(cf.coeffs - ref)) < 1e-9 * abs(s)


def test_bub_frame_anchors(rng):
    fr = bub_frame()
    m = np.asarray(fr.to_octahedral, dtype=complex)
    s5 = np.sqrt(5)
    p22_oct = np.array([(1 - s5) / 2 * RHO ** 2, 0, 1])
    assert fs_distance(m @ np.ones(3), p22_oct) < 1e-12
    w = np.sqrt((5 + s5) / 2)
    p221_oct = np.array([(1 + s5) / 2 * RHO ** 2, w * 1j * RHO, 1])
    y = np.linalg.solve(m, p221_oct)
    assert fs_distance(y, np.array([3, 2 * ETA ** 2, -ETA])) < 1e-12
    # bub is coordinatewise conjugation here
    k = bub_antilinear_in_frame(fr)
    assert np.max(np.abs(k / k[0, 0] - np.eye(3))) < 1e-12
    # published normalized conic (2 etabar / 3)^2 y1 y2 + y3^2
    barred, unbarred = conic_forms_octahedral()
    tb, tu = transport_conics(barred, unbarred, fr, normalize_bub=True)
    tb0, tu0 = tb[0].terms(), tu[0].terms()
    assert abs(tb0[(1, 1, 0)] - (2 * np.conj(ETA) / 3) ** 2) < 1e-12
    assert abs(tb0[(0, 0, 2)] - 1) < 1e-14
    # the partner form has the conjugate shape after its own normalization
    ratio = tu0[(1, 1, 0)] / tu0[(0, 0, 2)]
    assert abs(ratio - (2 * ETA / 3) ** 2) < 1e-12
    # real points of the frame are fixed by the swap
    for _ in range(10):
        t = rng.standard_normal(3)
        img = k @ np.conj(t)
        assert fs_distance(img, t) < 1e-10


def test_high_precision_frame_agrees():
    # every function with an mp switch, at 40 digits, against binary64
    import mpmath

    from valentiner.equivariants import build_k25, h19_exact, registry
    from valentiner.hpoly import EquivariantMap
    from valentiner.invariants import exact_chain

    def rel(hi, lo):
        hi = np.array([complex(x) for x in np.ravel(hi)])
        lo = np.ravel(np.asarray(lo, dtype=complex))
        return np.max(np.abs(hi - lo)) / np.max(np.abs(lo))

    with mpmath.workdps(40):
        frh = bub_frame(mp=True)
        gens = generators_octahedral(mp=True)
        conics = conic_forms_octahedral(mp=True)
        f, _, _, x45 = exact_chain()[:4]
        k25 = build_k25(f, EquivariantMap(h19_exact()[0]), x45)
        pts = np.random.default_rng(5).standard_normal((3, 3, 2)) @ np.array([1, 1j])
        k_mp = [k25(np.array([mpmath.mpc(c) for c in p], dtype=object)) for p in pts]
    assert np.max(np.abs(bub_frame().to_octahedral - np.array(
        [[complex(x) for x in row] for row in frh.to_octahedral]))) < 1e-14
    gens64 = generators_octahedral()
    assert max(rel(gens[k], gens64[k]) for k in gens64) < 1e-13
    for hi, lo in zip(conics, conic_forms_octahedral()):
        assert max(rel(a.coeffs, b.coeffs) for a, b in zip(hi, lo)) < 1e-13
    reg = registry()
    assert max(rel(k, reg.k25(p)) for k, p in zip(k_mp, pts)) < 1e-13
