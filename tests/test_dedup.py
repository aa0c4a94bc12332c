"""The blocked screen-and-confirm dedup against one-by-one scalar oracles.

The oracles are the scalar loops the package used before: a breadth-first
closure that tests each product against the growing stack, a projective
pass over the three cube-root multiples, and an orbit catalog built with
`_add_unique`.  The package's tables must equal them bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from valentiner.frames import RHO, bub_frame
from valentiner.group import conic_permutation, enumerate_group, generators_octahedral
from valentiner.molien import group_elements
from valentiner.orbits import special_orbits
from valentiner.projective import first_unique, fs_distance, fs_distances, normalize_point

TOL = 1e-8


def _dedup_key_distance(mats, cand):
    d = mats - cand[None, :, :]
    return np.sqrt(np.einsum("nij,nij->n", d, np.conj(d)).real)


def _oracle_closure(names):
    gens = generators_octahedral()
    gen_list = [(k, np.asarray(gens[k], dtype=complex)) for k in names]
    elems, words, frontier = [np.eye(3, dtype=complex)], [""], [0]
    stack = np.array(elems)
    while frontier:
        new_frontier = []
        for idx in frontier:
            for name, g in gen_list:
                cand = elems[idx] @ g
                if np.min(_dedup_key_distance(stack, cand)) > TOL:
                    elems.append(cand)
                    words.append(words[idx] + name)
                    stack = np.concatenate([stack, cand[None]], axis=0)
                    new_frontier.append(len(elems) - 1)
        frontier = new_frontier
    return np.array(elems), words


def _oracle_canonical(m, rho):
    entry = m.ravel()[int(np.argmax(np.abs(m).ravel()))]
    best, best_arg, w = m, abs(np.angle(entry)), rho
    for _ in range(2):
        a = abs(np.angle(entry * w))
        if a < best_arg - 1e-13:
            best, best_arg = m * w, a
        w = w * rho
    return best


def _oracle_projective(lift):
    rho = complex(RHO)
    proj = []
    for m in lift:
        c = _oracle_canonical(m, rho)
        if proj and min(np.min(_dedup_key_distance(np.array(proj), c * rho ** k))
                        for k in range(3)) <= TOL:
            continue
        proj.append(c)
    return np.array(proj)


def _scalar_proj_order(m, tol=1e-7):
    p = np.eye(3, dtype=complex)
    for k in range(1, 6):
        p = p @ m
        q = p / p.ravel()[np.argmax(np.abs(p))]
        if np.max(np.abs(q - q[0, 0] * np.eye(3))) < tol:
            return k
    return -1


def _add_unique(acc, p):
    for q in acc:
        if fs_distance(p, q) < TOL:
            return False
    acc.append(p)
    return True


def _oracle_catalog(table, inv):
    """The orbit fields of special_orbits, one point at a time."""
    by_order = {2: [], 3: [], 4: [], 5: []}
    for m in table.projective:
        by_order.setdefault(_scalar_proj_order(m), []).append(m)
    o36, o45, o60, o60b, o72, o90, lines, meta = [], [], [], [], [], [], [], []
    for m in by_order[2]:
        w, v = np.linalg.eig(m)
        pair = int(np.argmin([abs(w[0] - w[1]), abs(w[0] - w[2]), abs(w[1] - w[2])]))
        simple = 2 - pair
        if _add_unique(o45, normalize_point(v[:, simple])):
            dbl = [i for i in range(3) if i != simple]
            lines.append(normalize_point(np.cross(v[:, dbl[0]], v[:, dbl[1]])))
            pb, _ = conic_permutation(inv.conics_barred, m)
            pu, _ = conic_permutation(inv.conics_unbarred, m)
            meta.append((tuple(i + 1 for i in range(6) if pb[i] == i),
                         tuple(i + 1 for i in range(6) if pu[i] == i)))

    def points(m):
        return [normalize_point(v) for v in np.linalg.eig(m)[1].T]

    for m in by_order[5]:
        for p in points(m):
            on72 = (abs(inv.F.eval(p)) < 1e-6 * inv.F.supnorm()
                    and abs(inv.Phi.eval(p)) < 1e-6 * inv.Phi.supnorm())
            _add_unique(o72 if on72 else o36, p)
    for m in by_order[4]:
        for p in points(m):
            if all(fs_distance(p, q) > TOL for q in o45):
                _add_unique(o90, p)
    for m in by_order[3]:
        for p in points(m):
            on_b = min(abs(c.eval(p)) for c in inv.conics_barred)
            on_u = min(abs(c.eval(p)) for c in inv.conics_unbarred)
            assert (on_b < 1e-6 and on_u > 1e-4) or (on_u < 1e-6 and on_b > 1e-4)
            _add_unique(o60b if on_b < 1e-6 else o60, p)
    return {"orbit36": o36, "orbit45": o45, "orbit60": o60, "orbit60bar": o60b,
            "orbit72": o72, "orbit90": o90, "line45": lines, "involution_index": meta}


@pytest.fixture(scope="module")
def oracle_group():
    lift, words = _oracle_closure(("Z", "T", "P", "Q"))
    return lift, words, _oracle_projective(lift)


def test_group_table_equals_scalar_closure(oracle_group):
    lift, words, proj = oracle_group
    table = enumerate_group()
    assert np.array_equal(table.lift, lift)
    assert table.words == words
    assert np.array_equal(table.projective, proj)


def test_icosahedral_elements_equal_scalar_closure():
    elems, _ = _oracle_closure(("Z", "T", "P"))
    assert np.array_equal(group_elements("icosa60"), elems)
    assert np.array_equal(group_elements("icosa120"), np.concatenate([elems, -elems]))


def test_orbit_catalog_equals_scalar_dedup(group_bub, catalog, inv):
    want = _oracle_catalog(group_bub, inv)
    for name, pts in want.items():
        got = getattr(catalog, name)
        if name == "involution_index":
            assert got == pts
        else:
            assert np.array_equal(got, np.array(pts)), name


def test_first_unique_keeps_in_order_like_the_scalar_loop():
    # a chain 0.6e-8 apart: the middle point is a duplicate of the first, and
    # the last one is kept, since its only near neighbour was dropped
    chain = np.array([[1.0, t, 0.0] for t in (0.0, 0.6e-8, 1.2e-8, 0.0)], dtype=complex)
    acc = []
    want = [_add_unique(acc, p) for p in chain]
    assert want == [True, False, True, False]
    assert first_unique(chain, None, fs_distances).tolist() == want
    assert first_unique(chain, chain[2:3], fs_distances).tolist() == [True, False, False, False]
    assert first_unique(chain[:0], chain, fs_distances).tolist() == []


def test_fs_distances_match_scalar_formula(rng):
    eps = np.finfo(float).eps
    base = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    for sep in (1e-9, 1e-8, 1e-7, None):
        u = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        if sep is None:
            other = u
        else:
            u -= np.sum(np.conj(base) * u, axis=1)[:, None] * base
            other = (base + sep * u / np.linalg.norm(u, axis=1)[:, None]) * (0.3 - 2j)
        got = fs_distances(base, other)
        want = np.array([fs_distance(p, q) for p, q in zip(base, other)])
        if sep is not None:
            assert np.allclose(want, sep, rtol=1e-6, atol=0)
        assert np.all(np.abs(got - want) <= 4 * eps * np.maximum(want, 1.0) if sep is None
                      else np.abs(got - want) <= 4 * eps * want), sep
    # broadcasting over a grid of pairs
    grid = fs_distances(base[:5, None], base[None, :7])
    want = [[fs_distance(p, q) for q in base[:7]] for p in base[:5]]
    assert np.all(np.abs(grid - want) <= 4 * eps)


def test_group_and_orbits_stay_in_bounded_memory(inv):
    frame = bub_frame()
    tracemalloc.start()
    try:
        special_orbits(enumerate_group().conjugate_to_frame(frame), inv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak
