import os
from fractions import Fraction

import numpy as np
import pytest

from valentiner.basins import _MATCH_TOL, d5_symmetry_mismatch, render_basins
from valentiner.frames import bub_frame
from valentiner.group import generators_octahedral
from valentiner.projective import fs_distance, fs_distances
from valentiner.slices import RP2_BASIS, conic_slice, restricted_psi16, rp2_chart


def test_rp2_chart_geometry(reg, catalog):
    ch = rp2_chart(reg, catalog)
    radii = np.linalg.norm(ch.attractors, axis=1)
    assert np.max(np.abs(radii - 1)) < 1e-9
    # one attractor on the positive horizontal axis (the image of [1,0,0])
    angles = np.degrees(np.arctan2(ch.attractors[:, 1], ch.attractors[:, 0]))
    assert np.min(np.abs(angles)) < 1e-6
    # the attractor set is closed under rotation by 72 degrees
    for a in ch.attractors:
        rot = np.array([[np.cos(2 * np.pi / 5), -np.sin(2 * np.pi / 5)],
                        [np.sin(2 * np.pi / 5), np.cos(2 * np.pi / 5)]]) @ a
        assert min(np.linalg.norm(ch.attractors - rot, axis=1)) < 1e-8
    assert sorted(set(ch.pair_label.tolist())) == [0, 1, 2, 3, 4]


def test_rp2_basis_rotates_five_fold(reg, catalog):
    """In RP2_BASIS the five-fold element Q P Q^-1 acts on chart coordinates
    as the rotation by 72 degrees, the real 72-points lie on the unit circle,
    and [1, 0, 0] sits at (1, 0)."""
    gens, fr = generators_octahedral(), bub_frame()
    q = np.asarray(gens["Q"], dtype=complex)
    g = (np.asarray(fr.from_octahedral, dtype=complex) @ q @ np.asarray(gens["P"], dtype=complex)
         @ np.linalg.inv(q) @ np.asarray(fr.to_octahedral, dtype=complex))
    m = np.linalg.solve(RP2_BASIS, g @ RP2_BASIS)
    m = m / m[0, 0]
    c, s = np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5)
    want = np.array([[1, 0, 0], [0, c, s], [0, -s, c]])
    assert np.max(np.abs(m - want)) < 1e-12
    ch = rp2_chart(reg, catalog)
    assert np.max(np.abs(np.linalg.norm(ch.attractors, axis=1) - 1)) < 1e-12
    assert np.max(np.abs(ch.to_chart([1.0, 0, 0]) - [1, 0])) < 1e-12


def test_chart_roundtrip(reg, catalog, rng):
    ch = rp2_chart(reg, catalog)
    for _ in range(10):
        t = rng.uniform(-1.5, 1.5, 2)
        p = ch.to_point(t)
        t2 = ch.to_chart(p)
        assert np.max(np.abs(t - t2)) < 1e-10


def test_conic_slice_structure(reg, catalog):
    sl = conic_slice(reg, catalog)
    assert len(sl.vertices) == 12
    assert sorted(set(sl.pair_label.tolist())) == [0, 1, 2, 3, 4, 5]
    c1 = reg.inv.conics_barred[0]
    for s in (0.3, -1.2 + 0.7j):
        assert abs(c1.eval(sl.to_point(s))) < 1e-12


def test_restricted_map_degree_and_fixed_points(catalog):
    lm = restricted_psi16(catalog)
    assert lm.degree == 15
    assert len(lm.fixed_points) == 4
    for u in lm.fixed_points:
        assert abs(lm(u) - u) < 1e-8
        # attracting: tiny derivative
        h = 1e-6
        assert abs((lm(u + h) - lm(u)) / h) < 1e-3


def _gcd_degree(a, b):
    """Degree of gcd(a, b) over Q: Euclid on Fraction coefficients, highest power first."""
    a, b = [Fraction(int(c)) for c in a], [Fraction(int(c)) for c in b]
    while b:
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
            while a and a[0] == 0:
                a = a[1:]
        a, b = b, a
    return len(a) - 1


def test_line45_map_is_integral_and_coprime(catalog):
    lm = restricted_psi16(catalog)
    for p in (lm.f1, lm.g):
        assert len(p) == 16 and p[0] != 0
        # integers, exact in binary64
        assert np.all(p == np.round(p)) and np.max(np.abs(p)) < 2.0 ** 53
    assert _gcd_degree(lm.f1, lm.g) == 0
    assert _gcd_degree([1, -3, 2], [1, -1]) == 1  # (s - 1)(s - 2) and s - 1
    for u in lm.fixed_points:
        assert abs(lm(u) - u) < 1e-12


def test_line45_map_matches_pointwise_jacobians(reg, catalog):
    # reference: J(n) J(x) n at x = [1, 1, sqrt(2) u], n = [1, -1, 0], from
    # the components' derivatives evaluated one point at a time
    lm = restricted_psi16(catalog)
    jac = [[c.diff(v) for v in range(3)] for c in reg.psi16.components]
    n = np.array([1, -1, 0], dtype=complex)
    jn = np.array([[d.eval(n) for d in row] for row in jac])
    us = np.concatenate([1.3 * np.exp(2j * np.pi * np.arange(8) / 8) + 0.1, [0.3 + 0.2j, 0.01]])
    for u in us:
        x = np.array([1, 1, np.sqrt(2) * u], dtype=complex)
        f = jn @ np.array([[d.eval(x) for d in row] for row in jac]) @ n
        # the image lies on the mirror line y1 = y2
        assert abs(f[0] - f[1]) < 1e-12 * abs(f[0])
        ref = f[2] / (np.sqrt(2) * f[0])
        assert abs(lm(u) - ref) < 1e-12 * abs(ref)


def test_rp2_basins(reg, catalog):
    grid = render_basins("rp2", reg, catalog, resolution=120, max_iter=200)
    assert grid.converged_fraction() >= 0.95
    assert set(np.unique(grid.labels)) <= {0, 1, 2, 3, 4}
    assert d5_symmetry_mismatch(grid, reg, catalog) < 0.01


def test_rp2_iterations_is_the_capture_step(reg, catalog):
    """A cell's iteration count is the first step whose iterate lies in the
    capture disc of an attractor of its label."""
    grid = render_basins("rp2", reg, catalog, resolution=40, max_iter=200)
    chart = rp2_chart(reg, catalog)
    xs = np.linspace(-grid.extent, grid.extent, grid.resolution)
    t1, t2 = np.meshgrid(xs, xs)
    cells = np.stack([t1.ravel(), t2.ravel()], axis=1)
    labels, iters = grid.labels.ravel(), grid.iterations.ravel().astype(int)
    picked = np.flatnonzero(labels >= 0)[::31][:50]
    assert len(picked) == 50
    z = chart.to_points(cells[picked]).astype(complex)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    # dist[k, i]: FS distance of cell i's k-th iterate to the nearest attractor
    # of its label; far[k, i]: to the nearest attractor of any label
    dist, far = [], []
    for k in range(int(iters[picked].max()) + 1):
        d = fs_distances(z[:, None, :], chart.attractor_points[None, :, :])
        same = chart.pair_label[None, :] == labels[picked][:, None]
        dist.append(np.min(np.where(same, d, np.inf), axis=1))
        far.append(np.min(d, axis=1))
        z = reg.h19.eval_many(z)
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    cols = np.arange(len(picked))
    assert np.all(np.array(dist)[iters[picked], cols] < _MATCH_TOL)
    assert np.all(np.array(far)[iters[picked] - 1, cols] >= _MATCH_TOL)


def test_conic_basins(reg, catalog):
    grid = render_basins("conic", reg, catalog, resolution=100, max_iter=200)
    assert grid.converged_fraction() >= 0.95
    labels = set(np.unique(grid.labels)) - {-1}
    assert labels == {0, 1, 2, 3, 4, 5}


def test_line45_basins(reg, catalog):
    grid = render_basins("line45", reg, catalog, resolution=100, max_iter=60)
    assert grid.converged_fraction() > 0.8
    assert len(set(np.unique(grid.labels)) - {-1}) == 4


def test_cold_line45_render_does_not_build_h19():
    # the mirror-line render needs the orbit catalog and the integer psi16,
    # never the degree-19 map: a fresh interpreter must leave h19 unbuilt
    import subprocess
    import sys
    from pathlib import Path

    import valentiner

    src = str(Path(list(valentiner.__path__)[0]).resolve().parent)
    code = ("from valentiner.basins import render_basins\n"
            "from valentiner.equivariants import h19_exact\n"
            "grid = render_basins('line45', resolution=16, max_iter=60)\n"
            "assert len(set(grid.labels.ravel().tolist()) - {-1}) == 4\n"
            "print(h19_exact.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), cwd=src, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_ppm_output(tmp_path, reg, catalog):
    grid = render_basins("rp2", reg, catalog, resolution=32, max_iter=60)
    path = tmp_path / "out.ppm"
    grid.to_ppm(path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3
