"""Basin-of-attraction grids on the distinguished slices, with PPM output.

A grid cell is colored by the attractor its center's trajectory reaches
(period-2 pairs of 72-points on the real-plane and conic slices, the four
fixed mirror points on a line slice); cells that fail to converge within
the iteration budget stay black.
"""

from dataclasses import dataclass

import numpy as np

from .hpoly import EquivariantMap, HPoly

PALETTE = np.array([
    [230, 60, 50], [60, 140, 230], [70, 190, 90], [240, 190, 40],
    [170, 90, 220], [80, 210, 200], [240, 120, 180], [150, 150, 150],
], dtype=np.uint8)


@dataclass
class BasinGrid:
    slice_id: str
    resolution: int
    extent: float
    labels: np.ndarray          # (res, res) int16, -1 for nonconverged
    iterations: np.ndarray      # (res, res) uint16: first step in the capture disc
    n_attractors: int

    def converged_fraction(self):
        return float(np.mean(self.labels >= 0))

    def to_ppm(self, path):
        img = np.zeros((self.resolution, self.resolution, 3), dtype=np.uint8)
        for k in range(self.n_attractors):
            img[self.labels == k] = PALETTE[k % len(PALETTE)]
        with open(path, "wb") as f:
            f.write(b"P6\n%d %d\n255\n" % (self.resolution, self.resolution))
            f.write(img.tobytes())

    def to_json_dict(self):
        return {
            "schema": "valentiner/1",
            "slice": self.slice_id,
            "resolution": self.resolution,
            "extent": self.extent,
            "n_attractors": self.n_attractors,
            "converged_fraction": self.converged_fraction(),
            "labels": self.labels.tolist(),
        }


MAX_ITER = 200            # iteration budget of every slice
_MATCH_TOL = 1e-6         # Fubini-Study radius of an attractor's capture disc
_CELL_BLOCK = 65536


def _match_attractors(pts, attractors):
    """Labels of nearest attractors within _MATCH_TOL of unit rows pts, else -1 (vectorized)."""
    a = attractors / np.linalg.norm(attractors, axis=1, keepdims=True)
    overlap = np.abs(np.conj(pts) @ a.T if np.iscomplexobj(pts) or np.iscomplexobj(a) else pts @ a.T)
    best = np.argmax(overlap, axis=1)
    good = overlap[np.arange(len(pts)), best] > np.cos(_MATCH_TOL)
    return np.where(good, best, -1)


def _iterate_to_attractors(emap, pts, attractors, pair_label, max_iter):
    """Iterate emap from every point until it lands on an attractor.

    Returns per-point pair labels (-1 where no attractor was reached within
    max_iter) and the iteration at which each point was captured: capture
    is tested after every step.  Points go through _CELL_BLOCK at a time,
    which bounds the working arrays.
    """
    labels = np.full(len(pts), -1, dtype=np.int16)
    iters = np.zeros(len(pts), dtype=np.uint16)
    for lo in range(0, len(pts), _CELL_BLOCK):
        z = pts[lo:lo + _CELL_BLOCK]
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        live = np.arange(lo, lo + len(z))
        for k in range(max_iter):
            z = emap.eval_many(z)
            nrm = np.linalg.norm(z, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            z = z / nrm
            m = _match_attractors(z, attractors)
            hit = m >= 0
            if np.any(hit):
                labels[live[hit]] = pair_label[m[hit]].astype(np.int16)
                iters[live[hit]] = k + 1
                z = z[~hit]
                live = live[~hit]
                if len(live) == 0:
                    break
    return labels, iters


def render_rp2(reg, catalog, resolution=180, max_iter=MAX_ITER, extent=2.0, cell_transform=None):
    """Basins of the canonical degree-19 map on the real conic-swap plane."""
    from .slices import rp2_chart

    chart = rp2_chart(reg, catalog)
    # h19 has integer coefficients, so the real plane iterates in float64
    h_real = EquivariantMap([HPoly(c.degree, c.coeffs.real.copy()) for c in reg.h19.components])
    xs = np.linspace(-extent, extent, resolution)
    t1, t2 = np.meshgrid(xs, xs)
    cells = np.stack([t1.ravel(), t2.ravel()], axis=1)
    if cell_transform is not None:
        cells = cells @ np.asarray(cell_transform).T
    labels, iters = _iterate_to_attractors(h_real, chart.to_points(cells), chart.attractor_points,
                                           chart.pair_label, max_iter)
    return BasinGrid("rp2", resolution, extent,
                     labels.reshape(resolution, resolution),
                     iters.reshape(resolution, resolution), 5)


def render_conic(reg, catalog, resolution=180, max_iter=MAX_ITER, extent=2.0):
    """Basins of the restricted map on the first barred conic, in the
    rational-parametrization chart."""
    from .slices import conic_slice

    sl = conic_slice(reg, catalog)
    xs = np.linspace(-extent, extent, resolution)
    s1, s2 = np.meshgrid(xs, xs)
    s = (s1 + 1j * s2).ravel()
    pts = np.stack([s * s, np.full_like(s, -sl.a_coef), sl.a_coef * s], axis=1)
    labels, iters = _iterate_to_attractors(reg.h19, pts, sl.vertices, sl.pair_label, max_iter)
    return BasinGrid("conic", resolution, extent,
                     labels.reshape(resolution, resolution),
                     iters.reshape(resolution, resolution), 6)


def render_line45(catalog, resolution=180, max_iter=MAX_ITER, extent=2.0):
    """Basins of the degree-15 restricted map on a mirror line (complex chart)."""
    from .slices import restricted_psi16

    lm = restricted_psi16(catalog)
    xs = np.linspace(-extent, extent, resolution)
    u1, u2 = np.meshgrid(xs, xs)
    u = (u1 + 1j * u2).ravel()
    labels = np.full(len(u), -1, dtype=np.int16)
    iters = np.zeros(len(u), dtype=np.uint16)
    live = np.arange(len(u))
    for k in range(max_iter):
        u = lm(u)
        bad = ~np.isfinite(u)
        if np.any(bad):
            u[bad] = 1e30
        close = np.abs(u[:, None] - lm.fixed_points[None, :]) < 1e-4 * np.maximum(1.0, np.abs(u[:, None]))
        hit = close.any(axis=1)
        if np.any(hit):
            labels[live[hit]] = np.argmax(close[hit], axis=1).astype(np.int16)
            iters[live[hit]] = k + 1
            u = u[~hit]
            live = live[~hit]
            if len(live) == 0:
                break
    return BasinGrid("line45", resolution, extent,
                     labels.reshape(resolution, resolution),
                     iters.reshape(resolution, resolution), len(lm.fixed_points))


def render_basins(slice_id, reg=None, catalog=None, resolution=180, max_iter=MAX_ITER, extent=2.0):
    from .equivariants import registry as _registry

    if catalog is None:
        from .frames import bub_frame
        from .group import enumerate_group
        from .invariants import build_invariants
        from .orbits import special_orbits

        inv = reg.inv if reg else build_invariants("bub22")
        catalog = special_orbits(enumerate_group().conjugate_to_frame(bub_frame()), inv)
    # the mirror-line map is exact and needs only the catalog, not h19
    if slice_id == "line45":
        return render_line45(catalog, resolution, max_iter, extent)
    reg = reg or _registry()
    if slice_id == "rp2":
        return render_rp2(reg, catalog, resolution, max_iter, extent)
    if slice_id == "conic":
        return render_conic(reg, catalog, resolution, max_iter, extent)
    raise ValueError(slice_id)


def d5_symmetry_mismatch(grid, reg, catalog):
    """Fraction of cells whose label breaks five-fold rotation symmetry.

    A second grid is rendered from the exactly rotated cell centers (basin
    boundaries are fractal, so a nearest-cell lookup would decorrelate in
    the streaked regions and measure resolution, not symmetry); the two
    label fields must then agree up to one label permutation, estimated by
    majority vote.
    """
    ang = 2 * np.pi / 5
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    rotated = render_rp2(reg, catalog, grid.resolution, MAX_ITER, grid.extent,
                         cell_transform=rot)
    src = grid.labels
    dst = rotated.labels
    ok = (src >= 0) & (dst >= 0)
    perm = np.full(grid.n_attractors, -2, dtype=np.int16)
    for k in range(grid.n_attractors):
        sel = ok & (src == k)
        if not np.any(sel):
            continue
        vals, counts = np.unique(dst[sel], return_counts=True)
        perm[k] = vals[np.argmax(counts)]
    mismatch = ok & (dst != perm[np.clip(src, 0, grid.n_attractors - 1)])
    return float(np.sum(mismatch)) / max(1, int(np.sum(ok)))
