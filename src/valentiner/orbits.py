"""Special orbits of the Valentiner action and the 45-array combinatorics.

Orbit points come from eigenvectors of group elements (exact linear
algebra); invariant vanishing is used as the certificate and classifier,
never as the construction.  Sizes: 36, 45, 60, 60, 72, 90.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OrbitSizeMismatch
from .group import conic_permutation, proj_orders
from .hpoly import eval_forms
from .projective import first_unique, fs_distances, normalize_point

PAIRS15 = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]


@dataclass
class OrbitCatalog:
    orbit36: np.ndarray
    orbit45: np.ndarray
    orbit60: np.ndarray
    orbit60bar: np.ndarray
    orbit72: np.ndarray
    orbit90: np.ndarray
    line45: np.ndarray            # 45 linear forms (rows)
    involution_index: list        # per 45-point: (barred pair, unbarred pair)
    array45: np.ndarray           # 15x15 boolean incidence

    def all_points(self):
        return np.concatenate([self.orbit36, self.orbit45, self.orbit60,
                               self.orbit60bar, self.orbit72, self.orbit90])


def special_orbits(table, inv):
    """OrbitCatalog from the projective group table and the invariant system.

    table must be in the same frame as inv.  The 72/36 points are the
    eigenvectors of five-fold elements (off-conic pole = 36), the 45
    points and lines come from involutions, 90 from four-fold elements
    (less the 45-points), and the sixty-point orbits from three-fold
    elements classified by which conic system vanishes at them.  One
    batched eig per element order; each orbit keeps the first occurrence of
    every point, deduplicated by first_unique on fs_distances.
    """
    orders = proj_orders(table.projective)
    mats = {k: table.projective[orders == k] for k in (2, 3, 4, 5)}

    def points(k):
        v = np.linalg.eig(mats[k])[1].transpose(0, 2, 1).reshape(-1, 3)
        return np.array([normalize_point(p) for p in v])

    def unique(pts, kept=None):
        return pts[first_unique(pts, kept, fs_distances)]

    # an involution has one simple eigenvalue (the fixed point) and one double (the line)
    w, v = np.linalg.eig(mats[2])
    simple = 2 - np.argmin(np.abs(w[:, [0, 0, 1]] - w[:, [1, 2, 2]]), axis=1)
    pts = np.array([normalize_point(p) for p in v[np.arange(len(v)), :, simple]])
    keep = first_unique(pts, None, fs_distances)
    orbit45 = pts[keep]
    lines, inv_meta = [], []
    for m, vec, s in zip(mats[2][keep], v[keep], simple[keep].tolist()):
        dbl = [i for i in range(3) if i != s]
        lines.append(normalize_point(np.cross(vec[:, dbl[0]], vec[:, dbl[1]])))
        pb, _ = conic_permutation(inv.conics_barred, m)
        pu, _ = conic_permutation(inv.conics_unbarred, m)
        inv_meta.append((tuple(i + 1 for i in range(6) if pb[i] == i),
                         tuple(i + 1 for i in range(6) if pu[i] == i)))

    pts = points(5)
    f, phi = np.abs(eval_forms([inv.F, inv.Phi], pts)).T
    on72 = (f < 1e-6 * inv.F.supnorm()) & (phi < 1e-6 * inv.Phi.supnorm())
    orbit72, orbit36 = unique(pts[on72]), unique(pts[~on72])

    orbit90 = unique(points(4), orbit45)

    pts = points(3)
    on_b = np.min(np.abs(eval_forms(inv.conics_barred, pts)), axis=1)
    on_u = np.min(np.abs(eval_forms(inv.conics_unbarred, pts)), axis=1)
    on_barred = (on_b < 1e-6) & (on_u > 1e-4)
    on_unbarred = (on_u < 1e-6) & (on_b > 1e-4)
    if not np.all(on_barred | on_unbarred):
        raise OrbitSizeMismatch("three-fold fixed point on neither/both conic systems")
    orbit60b, orbit60 = unique(pts[on_barred]), unique(pts[on_unbarred])

    sizes = (len(orbit36), len(orbit45), len(orbit60), len(orbit60b), len(orbit72), len(orbit90))
    if sizes != (36, 45, 60, 60, 72, 90):
        raise OrbitSizeMismatch(f"orbit sizes {sizes}")

    arr = np.zeros((15, 15), dtype=bool)
    for (fb, fu) in inv_meta:
        arr[PAIRS15.index(fb), PAIRS15.index(fu)] = True
    if not (np.all(arr.sum(axis=0) == 3) and np.all(arr.sum(axis=1) == 3)):
        raise OrbitSizeMismatch("45-array rows/columns do not have three marks each")
    return OrbitCatalog(orbit36, orbit45, orbit60, orbit60b, orbit72, orbit90,
                        np.array(lines), inv_meta, arr)


def lines_through_45point(catalog, barred_pair, unbarred_pair):
    """The four 45-lines through the point indexed (barred_pair, unbarred_pair).

    Reading along the row and column of the 45-array: the other two marks
    in the row give lines sharing the barred pair, the other two in the
    column give lines sharing the unbarred pair.
    """
    arr = catalog.array45
    r = PAIRS15.index(tuple(sorted(barred_pair)))
    c = PAIRS15.index(tuple(sorted(unbarred_pair)))
    if not arr[r, c]:
        raise KeyError("no involution with those fixed conic pairs")
    row_lines = [(PAIRS15[r], PAIRS15[cc]) for cc in range(15) if arr[r, cc] and cc != c]
    col_lines = [(PAIRS15[rr], PAIRS15[c]) for rr in range(15) if arr[rr, c] and rr != r]
    return row_lines + col_lines


def lines_through_36point(catalog, a, b):
    """The five 45-lines through the 36-point with barred index a, unbarred b."""
    arr = catalog.array45
    out = []
    for r, (p1, p2) in enumerate(PAIRS15):
        if a not in (p1, p2):
            continue
        for c, (q1, q2) in enumerate(PAIRS15):
            if arr[r, c] and b in (q1, q2):
                out.append((PAIRS15[r], PAIRS15[c]))
    return out


def intersection_count_identity():
    """36 C(5,2) + 45 C(4,2) + 60 C(3,2) + 60 C(3,2) == C(45,2)."""
    from math import comb

    return 36 * comb(5, 2) + 45 * comb(4, 2) + 60 * comb(3, 2) + 60 * comb(3, 2) == comb(45, 2)
