"""Special orbits of the Valentiner action and the 45-array combinatorics.

Orbit points come from eigenvectors of group elements (exact linear
algebra); invariant vanishing is used as the certificate and classifier,
never as the construction.  Sizes: 36, 45, 60, 60, 72, 90.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OrbitSizeMismatch
from .group import _proj_order
from .projective import fs_distance, normalize_point

_DEDUP_TOL = 1e-8


def _add_unique(acc, p):
    for q in acc:
        if fs_distance(p, q) < _DEDUP_TOL:
            return False
    acc.append(p)
    return True


def _eigen_points(m):
    w, v = np.linalg.eig(m)
    return w, [normalize_point(v[:, i]) for i in range(3)]


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


def special_orbits(table, inv, tol=1e-7):
    """OrbitCatalog from the projective group table and the invariant system.

    table must be in the same frame as inv.  The 72/36 points are the
    eigenvectors of five-fold elements (off-conic pole = 36), the 45
    points and lines come from involutions, 90 from four-fold elements,
    and the sixty-point orbits from three-fold elements classified by
    which conic system vanishes at them.
    """
    f_scale = inv.F.supnorm()
    phi_scale = inv.Phi.supnorm()

    def f_small(p):
        return abs(inv.F.eval(p)) < 1e-6 * f_scale

    orbit36, orbit45, orbit60, orbit60b, orbit72, orbit90 = [], [], [], [], [], []
    lines, inv_meta = [], []
    barred = inv.conics_barred
    unbarred = inv.conics_unbarred
    from .group import conic_permutation

    by_order = {2: [], 3: [], 4: [], 5: []}
    for m in table.projective:
        k = _proj_order(m)
        if k in by_order:
            by_order[k].append(m)

    for m in by_order[2]:
        w, v = np.linalg.eig(m)
        # one simple eigenvalue (the fixed point), one double (the line)
        d = [abs(w[0] - w[1]), abs(w[0] - w[2]), abs(w[1] - w[2])]
        pair = int(np.argmin(d))
        simple = {0: 2, 1: 1, 2: 0}[pair]
        p = normalize_point(v[:, simple])
        if _add_unique(orbit45, p):
            dbl = [i for i in range(3) if i != simple]
            ell = np.cross(v[:, dbl[0]], v[:, dbl[1]])
            lines.append(normalize_point(ell))
            pb, _ = conic_permutation(barred, m)
            pu, _ = conic_permutation(unbarred, m)
            fixed_b = tuple(sorted(i + 1 for i in range(6) if pb[i] == i))
            fixed_u = tuple(sorted(i + 1 for i in range(6) if pu[i] == i))
            inv_meta.append((fixed_b, fixed_u))

    for m in by_order[5]:
        w, pts = _eigen_points(m)
        for p in pts:
            if f_small(p) and abs(inv.Phi.eval(p)) < 1e-6 * phi_scale:
                _add_unique(orbit72, p)
            else:
                _add_unique(orbit36, p)

    for m in by_order[4]:
        w, pts = _eigen_points(m)
        for p in pts:
            if all(fs_distance(p, q) > _DEDUP_TOL for q in orbit45):
                _add_unique(orbit90, p)

    for m in by_order[3]:
        w, pts = _eigen_points(m)
        for p in pts:
            on_b = min(abs(c.eval(p)) for c in barred)
            on_u = min(abs(c.eval(p)) for c in unbarred)
            if on_b < 1e-6 and on_u > 1e-4:
                _add_unique(orbit60b, p)
            elif on_u < 1e-6 and on_b > 1e-4:
                _add_unique(orbit60, p)
            else:
                raise OrbitSizeMismatch("three-fold fixed point on neither/both conic systems")

    sizes = (len(orbit36), len(orbit45), len(orbit60), len(orbit60b), len(orbit72), len(orbit90))
    if sizes != (36, 45, 60, 60, 72, 90):
        raise OrbitSizeMismatch(f"orbit sizes {sizes}")

    arr = np.zeros((15, 15), dtype=bool)
    pairs = [tuple(sorted((a, b))) for a in range(1, 7) for b in range(a + 1, 7)]
    for (fb, fu) in inv_meta:
        arr[pairs.index(fb), pairs.index(fu)] = True
    if not (np.all(arr.sum(axis=0) == 3) and np.all(arr.sum(axis=1) == 3)):
        raise OrbitSizeMismatch("45-array rows/columns do not have three marks each")
    return OrbitCatalog(
        np.array(orbit36), np.array(orbit45), np.array(orbit60),
        np.array(orbit60b), np.array(orbit72), np.array(orbit90),
        np.array(lines), inv_meta, arr,
    )


PAIRS15 = [tuple(sorted((a, b))) for a in range(1, 7) for b in range(a + 1, 7)]


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
