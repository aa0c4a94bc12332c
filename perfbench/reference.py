"""Reference computations and statistics that the benchmark checks against.

Nothing here calls the solver, the selector tables or the basin renderers:
the published sextics are written out again, their roots come from
numpy.roots, the closed-form roots come straight from the invariant forms,
and the census of A6 is a known constant.
"""

import math
import statistics

import numpy as np

SQ15 = math.sqrt(15.0)

# A6 conjugacy classes by element order: 1 + 45 + 80 + 90 + 144 = 360.
A6_ORDER_CENSUS = {1: 1, 2: 45, 3: 80, 4: 90, 5: 144}

# Unit factor that makes the six cubed conics reproduce R_Y exactly.
U_SCALE = (9 - 1j * SQ15) / 144

ROOT_REL_TOL = 1e-8        # against numpy.roots of the published sextic
CLOSED_FORM_REL_TOL = 1e-5  # against the closed-form roots (criterion 9)


def sextic_general(y1, y2):
    """Monic coefficients [1, c5, ..., c0] of the published R_Y(u)."""
    i15 = 1j * SQ15
    return np.array([
        1.0,
        (-5 + i15) / 90,
        (11 * (1 - i15) - 3 * (3 + i15) * y1) / (2 ** 2 * 3 ** 5 * 5 ** 2),
        ((100 + 57 * i15) + 9 * (30 + i15) * y1) / (3 ** 9 * 5 ** 4),
        (-(152 + 17 * i15) + 18 * (-21 + 4 * i15) * y1 + 27 * (-4 + i15) * y1 ** 2)
        / (2 ** 2 * 3 ** 11 * 5 ** 5),
        ((425 + 103 * i15) + 6 * (75 + 193 * i15) * y1 + 27 * (-25 + 33 * i15) * y1 ** 2
         - 7776 * i15 * y2) / (2 ** 3 * 3 ** 14 * 5 ** 8),
        (-(5 + 3 * i15) + 9 * (15 - 7 * i15) * y1 + 81 * (25 - i15) * y1 ** 2
         + 81 * (45 + 11 * i15) * y1 ** 3) / (2 ** 4 * 3 ** 18 * 5 ** 8),
    ])


def sextic_special(v):
    """Monic coefficients [1, c5, ..., c0] of the published T_V(s).

    The s^4 coefficient carries a plus sign: the product of the six
    closed-form roots forces it (the published display prints a minus).
    """
    i15 = 1j * SQ15
    return np.array([
        1.0,
        0j,
        ((-3 + i15) / (2 ** 5 * 3 ** 3 * 5 ** 2)) * v,
        0j,
        -((4 + i15) / (2 ** 8 * 3 ** 6 * 5 ** 5)) * v ** 2,
        (i15 / (2 ** 6 * 3 ** 7 * 5 ** 8)) * v ** 2,
        ((45 - 11 * i15) / (2 ** 13 * 3 ** 11 * 5 ** 8)) * v ** 3,
    ])


def closed_form_roots_general(inv, z):
    """U_n = U_SCALE C_n(z)^3 / F(z) over the unbarred conics."""
    f = inv.F.eval(z)
    return np.array([U_SCALE * c.eval(z) ** 3 / f for c in inv.conics_unbarred])


def closed_form_roots_special(inv, z):
    """S_n = Phi(z)^2 C_n(z)^3 / Psi(z) over the barred conics, z on {F = 0}."""
    phi2 = inv.Phi.eval(z) ** 2
    psi = inv.Psi.eval(z)
    return np.array([phi2 * c.eval(z) ** 3 / psi for c in inv.conics_barred])


def check_root(root, coeffs, closed_form):
    """Reasons a solver root is wrong; an empty list means it passed.

    The root must lie within ROOT_REL_TOL (relative) of a numpy.roots root
    of the monic sextic, and within CLOSED_FORM_REL_TOL of one of the six
    closed-form roots, scaled as acceptance criterion 9 scales it.
    """
    root = complex(root)
    if not (math.isfinite(root.real) and math.isfinite(root.imag)):
        return ["root is not finite"]
    bad = []
    ref = np.roots(coeffs)
    err = float(np.min(np.abs(ref - root))) / max(abs(root), 1e-300)
    if not err < ROOT_REL_TOL:
        bad.append(f"numpy.roots mismatch {err:.2e}")
    scale = max(float(np.mean(np.abs(closed_form))), abs(root))
    match = float(np.min(np.abs(closed_form - root))) / scale
    if not match < CLOSED_FORM_REL_TOL:
        bad.append(f"closed-form mismatch {match:.2e}")
    return bad


def projective_order(m, max_order=12, tol=1e-7):
    """Least k with m^k a scalar matrix."""
    m = np.asarray(m, dtype=complex)
    p = np.eye(3, dtype=complex)
    for k in range(1, max_order + 1):
        p = p @ m
        off = p - np.diag(np.diag(p))
        d = np.diag(p)
        if np.max(np.abs(off)) < tol and np.max(np.abs(d - d[0])) < tol:
            return k
    return None


def order_census(projective):
    counts = {}
    for m in projective:
        k = projective_order(m)
        counts[k] = counts.get(k, 0) + 1
    return counts


def rotation_mismatch(src, dst, n_labels):
    """Share of cells whose labels disagree after the best label permutation.

    src and dst label the same cells, dst at the rotated cell centers; -1
    marks cells that did not converge and is left out.  The permutation is
    taken by majority vote per source label.
    """
    ok = (src >= 0) & (dst >= 0)
    perm = np.full(n_labels, -2)
    for k in range(n_labels):
        sel = ok & (src == k)
        if np.any(sel):
            vals, counts = np.unique(dst[sel], return_counts=True)
            perm[k] = vals[np.argmax(counts)]
    mismatch = ok & (dst != perm[np.clip(src, 0, n_labels - 1)])
    return float(np.sum(mismatch)) / max(1, int(np.sum(ok)))


def p90(samples):
    """(value, n) of the 90th percentile, or None when fewer than ten
    samples would lie beyond it (fewer than 100 samples)."""
    n = len(samples)
    if n < 100:
        return None
    return statistics.quantiles(samples, n=10)[-1], n


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals.  spans: list of (start, end, parent_index)."""
    children = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start, spans[c][0]), min(end, spans[c][1]))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
