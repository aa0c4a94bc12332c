"""Molien and exterior Molien series for the lifted Valentiner groups.

The plain series counts invariant polynomials by degree; the exterior
variant grades invariant p-forms by (rank, degree).  Sums run over all
group elements (1080 for the unit-determinant lift, 2160 for its +-1
extension, 60/120 for the ternary icosahedral pair): class bookkeeping is
not worth the risk at this size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonIntegerDimension, NotPolynomial
from .group import closure, enumerate_group, generators_octahedral


@dataclass
class MolienTable:
    group: str
    max_degree: int
    invariant_dims: list          # index = degree
    exterior_dims: list           # [p][degree] for p = 0..3

    def series_string(self, p=None):
        dims = self.invariant_dims if p is None else self.exterior_dims[p]
        parts = []
        for m, d in enumerate(dims):
            if d == 0:
                continue
            coef = "" if d == 1 else f"{d} "
            term = "1" if m == 0 else ("t" if m == 1 else f"t^{m}")
            parts.append(f"{coef}{term}" if m else f"{d}")
        return " + ".join(parts) if parts else "0"


def _char_poly_coeffs(m):
    """e1, e2, e3 of the eigenvalues of m (3x3)."""
    e1 = np.trace(m)
    e2 = 0.5 * (e1 * e1 - np.trace(m @ m))
    e3 = np.linalg.det(m)
    return e1, e2, e3


def _inv_series_coeffs(minv, nmax):
    """Taylor coefficients of 1/det(I - t minv) up to degree nmax."""
    e1, e2, e3 = _char_poly_coeffs(minv)
    a = np.zeros(nmax + 1, dtype=complex)
    a[0] = 1.0
    for m in range(1, nmax + 1):
        v = e1 * a[m - 1]
        if m >= 2:
            v -= e2 * a[m - 2]
        if m >= 3:
            v += e3 * a[m - 3]
        a[m] = v
    return a


def group_elements(group_id):
    """Unit-determinant model matrices for the supported groups."""
    if group_id in ("v3x360", "v6x360"):
        lift = enumerate_group().lift
        if group_id == "v6x360":
            lift = np.concatenate([lift, -lift], axis=0)
        return lift
    if group_id in ("icosa60", "icosa120"):
        gens = generators_octahedral()
        out, _ = closure({k: gens[k] for k in ("Z", "T", "P")}, 60)
        if group_id == "icosa120":
            out = np.concatenate([out, -out], axis=0)
        return out
    raise ValueError(f"unknown group {group_id}")


def molien_series(group_id, max_degree=48):
    """Dimension of degree-m invariants for m = 0..max_degree."""
    return exterior_molien(group_id, max_degree).invariant_dims


def exterior_molien(group_id, max_degree=48):
    """MolienTable with exterior dims [p][m] and the 0-form row as invariant_dims."""
    elems = group_elements(group_id)
    acc = np.zeros((4, max_degree + 1), dtype=complex)
    for t in elems:
        minv = np.linalg.inv(t)
        base = _inv_series_coeffs(minv, max_degree)
        e1, e2, e3 = _char_poly_coeffs(minv)
        acc[0] += base
        acc[1] += e1 * base
        acc[2] += e2 * base
        acc[3] += e3 * base
    acc /= len(elems)
    dims = []
    for p in range(4):
        row = []
        for m in range(max_degree + 1):
            r = round(acc[p, m].real)
            if abs(acc[p, m] - r) > 1e-6:
                raise NonIntegerDimension(f"p={p} degree {m}: {acc[p, m]}")
            row.append(int(r))
        dims.append(row)
    return MolienTable(group_id, max_degree, dims[0], dims)


def molien_quotient(sub_table, denominator_degrees):
    """Multiply the exterior series by prod_d (1 - t^d).

    denominator_degrees are the basic invariant degrees of the ambient
    reflection group (6, 12, 30 for the Valentiner case; 2, 6, 10 for the
    icosahedral one), whose Molien series is the closed-form product
    1 / prod (1 - t^d).  The result is exact for every degree up to the
    table's max_degree and must be a 0/1 polynomial there.
    """
    out = []
    for p in range(4):
        row = np.array(sub_table.exterior_dims[p], dtype=np.int64)
        for d in denominator_degrees:
            nxt = row.copy()
            nxt[d:] -= row[:-d]
            row = nxt
        out.append([int(v) for v in row])
    return out


def quotient_degree_lists(group="valentiner", max_degree=48):
    """Degrees with nonzero quotient coefficient, per form rank 0..3."""
    if group == "valentiner":
        table = exterior_molien("v3x360", max_degree)
        dens = (6, 12, 30)
    elif group == "icosahedral":
        table = exterior_molien("icosa60", max_degree)
        dens = (2, 6, 10)
    else:
        raise ValueError(group)
    q = molien_quotient(table, dens)
    lists = []
    for p in range(4):
        got = [m for m in range(max_degree + 1) if q[p][m] != 0]
        bad = [m for m in range(max_degree + 1) if q[p][m] < 0 or q[p][m] > 1]
        if bad:
            raise NotPolynomial(f"rank {p}: non 0/1 coefficients at {bad}")
        lists.append(got)
    return lists, q, max_degree
