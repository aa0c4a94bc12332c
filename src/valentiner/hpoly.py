"""Dense homogeneous polynomial arithmetic in three variables.

A degree-d homogeneous polynomial in (x1, x2, x3) is stored as a flat
coefficient vector over the monomial list exps(d), ordered with the first
exponent descending.  Degree-19 objects have 210 monomials, degree-64 ones
2145, so dense vectors plus precomputed index tables keep every product a
single scatter-add.

The same code paths run on complex128 (default) and on object arrays of
mpmath numbers (high-precision lane); the latter fall back to loops where
numpy ufuncs do not apply.
"""

import numpy as np

# --- monomial bookkeeping ----------------------------------------------------

_EXPS = {}
_IDX = {}
_MULTAB = {}
_DIFFTAB = {}

# entries per block of eval_many's power and monomial tables
_EVAL_BLOCK = 1 << 16


def n_monomials(d):
    return (d + 1) * (d + 2) // 2


def exps(d):
    """(N, 3) array of exponent triples of total degree d, first exponent descending."""
    if d not in _EXPS:
        rows = [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
        _EXPS[d] = np.array(rows, dtype=np.int64)
        _IDX[d] = {tuple(r): t for t, r in enumerate(rows)}
    return _EXPS[d]


def monomial_index(d):
    exps(d)
    return _IDX[d]


def _mul_table(da, db):
    key = (da, db)
    if key not in _MULTAB:
        ea, eb = exps(da), exps(db)
        idx = monomial_index(da + db)
        tab = np.empty((len(ea), len(eb)), dtype=np.int64)
        for a, ra in enumerate(ea):
            for b, rb in enumerate(eb):
                tab[a, b] = idx[(ra[0] + rb[0], ra[1] + rb[1], ra[2] + rb[2])]
        _MULTAB[key] = tab
    return _MULTAB[key]


def _diff_table(d, axis):
    key = (d, axis)
    if key not in _DIFFTAB:
        e = exps(d)
        idx = monomial_index(d - 1)
        src, dst, fac = [], [], []
        for t, row in enumerate(e):
            if row[axis] > 0:
                r = row.copy()
                r[axis] -= 1
                src.append(t)
                dst.append(idx[tuple(r)])
                fac.append(row[axis])
        _DIFFTAB[key] = (np.array(src), np.array(dst), np.array(fac, dtype=np.int64))
    return _DIFFTAB[key]


# --- the polynomial type -----------------------------------------------------

class HPoly:
    """Homogeneous polynomial of fixed degree in three variables."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None, dtype=np.complex128):
        self.degree = int(degree)
        n = n_monomials(self.degree)
        if coeffs is None:
            self.coeffs = np.zeros(n, dtype=dtype)
        else:
            coeffs = np.asarray(coeffs)
            if coeffs.shape != (n,):
                raise ValueError(f"degree-{degree} polynomial needs {n} coefficients")
            self.coeffs = coeffs

    # construction helpers

    @classmethod
    def from_terms(cls, degree, terms, dtype=np.complex128):
        """terms: mapping (i, j, k) -> coefficient."""
        p = cls(degree, dtype=dtype)
        idx = monomial_index(degree)
        for e, c in terms.items():
            p.coeffs[idx[tuple(e)]] += c
        return p

    def terms(self):
        e = exps(self.degree)
        return {tuple(e[t]): self.coeffs[t] for t in range(len(e)) if self.coeffs[t] != 0}

    def copy(self):
        return HPoly(self.degree, self.coeffs.copy())

    @property
    def is_object(self):
        return self.coeffs.dtype == object

    def supnorm(self):
        if len(self.coeffs) == 0:
            return 0.0
        return max(abs(c) for c in self.coeffs) if self.is_object else float(np.max(np.abs(self.coeffs)))

    def cleanup(self, drop_tol=1e-12):
        """Zero out coefficients below drop_tol times the sup norm (in place)."""
        if self.is_object or drop_tol <= 0:
            return self
        s = self.supnorm()
        if s > 0:
            self.coeffs[np.abs(self.coeffs) < drop_tol * s] = 0.0
        return self

    # arithmetic

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        return HPoly(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in subtraction")
        return HPoly(self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return HPoly(self.degree, -self.coeffs)

    def scale(self, s):
        return HPoly(self.degree, self.coeffs * s)

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            return self.scale(other)
        tab = _mul_table(self.degree, other.degree)
        if self.is_object or other.is_object:
            out = np.zeros(n_monomials(self.degree + other.degree), dtype=object)
            ca, cb = self.coeffs, other.coeffs
            for a in range(len(ca)):
                if ca[a] == 0:
                    continue
                row = tab[a]
                va = ca[a]
                for b in range(len(cb)):
                    if cb[b] != 0:
                        out[row[b]] += va * cb[b]
            return HPoly(self.degree + other.degree, out)
        out = np.zeros(n_monomials(self.degree + other.degree), dtype=np.complex128)
        np.add.at(out, tab.ravel(), np.outer(self.coeffs, other.coeffs).ravel())
        return HPoly(self.degree + other.degree, out)

    def pow(self, k):
        if k == 0:
            one = np.array([1], dtype=object) if self.is_object else np.array([1.0 + 0j])
            return HPoly(0, one)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def diff(self, axis):
        src, dst, fac = _diff_table(self.degree, axis)
        out = np.zeros(n_monomials(self.degree - 1), dtype=self.coeffs.dtype)
        out[dst] = self.coeffs[src] * fac
        return HPoly(self.degree - 1, out)

    def grad(self):
        return [self.diff(0), self.diff(1), self.diff(2)]

    # evaluation

    def eval(self, x):
        """Value at one point (3-vector, complex or mpmath scalars)."""
        e = exps(self.degree)
        if self.is_object or not isinstance(x, np.ndarray) or x.dtype == object:
            acc = 0
            for t in range(len(e)):
                c = self.coeffs[t]
                if c == 0:
                    continue
                i, j, k = e[t]
                acc += c * x[0] ** int(i) * x[1] ** int(j) * x[2] ** int(k)
            return acc
        pw = [np.power(x[v], np.arange(self.degree + 1)) for v in range(3)]
        vals = pw[0][e[:, 0]] * pw[1][e[:, 1]] * pw[2][e[:, 2]]
        return complex(self.coeffs @ vals)

    def eval_many(self, pts):
        """Values at an (n, 3) array of points.

        Works over the nonzero monomials only, in the dtype the points and
        coefficients promote to (real points with real coefficients stay
        float64, clongdouble coefficients stay clongdouble), one block of
        points at a time so the power and monomial tables stay bounded.
        """
        pts = np.asarray(pts)
        nz = np.flatnonzero(self.coeffs)
        c = self.coeffs[nz]
        e = exps(self.degree)[nz].T
        d = self.degree
        dtype = np.result_type(pts.dtype, c.dtype, np.float64)
        out = np.empty(len(pts), dtype=dtype)
        step = max(1, _EVAL_BLOCK // max(len(nz), 3 * (d + 1)))
        for lo in range(0, len(pts), step):
            x = np.asarray(pts[lo:lo + step].T, dtype=dtype, order="C")
            pw = np.empty((3, d + 1, x.shape[1]), dtype=dtype)
            pw[:, 0] = 1
            for p in range(1, d + 1):
                np.multiply(pw[:, p - 1], x, out=pw[:, p])
            out[lo:lo + step] = c @ (pw[0, e[0]] * pw[1, e[1]] * pw[2, e[2]])
        return out

    def compose_linear(self, m):
        """P(M x) for a 3x3 matrix M, as an HPoly of the same degree."""
        m = np.asarray(m)
        dtype = object if (self.is_object or m.dtype == object) else np.complex128
        return compose(self, [HPoly(1, np.array(row, dtype=dtype)) for row in m])

    # serialization (schema shared with EquivariantMap)

    def to_json_dict(self):
        e = exps(self.degree)
        terms = []
        for t in range(len(e)):
            c = complex(self.coeffs[t])
            if c != 0:
                terms.append({"e": [int(v) for v in e[t]], "re": c.real, "im": c.imag})
        return {"degree": self.degree, "terms": terms}

    @classmethod
    def from_json_dict(cls, d):
        p = cls(d["degree"])
        idx = monomial_index(d["degree"])
        for t in d["terms"]:
            p.coeffs[idx[tuple(t["e"])]] = t["re"] + 1j * t["im"]
        return p

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs)) if not self.is_object else sum(1 for c in self.coeffs if c != 0)
        return f"HPoly(degree={self.degree}, terms={nz})"


# --- operations on polynomials -----------------------------------------------

def compose(p, maps):
    """p(g1, g2, g3): three equal-degree polynomials substituted for the variables of p."""
    obj = p.is_object or any(g.is_object for g in maps)
    one = HPoly(0, np.ones(1, dtype=object if obj else np.complex128))
    pows = []
    for g in maps:
        ps = [one]
        for _ in range(p.degree):
            ps.append(ps[-1] * g)
        pows.append(ps)
    d = p.degree * maps[0].degree
    out = np.zeros(n_monomials(d), dtype=one.coeffs.dtype)
    for c, (i, j, k) in zip(p.coeffs, exps(p.degree)):
        if c != 0:
            out = out + c * (pows[0][i] * pows[1][j] * pows[2][k]).coeffs
    return HPoly(d, out)


def det3(rows):
    """Determinant of a 3x3 matrix of HPoly entries."""
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return (a * (e * i - f * h) - b * (d * i - f * g)) + c * (d * h - e * g)


def hessian_matrix(p):
    return [[p.diff(r).diff(c) for c in range(3)] for r in range(3)]


def hessian_det(p):
    """|H(P)|, degree 3(d - 2)."""
    return det3(hessian_matrix(p))


def bordered_hessian_det(p, q):
    """Determinant of H(P) bordered by grad Q: degree 2(deg P - 2) + 2(deg Q - 1).

    The 4x4 block determinant is expanded as
    |H b; b^t 0| = -b^t adj(H) b, which keeps every entry a plain product.
    Hessian of the first argument, border from the second: the convention
    that carries the degree-6 invariant to the published degree-30 one
    under the stated 1/24300 normalization.
    """
    h = hessian_matrix(p)
    b = q.grad()
    # adj(H)_{ij} = cofactor_{ji}; H symmetric so adj is symmetric too
    acc = None
    for i in range(3):
        for j in range(3):
            rows = [[h[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
            minor = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            sgn = 1 if (i + j) % 2 == 0 else -1
            term = (b[i] * b[j] * minor).scale(-sgn)
            acc = term if acc is None else acc + term
    return acc


def jacobian_det(p, q, r):
    """|J(P, Q, R)|, degree (dP - 1) + (dQ - 1) + (dR - 1)."""
    return det3([p.grad(), q.grad(), r.grad()])


def grad_cross(p, q):
    """The map grad P x grad Q, components of the 2-form dP ^ dQ."""
    gp, gq = p.grad(), q.grad()
    return EquivariantMap([
        gp[1] * gq[2] - gp[2] * gq[1],
        gp[2] * gq[0] - gp[0] * gq[2],
        gp[0] * gq[1] - gp[1] * gq[0],
    ])


# --- equivariant maps ----------------------------------------------------------

class EquivariantMap:
    """A self-map of CP^2 given by three equal-degree homogeneous components."""

    __slots__ = ("components", "degree")

    def __init__(self, components):
        if len(components) != 3:
            raise ValueError("need three components")
        degs = {c.degree for c in components}
        if len(degs) != 1:
            raise ValueError("components must share one degree")
        self.components = list(components)
        self.degree = components[0].degree

    def __call__(self, x):
        obj = (isinstance(x, np.ndarray) and x.dtype == object) or self.components[0].is_object
        if not obj:
            x = np.asarray(x, dtype=complex)
        out = [c.eval(x) for c in self.components]
        return np.array(out, dtype=object if obj else complex)

    def eval_many(self, pts):
        return np.stack([c.eval_many(pts) for c in self.components], axis=1)

    def __add__(self, other):
        return EquivariantMap([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return EquivariantMap([a - b for a, b in zip(self.components, other.components)])

    def scale(self, s):
        return EquivariantMap([c.scale(s) for c in self.components])

    def jacobian_matrix(self):
        return [[c.diff(v) for v in range(3)] for c in self.components]

    def jacobian_det(self):
        return det3(self.jacobian_matrix())

    def jacobian_at(self, x):
        x = np.asarray(x, dtype=complex)
        return np.array([[self.components[r].diff(c).eval(x) for c in range(3)] for r in range(3)])

    def to_json_dict(self):
        return {"degree": self.degree, "components": [c.to_json_dict() for c in self.components]}

    @classmethod
    def from_json_dict(cls, d):
        return cls([HPoly.from_json_dict(c) for c in d["components"]])

    def __repr__(self):
        return f"EquivariantMap(degree={self.degree})"


def identity_times(poly):
    """The map poly(x) * [x1, x2, x3]."""
    d = poly.degree
    x1 = HPoly.from_terms(1, {(1, 0, 0): 1.0})
    x2 = HPoly.from_terms(1, {(0, 1, 0): 1.0})
    x3 = HPoly.from_terms(1, {(0, 0, 1): 1.0})
    return EquivariantMap([poly * x1, poly * x2, poly * x3])
