"""Dense homogeneous polynomials in three variables, over any coefficient ring.

A degree-d homogeneous polynomial in (x1, x2, x3) is stored as a flat
coefficient vector over the monomial list exps(d), in lex order (first
exponent descending, then second).  Degree-19 objects have 210 monomials,
degree-64 ones 2145.

The coefficient dtype chooses the ring: complex128 (default), clongdouble
or float64 for the numeric lanes, and object arrays for exact and
high-precision work (Python ints, Fraction or mpmath numbers).  Every
operation runs the same code on every dtype; products multiply only the
nonzero coefficients of each factor.

eval_forms is the one batch evaluator: it evaluates any number of forms
at the same points in one pass, sharing the power table and the monomial
gathers.  HPoly.eval_many and EquivariantMap.eval_many call it, and so does
every caller that needs several forms at the same points.
"""

from fractions import Fraction

import numpy as np

# --- monomial bookkeeping ----------------------------------------------------

_EXPS = {}
_DIFFTAB = {}

# entries per block of eval_forms' power and monomial tables
_EVAL_BLOCK = 1 << 16


def n_monomials(d):
    return (d + 1) * (d + 2) // 2


def exps(d):
    """(N, 3) array of exponent triples of total degree d, in lex order."""
    if d not in _EXPS:
        a = np.repeat(np.arange(d + 1), np.arange(1, d + 2))     # a = d - i
        j = a - (np.arange(n_monomials(d)) - a * (a + 1) // 2)
        _EXPS[d] = np.stack([d - a, j, a - j], axis=1)
    return _EXPS[d]


def monomial_index(d, e):
    """Position of exponent triple(s) e (last axis) in exps(d): a(a+1)/2 + a - j, a = d - i."""
    e = np.asarray(e)
    a = d - e[..., 0]
    return a * (a + 1) // 2 + a - e[..., 1]


def _diff_table(d, axis):
    key = (d, axis)
    if key not in _DIFFTAB:
        e = exps(d)
        src = np.flatnonzero(e[:, axis])
        lowered = e[src] - np.eye(3, dtype=np.int64)[axis]
        _DIFFTAB[key] = (src, monomial_index(d - 1, lowered), e[src, axis])
    return _DIFFTAB[key]


def diff_coeffs(coeffs, d, axis):
    """d/dx_axis of degree-d forms given as coefficient rows (last axis)."""
    src, dst, fac = _diff_table(d, axis)
    out = np.zeros(coeffs.shape[:-1] + (n_monomials(d - 1),), dtype=coeffs.dtype)
    # gather and scatter on the leading axis of the transposes: for a single
    # form (HPoly.diff) that is plain 1-D indexing, numpy's fastest path
    out.T[dst] = (coeffs.T[src].T * fac).T
    return out


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
        for e, c in terms.items():
            p.coeffs[monomial_index(degree, e)] += c
        return p

    def terms(self):
        """Mapping (i, j, k) -> coefficient over the nonzero coefficients."""
        return {tuple(e): c for e, c in zip(exps(self.degree).tolist(), self.coeffs) if c}

    def astype(self, dtype):
        return HPoly(self.degree, self.coeffs.astype(dtype))

    @property
    def is_object(self):
        return self.coeffs.dtype == object

    def supnorm(self):
        if len(self.coeffs) == 0:
            return 0.0
        return max(abs(c) for c in self.coeffs) if self.is_object else float(np.max(np.abs(self.coeffs)))

    def cleanup(self):
        """Zero out coefficients below 1e-12 times the sup norm (in place)."""
        if self.is_object:
            return self
        s = self.supnorm()
        if s > 0:
            self.coeffs[np.abs(self.coeffs) < 1e-12 * s] = 0.0
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
        """Product in the promoted dtype of both factors, over their nonzero coefficients."""
        if not isinstance(other, HPoly):
            return self.scale(other)
        d = self.degree + other.degree
        a, b = self.coeffs.nonzero()[0], other.coeffs.nonzero()[0]
        # monomial_index is additive up to a cross term: the product of the
        # monomials at positions p, q sits at p + q + (da - i_p)(db - i_q)
        idx = (self.degree - exps(self.degree)[a, 0])[:, None] * (other.degree - exps(other.degree)[b, 0])
        idx += a[:, None]
        idx += b
        out = np.zeros(n_monomials(d), dtype=np.result_type(self.coeffs, other.coeffs))
        # np.outer, not a broadcast product, which can round differently in the last bit
        np.add.at(out, idx.ravel(), np.outer(self.coeffs[a], other.coeffs[b]).ravel())
        return HPoly(d, out)

    def pow(self, k):
        out = HPoly(0, np.ones(1, dtype=self.coeffs.dtype))
        for _ in range(k):
            out = out * self
        return out

    def diff(self, axis):
        return HPoly(self.degree - 1, diff_coeffs(self.coeffs, self.degree, axis))

    def grad(self):
        return [self.diff(0), self.diff(1), self.diff(2)]

    # evaluation

    def eval(self, x):
        """Value at one point.

        A numeric point with numeric coefficients is evaluated by numpy.
        Otherwise (object coefficients or point: ints, Fraction, mpmath)
        each coordinate's powers are built by repeated multiplication, so
        the value stays in the inputs' ring.
        """
        e = exps(self.degree)
        if self.is_object or not isinstance(x, np.ndarray) or x.dtype == object:
            pw = []
            for v in range(3):
                p = [1]
                for _ in range(self.degree):
                    p.append(p[-1] * x[v])
                pw.append(p)
            acc = 0
            for c, (i, j, k) in zip(self.coeffs, e.tolist()):
                if c:
                    acc = acc + c * pw[0][i] * pw[1][j] * pw[2][k]
            return acc
        pw = [np.power(x[v], np.arange(self.degree + 1)) for v in range(3)]
        vals = pw[0][e[:, 0]] * pw[1][e[:, 1]] * pw[2][e[:, 2]]
        return complex(self.coeffs @ vals)

    def eval_many(self, pts):
        """Values at an (n, 3) array of points (see eval_forms)."""
        return eval_forms([self], pts)[:, 0]

    def compose_linear(self, m):
        """P(M x) for a 3x3 matrix M, as an HPoly of the same degree."""
        m = np.asarray(m)
        dtype = object if (self.is_object or m.dtype == object) else np.complex128
        one = HPoly(0, np.ones(1, dtype=dtype))
        pows = []                       # pows[v][k] = (row v of M . x)^k
        for row in m:
            ps = [one, HPoly(1, np.array(row, dtype=dtype))]
            while len(ps) <= self.degree:
                ps.append(ps[-1] * ps[1])
            pows.append(ps)
        out = np.zeros(n_monomials(self.degree), dtype=dtype)
        for c, e in zip(self.coeffs, exps(self.degree)):
            if c != 0:
                factors = [pows[v][k] for v, k in enumerate(e) if k] or [one]
                term = factors[0]
                for f in factors[1:]:
                    term = term * f
                out = out + c * term.coeffs
        return HPoly(self.degree, out)

    # serialization (schema shared with EquivariantMap)

    def to_json_dict(self):
        terms = [{"e": list(e), "re": complex(c).real, "im": complex(c).imag}
                 for e, c in self.terms().items()]
        return {"degree": self.degree, "terms": terms}

    @classmethod
    def from_json_dict(cls, d):
        return cls.from_terms(d["degree"], {tuple(t["e"]): t["re"] + 1j * t["im"] for t in d["terms"]})

    def __repr__(self):
        return f"HPoly(degree={self.degree}, terms={len(np.flatnonzero(self.coeffs))})"


# --- operations on polynomials -----------------------------------------------

def eval_forms(forms, pts):
    """Values of several forms at an (n, 3) array of points, as an (n, len(forms)) array.

    Works over the nonzero monomials only, in the dtype the points and
    coefficients promote to (real points with real coefficients stay
    float64, clongdouble coefficients stay clongdouble), one block of
    points at a time so the power and monomial tables stay bounded (one
    allocation per call, reused by every block as contiguous slices).  Each
    block builds one power table up to the largest degree and gathers the
    monomials of every form with one np.take per coordinate; each form then
    contracts its own rows of the monomial table.
    """
    pts = np.asarray(pts)
    nzs = [np.flatnonzero(f.coeffs) for f in forms]
    coefs = [f.coeffs[nz] for f, nz in zip(forms, nzs)]
    e = np.concatenate([exps(f.degree)[nz] for f, nz in zip(forms, nzs)]).T
    rows = np.cumsum([0] + [len(nz) for nz in nzs]).tolist()
    d, m = max(f.degree for f in forms), rows[-1]
    dtype = np.result_type(pts.dtype, *(c.dtype for c in coefs), np.float64)
    # form-major, so each form's values fill one contiguous row
    out = np.empty((len(forms), len(pts)), dtype=dtype)
    step = max(1, _EVAL_BLOCK // max(m, 3 * (d + 1)))
    n = min(step, len(pts))
    pw_buf, mono_buf = np.empty(3 * (d + 1) * n, dtype), np.empty((2, m * n), dtype)
    for lo in range(0, len(pts), step):
        x = np.asarray(pts[lo:lo + step].T, dtype=dtype, order="C")
        k = x.shape[1]
        pw = pw_buf[:3 * (d + 1) * k].reshape(3, d + 1, k)
        pw[:, 0] = 1
        for p in range(1, d + 1):
            np.multiply(pw[:, p - 1], x, out=pw[:, p])
        mono, fac = (b[:m * k].reshape(m, k) for b in mono_buf)
        np.take(pw[0], e[0], axis=0, out=mono, mode="clip")
        for v in (1, 2):
            np.multiply(mono, np.take(pw[v], e[v], axis=0, out=fac, mode="clip"), out=mono)
        for j, c in enumerate(coefs):
            out[j, lo:lo + step] = c @ mono[rows[j]:rows[j + 1]]
    return out.T


def _ring_div(a, b):
    """a / b, staying in the integers when both are ints and b divides a."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


def divide_exact(n, d):
    """The quotient n / d by lex-ordered reduction; ArithmeticError if d does not divide n.

    A single divisor is a Groebner basis of the ideal it generates, so while
    d divides n every leading term of the remainder is a multiple of d's
    leading term, and the first one that is not proves that d does not
    divide n.
    """
    ed = exps(d.degree)
    nz = np.flatnonzero(d.coeffs)
    if n.degree < d.degree or len(nz) == 0:
        raise ArithmeticError(f"a degree-{d.degree} form cannot divide a degree-{n.degree} one")
    lead, cd = ed[nz[0]], d.coeffs[nz[0]]
    rem = n.coeffs.copy()
    q = HPoly(n.degree - d.degree, dtype=np.result_type(n.coeffs, d.coeffs))
    for t, e in enumerate(exps(n.degree) - lead):
        if not rem[t]:
            continue
        if e.min() < 0:
            raise ArithmeticError(f"not divisible: remainder term {tuple((e + lead).tolist())}")
        c = _ring_div(rem[t], cd)
        q.coeffs[monomial_index(q.degree, e)] = c
        idx = monomial_index(n.degree, e + ed[nz])
        rem[idx] = rem[idx] - c * d.coeffs[nz]
    return q


def restrict_line(p):
    """Coefficients of p(1, 1, s), indexed by the power of s.

    This is p on the mirror line y1 = y2, where p(t, t, s) has coefficient
    t^(d - k) on s^k; the coefficients stay in p's ring.
    """
    out = np.zeros(p.degree + 1, dtype=p.coeffs.dtype)
    np.add.at(out, exps(p.degree)[:, 2], p.coeffs)
    return out


def det3(rows):
    """Determinant of a 3x3 matrix of HPoly entries or scalars."""
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return (a * (e * i - f * h) - b * (d * i - f * g)) + c * (d * h - e * g)


def adj3(m):
    """Adjugates of 3x3 matrices stacked over the leading axes."""
    a = np.array([1, 2, 0])
    b = np.array([2, 0, 1])
    # adj[i, j] = m[a_j, a_i] m[b_j, b_i] - m[a_j, b_i] m[b_j, a_i]
    return (m[..., a[None, :], a[:, None]] * m[..., b[None, :], b[:, None]]
            - m[..., a[None, :], b[:, None]] * m[..., b[None, :], a[:, None]])


def inv3(m):
    """Inverse of a 3x3 matrix: np.linalg.inv for numeric dtypes, adjugate over
    determinant for object arrays (Fraction, mpmath), which np.linalg cannot take."""
    m = np.asarray(m)
    if m.dtype != object:
        return np.linalg.inv(m)
    adj = adj3(m)
    return adj / (m[0] @ adj[:, 0])


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
        return eval_forms(self.components, pts)

    def __add__(self, other):
        return EquivariantMap([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return EquivariantMap([a - b for a, b in zip(self.components, other.components)])

    def jacobian_matrix(self):
        return [[c.diff(v) for v in range(3)] for c in self.components]

    def jacobian_det(self):
        return det3(self.jacobian_matrix())

    def to_json_dict(self):
        return {"degree": self.degree, "components": [c.to_json_dict() for c in self.components]}

    @classmethod
    def from_json_dict(cls, d):
        return cls([HPoly.from_json_dict(c) for c in d["components"]])

    def __repr__(self):
        return f"EquivariantMap(degree={self.degree})"


def identity_times(poly):
    """The map poly(x) * [x1, x2, x3], in poly's dtype."""
    return EquivariantMap([poly * HPoly(1, row) for row in np.eye(3, dtype=poly.coeffs.dtype)])
