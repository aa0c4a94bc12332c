"""Exact sparse polynomial arithmetic over the rationals.

In the special real coordinate frame the basic invariants and the canonical
degree-19 map all have integer coefficients, so the entire chain
F -> Hessian -> bordered Hessian -> Jacobian -> degree-64 combination ->
division by the degree-45 form can be carried out exactly with Python
integers.  This removes every floating-point question from the reference
tables; the fast numpy lane is then checked against these.

Polynomials are dicts mapping exponent triples to Fraction/int coefficients.
"""

from fractions import Fraction


class Q15:
    """The field Q(sqrt(-15)): numbers a + b*w with w^2 = -15, exact rationals a, b.

    Conic coefficients and the barred/unbarred split live here; the basic
    invariants themselves are plain integers in the special real frame.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return Q15(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q15(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-(o if isinstance(o, Q15) else Q15(o)))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return Q15(self.a * o.a - 15 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a + 15 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("Q15 division by zero")
        return Q15(self.a / n, -self.b / n)

    def __truediv__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return self * o.inverse()

    def __rtruediv__(self, o):
        return Q15(o) * self.inverse()

    def conj(self):
        return Q15(self.a, -self.b)

    def __eq__(self, o):
        o = o if isinstance(o, Q15) else Q15(o)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Q15({self.a}, {self.b})"


# --- basic ops ---------------------------------------------------------------


def xadd(p, q):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def xscale(p, s):
    if s == 0:
        return {}
    return {e: c * s for e, c in p.items()}


def xmul(p, q):
    out = {}
    for (a1, a2, a3), ca in p.items():
        for (b1, b2, b3), cb in q.items():
            e = (a1 + b1, a2 + b2, a3 + b3)
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def xpow(p, k):
    out = {(0, 0, 0): 1}
    base = p
    while k:
        if k & 1:
            out = xmul(out, base)
        base = xmul(base, base) if k > 1 else base
        k >>= 1
    return out


def xdiff(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis] > 0:
            f = list(e)
            f[axis] -= 1
            out[tuple(f)] = c * e[axis]
    return out


def xgrad(p):
    return [xdiff(p, 0), xdiff(p, 1), xdiff(p, 2)]


def xdet3(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    t1 = xmul(a, xadd(xmul(e, i), xscale(xmul(f, h), -1)))
    t2 = xmul(b, xadd(xmul(d, i), xscale(xmul(f, g), -1)))
    t3 = xmul(c, xadd(xmul(d, h), xscale(xmul(e, g), -1)))
    return xadd(xadd(t1, xscale(t2, -1)), t3)


def xhessian(p):
    g = xgrad(p)
    return [[xdiff(g[r], c) for c in range(3)] for r in range(3)]


def xhessian_det(p):
    return xdet3(xhessian(p))


def xbordered_hessian_det(p, q):
    """det of H(p) bordered by grad q, via -b^t adj(H) b.

    This argument convention (Hessian of the first form, border from the
    second) is the one that reproduces the published degree-30 invariant
    with its stated normalization 1/24300.
    """
    h = xhessian(p)
    b = xgrad(q)
    acc = {}
    for i in range(3):
        for j in range(3):
            rows = [[h[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
            minor = xadd(xmul(rows[0][0], rows[1][1]), xscale(xmul(rows[0][1], rows[1][0]), -1))
            sgn = -1 if (i + j) % 2 == 0 else 1
            acc = xadd(acc, xscale(xmul(xmul(b[i], b[j]), minor), sgn))
    return acc


def xjacobian_det(p, q, r):
    return xdet3([xgrad(p), xgrad(q), xgrad(r)])


def xgrad_cross(p, q):
    gp, gq = xgrad(p), xgrad(q)
    return [
        xadd(xmul(gp[1], gq[2]), xscale(xmul(gp[2], gq[1]), -1)),
        xadd(xmul(gp[2], gq[0]), xscale(xmul(gp[0], gq[2]), -1)),
        xadd(xmul(gp[0], gq[1]), xscale(xmul(gp[1], gq[0]), -1)),
    ]


def xdivide_scalar(p, s):
    """Divide by a rational scalar, demanding integer results stay integers."""
    out = {}
    for e, c in p.items():
        v = Fraction(c, 1) / Fraction(s, 1)
        out[e] = int(v) if v.denominator == 1 else v
    return out


def xdivide_exact(n, d):
    """Exact division n / d by lex-ordered reduction.

    A single divisor is a Groebner basis of the ideal it generates, so when
    d divides n the reduction terminates with an empty residue; leading
    terms not reducible by d's leading monomial are parked as residue and
    must all cancel by the end, otherwise ArithmeticError is raised.
    """
    lead_d = max(d)
    cd = d[lead_d]
    rem = dict(n)
    q = {}
    residue = {}
    while rem:
        lead_r = max(rem)
        e = tuple(a - b for a, b in zip(lead_r, lead_d))
        if min(e) < 0:
            residue[lead_r] = rem.pop(lead_r)
            continue
        if isinstance(rem[lead_r], Q15) or isinstance(cd, Q15):
            c = (rem[lead_r] if isinstance(rem[lead_r], Q15) else Q15(rem[lead_r])) / cd
        else:
            c = Fraction(rem[lead_r], 1) / Fraction(cd, 1)
            c = int(c) if c.denominator == 1 else c
        q[e] = c
        for f, cf in d.items():
            g = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
            v = rem.get(g, 0) - c * cf
            if v:
                rem[g] = v
            elif g in rem:
                del rem[g]
    if residue:
        raise ArithmeticError(f"not divisible: {len(residue)} residual terms, e.g. {next(iter(residue))}")
    return q


def xeval(p, x):
    acc = 0
    for (i, j, k), c in p.items():
        acc += c * x[0] ** i * x[1] ** j * x[2] ** k
    return acc


def to_hpoly(p, degree, dtype=None):
    """Convert an exact dict polynomial to a dense HPoly (complex by default)."""
    import numpy as np

    from .hpoly import HPoly

    if dtype is object:
        h = HPoly(degree, np.zeros(((degree + 1) * (degree + 2)) // 2, dtype=object))
    else:
        h = HPoly(degree)
    from .hpoly import monomial_index

    idx = monomial_index(degree)
    for e, c in p.items():
        h.coeffs[idx[e]] = c if dtype is object else complex(c)
    return h
