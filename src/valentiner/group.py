"""Construction and enumeration of the Valentiner group.

Generators are produced in octahedral coordinates, where the group is a
subgroup of SU(3): the tetrahedral coordinate flips and cycles, the
order-four element Q mixing the last two coordinates with cube roots of
unity, and the five-fold rotation P.  Closure under multiplication gives
the 1080-element linear lift; projective deduplication gives the
360-element projective group.
"""

import numpy as np

from .context import CTX64
from .errors import ClosureOverflow
from .frames import frame_by_name
from .hpoly import HPoly, inv3, monomial_index

PROJ_ORDER = 360
LIFT_ORDER = 1080


# --- generators ---------------------------------------------------------------

def generators_octahedral(ctx=CTX64):
    """The generator set {Z, T, P, Q, Qbar} in octahedral coordinates."""
    rho = ctx.rho
    tau = ctx.tau
    z = ctx.array([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    t = ctx.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    q = ctx.array([[1, 0, 0], [0, 0, rho * rho], [0, -rho, 0]])
    qbar = ctx.array([[1, 0, 0], [0, 0, rho], [0, -rho * rho, 0]])
    p = ctx.array([
        [1 / 2, 1 / (2 * tau), -tau / 2],
        [1 / (2 * tau), tau / 2, 1 / 2],
        [tau / 2, -1 / 2, 1 / (2 * tau)],
    ])
    return {"Z": z, "T": t, "P": p, "Q": q, "Qbar": qbar}


def bub_antilinear_octahedral(ctx=CTX64):
    """Matrix B with bub(x) = B conj(x) in octahedral coordinates."""
    rho = ctx.rho
    tau = ctx.tau
    return ctx.array([
        [rho * rho, 0, -rho],
        [0, -rho * (rho + tau), 0],
        [-rho, 0, -1],
    ])


def bub_antilinear_in_frame(frame, ctx=CTX64):
    """bub as y -> K conj(y) in the given frame (x = M y)."""
    b = np.asarray(bub_antilinear_octahedral(ctx), dtype=complex)
    m = np.asarray(frame.to_octahedral, dtype=complex)
    minv = np.asarray(frame.from_octahedral, dtype=complex)
    return minv @ b @ np.conj(m)


# --- closure ------------------------------------------------------------------

def _dedup_key_distance(mats, cand):
    """Min Frobenius distance from cand to each matrix in the (n,3,3) stack."""
    d = mats - cand[None, :, :]
    return np.sqrt(np.einsum("nij,nij->n", d, np.conj(d)).real)


def projective_canonical(m, rho):
    """Scale by a cube root of unity so the argument of the largest entry is nearest 0."""
    flat = np.abs(m).ravel()
    t = int(np.argmax(flat))
    entry = m.ravel()[t]
    best, best_arg = m, abs(np.angle(entry))
    w = rho
    for _ in range(2):
        cand = m * w
        a = abs(np.angle(entry * w))
        if a < best_arg - 1e-13:
            best, best_arg = cand, a
        w = w * rho
    return best


class GroupTable:
    """The enumerated Valentiner group in one coordinate frame.

    lift: (1080, 3, 3) unit-determinant matrices closed under product.
    projective: (360, 3, 3) canonical projective representatives.
    words: generator words for the lift elements.
    """

    def __init__(self, lift, projective, words, frame_name="octahedral"):
        self.lift = lift
        self.projective = projective
        self.words = words
        self.frame_name = frame_name

    def __len__(self):
        return len(self.projective)

    def order_census(self):
        counts = {}
        for m in self.projective:
            k = _proj_order(m)
            counts[k] = counts.get(k, 0) + 1
        return counts

    def conjugate_to_frame(self, frame):
        m = np.asarray(frame.to_octahedral, dtype=complex)
        minv = np.asarray(frame.from_octahedral, dtype=complex)
        lift = np.einsum("ab,nbc,cd->nad", minv, self.lift, m)
        proj = np.einsum("ab,nbc,cd->nad", minv, self.projective, m)
        return GroupTable(lift, proj, self.words, frame.name)


def _proj_order(m, tol=1e-7):
    a = np.asarray(m, dtype=complex)
    p = np.eye(3, dtype=complex)
    for k in range(1, 6):
        p = p @ a
        s = p.ravel()[np.argmax(np.abs(p))]
        q = p / s
        if np.max(np.abs(q - q[0, 0] * np.eye(3))) < tol:
            return k
    return -1


def enumerate_group(ctx=CTX64, frame_name="octahedral", max_elements=LIFT_ORDER):
    """Breadth-first closure of the generators; returns a GroupTable.

    Raises ClosureOverflow if more than max_elements distinct matrices
    appear, which signals a deduplication/precision failure.
    """
    gens = generators_octahedral(ctx)
    gen_list = [(k, np.asarray(gens[k], dtype=complex)) for k in ("Z", "T", "P", "Q")]
    eye = np.eye(3, dtype=complex)
    elems = [eye]
    words = [""]
    stack = np.array([eye])
    frontier = [0]
    tol = 1e-8
    while frontier:
        new_frontier = []
        for idx in frontier:
            base = elems[idx]
            for name, g in gen_list:
                cand = base @ g
                dists = _dedup_key_distance(stack, cand)
                if np.min(dists) > tol:
                    elems.append(cand)
                    words.append(words[idx] + name)
                    stack = np.concatenate([stack, cand[None]], axis=0)
                    new_frontier.append(len(elems) - 1)
                    if len(elems) > max_elements:
                        raise ClosureOverflow(f"more than {max_elements} lift elements")
        frontier = new_frontier
    lift = np.array(elems)
    # projective representatives: canonical scaling, dedup
    rho = complex(ctx.rho)
    proj = []
    pstack = None
    for m in lift:
        c = projective_canonical(m, rho)
        if pstack is None:
            proj.append(c)
            pstack = np.array([c])
            continue
        # projective match: compare against all three unit-phase multiples
        dd = np.array([np.min(_dedup_key_distance(pstack, c * rho ** k)) for k in range(3)])
        if np.min(dd) > tol:
            proj.append(c)
            pstack = np.concatenate([pstack, c[None]], axis=0)
    table = GroupTable(lift, np.array(proj), words)
    if frame_name != "octahedral":
        table = table.conjugate_to_frame(frame_by_name(frame_name, ctx))
    return table


# --- conic forms ----------------------------------------------------------------

def conic_forms_octahedral(ctx=CTX64):
    """The two systems of six conic forms in octahedral coordinates.

    Barred forms are orbit translates of x1^2 + x2^2 + x3^2; the unbarred
    system is spanned inside the barred one, anchored so the five-fold
    generator P fixes the barred form 1 and the unbarred form 3.  Under a
    high-precision context the forms carry mpmath coefficients computed at
    the ambient mpmath precision.
    """
    gens = generators_octahedral(ctx)
    one = ctx.scalar(1)
    c1 = HPoly.from_terms(2, {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one}, dtype=ctx.dtype)
    qinv = inv3(gens["Q"])
    pinv = inv3(gens["P"])
    c2 = c1.compose_linear(qinv)
    barred = [c1, c2]
    for k in (4, 3, 2, 1):
        m = np.linalg.matrix_power(pinv, k)
        barred.append(c2.compose_linear(m))
    # barred order: [C1, C2, C3, C4, C5, C6]
    u3 = barred[0].scale(ctx.rho)
    for b in barred[1:]:
        u3 = u3 + b
    u2 = u3.compose_linear(qinv)
    u1 = u2.compose_linear(pinv)
    u4 = u2.compose_linear(np.linalg.matrix_power(pinv, 3))
    u5 = u2.compose_linear(np.linalg.matrix_power(pinv, 2))
    u6 = u2.compose_linear(np.linalg.matrix_power(pinv, 4))
    unbarred = [u1, u2, u3, u4, u5, u6]
    return barred, unbarred


def transport_conics(barred, unbarred, frame, normalize_bub=False):
    """Carry the octahedral conic forms into another frame.

    With normalize_bub, every form is scaled by the single constant that
    puts the barred form 1 into its published shape
    (2 etabar / 3)^2 y1 y2 + y3^2, i.e. unit coefficient on y3^2.
    """
    m = np.asarray(frame.to_octahedral)
    tb = [c.compose_linear(m) for c in barred]
    tu = [c.compose_linear(m) for c in unbarred]
    if normalize_bub:
        idx = monomial_index(2, (0, 0, 2))
        kappa = 1.0 / tb[0].coeffs[idx]
        tb = [c.scale(kappa) for c in tb]
        tu = [c.scale(kappa) for c in tu]
    return tb, tu


def match_to_scaled_conic(conics, form, tol=1e-6):
    """Index and scalar with form == scalar * conics[index], else (None, None)."""
    for i, c in enumerate(conics):
        t = int(np.argmax(np.abs(c.coeffs)))
        if abs(c.coeffs[t]) == 0:
            continue
        s = form.coeffs[t] / c.coeffs[t]
        if np.max(np.abs(form.coeffs - s * c.coeffs)) < tol * max(1.0, abs(s) * float(np.max(np.abs(c.coeffs)))):
            return i, s
    return None, None


def conic_permutation(conics, mat, tol=1e-6):
    """Permutation (and characters) of a conic system under x -> form(M^-1 x)."""
    minv = np.linalg.inv(np.asarray(mat, dtype=complex))
    perm, chars = [], []
    for c in conics:
        img = c.compose_linear(minv)
        i, s = match_to_scaled_conic(conics, img, tol)
        perm.append(i)
        chars.append(s)
    return perm, chars
