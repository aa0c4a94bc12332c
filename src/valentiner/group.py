"""Construction and enumeration of the Valentiner group.

Generators are produced in octahedral coordinates, where the group is a
subgroup of SU(3): the tetrahedral coordinate flips and cycles, the
order-four element Q mixing the last two coordinates with cube roots of
unity, and the five-fold rotation P.  Closure under multiplication gives
the 1080-element linear lift; projective deduplication gives the
360-element projective group.
"""

import numpy as np

from .errors import ClosureOverflow
from .frames import BINARY64, RHO, mpmath_constants
from .hpoly import HPoly, inv3, monomial_index
from .projective import first_unique

PROJ_ORDER = 360
LIFT_ORDER = 1080


# --- generators ---------------------------------------------------------------

def generators_octahedral(mp=False):
    """The generator set {Z, T, P, Q, Qbar} in octahedral coordinates; with
    mp, in mpmath at its ambient precision."""
    sqrt, rho, dtype = mpmath_constants() if mp else BINARY64
    tau = (1 + sqrt(5)) / 2
    z = np.array([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=dtype)
    t = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=dtype)
    q = np.array([[1, 0, 0], [0, 0, rho * rho], [0, -rho, 0]], dtype=dtype)
    qbar = np.array([[1, 0, 0], [0, 0, rho], [0, -rho * rho, 0]], dtype=dtype)
    p = np.array([
        [1 / 2, 1 / (2 * tau), -tau / 2],
        [1 / (2 * tau), tau / 2, 1 / 2],
        [tau / 2, -1 / 2, 1 / (2 * tau)],
    ], dtype=dtype)
    return {"Z": z, "T": t, "P": p, "Q": q, "Qbar": qbar}


def bub_antilinear_octahedral():
    """Matrix B with bub(x) = B conj(x) in octahedral coordinates."""
    tau = (1 + np.sqrt(5)) / 2
    return np.array([
        [RHO * RHO, 0, -RHO],
        [0, -RHO * (RHO + tau), 0],
        [-RHO, 0, -1],
    ])


def bub_antilinear_in_frame(frame):
    """bub as y -> K conj(y) in the given frame (x = M y)."""
    return frame.from_octahedral @ bub_antilinear_octahedral() @ np.conj(frame.to_octahedral)


# --- closure ------------------------------------------------------------------

def _frobenius_distances(a, b):
    """Row-wise Frobenius distances between two aligned (n, 3, 3) stacks."""
    d = a - b
    return np.sqrt(np.einsum("nij,nij->n", d, np.conj(d)).real)


def projective_canonical(m, rho):
    """Scale each matrix of an (n, 3, 3) stack by the cube root of unity that
    brings the argument of its largest entry nearest 0 (first wins within 1e-13)."""
    flat = m.reshape(len(m), 9)
    entry = flat[np.arange(len(m)), np.argmax(np.abs(flat), axis=1)]
    out, best_arg = m.copy(), np.abs(np.angle(entry))
    w = rho
    for _ in range(2):
        a = np.abs(np.angle(entry * w))
        better = a < best_arg - 1e-13
        out[better] = m[better] * w
        best_arg = np.where(better, a, best_arg)
        w = w * rho
    return out


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
        orders, counts = np.unique(proj_orders(self.projective), return_counts=True)
        return dict(zip(orders.tolist(), counts.tolist()))

    def conjugate_to_frame(self, frame):
        m = np.asarray(frame.to_octahedral, dtype=complex)
        minv = np.asarray(frame.from_octahedral, dtype=complex)
        lift = np.einsum("ab,nbc,cd->nad", minv, self.lift, m)
        proj = np.einsum("ab,nbc,cd->nad", minv, self.projective, m)
        return GroupTable(lift, proj, self.words, frame.name)


def proj_orders(mats):
    """Projective order (1 to 5, else -1) of each matrix of an (n, 3, 3) stack."""
    orders = np.full(len(mats), -1)
    p = mats
    for k in range(1, 6):
        flat = p.reshape(len(p), 9)
        q = p / flat[np.arange(len(p)), np.argmax(np.abs(flat), axis=1)][:, None, None]
        scalar = np.max(np.abs(q - q[:, :1, :1] * np.eye(3)), axis=(1, 2)) < 1e-7
        orders[scalar & (orders < 0)] = k
        p = p @ mats
    return orders


def closure(gens, max_elements):
    """Breadth-first closure of the named generators: (elements, words).

    Each level is the frontier times every generator, in (element, generator)
    order, deduplicated by first_unique on the Frobenius distance.  Raises
    ClosureOverflow past max_elements, which signals a precision failure.
    """
    names = list(gens)
    g = np.array([np.asarray(gens[k], dtype=complex) for k in names])
    elems = np.eye(3, dtype=complex)[None]
    words = [""]
    frontier = np.array([0])
    while len(frontier):
        cands = np.matmul(elems[frontier][:, None], g[None]).reshape(-1, 3, 3)
        keep = first_unique(cands, elems, _frobenius_distances, up_to_phase=False)
        cand_words = [words[f] + n for f in frontier.tolist() for n in names]
        words += [w for w, k in zip(cand_words, keep.tolist()) if k]
        frontier = np.arange(len(elems), len(elems) + np.count_nonzero(keep))
        elems = np.concatenate([elems, cands[keep]])
        if len(elems) > max_elements:
            raise ClosureOverflow(f"more than {max_elements} elements")
    return elems, words


def enumerate_group():
    """The closure of Z, T, P, Q, with projective representatives; a GroupTable.

    Dedup screens near pairs by blocked Gram products and confirms each by
    its exact distance (first_unique): Frobenius for the lift, its minimum
    over the cube-root multiples for the canonical projective forms.  Order
    is first occurrence.  Raises ClosureOverflow past LIFT_ORDER elements.
    """
    gens = generators_octahedral()
    lift, words = closure({k: gens[k] for k in ("Z", "T", "P", "Q")}, LIFT_ORDER)
    rho = complex(RHO)
    canon = projective_canonical(lift, rho)

    def projective_distance(c, kept):
        return np.min([_frobenius_distances(kept, c * rho ** k) for k in range(3)], axis=0)

    proj = canon[first_unique(canon, None, projective_distance)]
    return GroupTable(lift, proj, words)


# --- conic forms ----------------------------------------------------------------

def conic_forms_octahedral(mp=False):
    """The two systems of six conic forms in octahedral coordinates.

    Barred forms are orbit translates of x1^2 + x2^2 + x3^2; the unbarred
    system is spanned inside the barred one, anchored so the five-fold
    generator P fixes the barred form 1 and the unbarred form 3.  With mp
    the coefficients are mpmath numbers at the ambient precision.
    """
    _, rho, scalar = mpmath_constants() if mp else BINARY64
    gens = generators_octahedral(mp)
    one = scalar(1)
    c1 = HPoly.from_terms(2, {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one}, dtype=scalar)
    qinv = inv3(gens["Q"])
    pinv = inv3(gens["P"])
    c2 = c1.compose_linear(qinv)
    barred = [c1, c2]
    for k in (4, 3, 2, 1):
        m = np.linalg.matrix_power(pinv, k)
        barred.append(c2.compose_linear(m))
    # barred order: [C1, C2, C3, C4, C5, C6]
    u3 = barred[0].scale(rho)
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


def match_to_scaled_conic(conics, form):
    """Index and scalar with form == scalar * conics[index], else (None, None)."""
    for i, c in enumerate(conics):
        t = int(np.argmax(np.abs(c.coeffs)))
        if abs(c.coeffs[t]) == 0:
            continue
        s = form.coeffs[t] / c.coeffs[t]
        if np.max(np.abs(form.coeffs - s * c.coeffs)) < 1e-6 * max(1.0, abs(s) * float(np.max(np.abs(c.coeffs)))):
            return i, s
    return None, None


def conic_permutation(conics, mat):
    """Permutation (and characters) of a conic system under x -> form(M^-1 x).

    Each conic is taken as its symmetric matrix S, form(x) = x^T S x, so the
    images are M^-T S M^-1, one batched product for the whole system.
    """
    minv = np.linalg.inv(np.asarray(mat, dtype=complex))
    e = np.eye(3, dtype=int)
    onehot = np.eye(6)[monomial_index(2, e[:, None] + e[None]).ravel()]   # entry (r, c) -> monomial
    sym = (np.array([c.coeffs for c in conics]) @ onehot.T).reshape(-1, 3, 3) * np.where(e, 1, 0.5)
    perm, chars = [], []
    for img in (minv.T @ sym @ minv).reshape(-1, 9) @ onehot:
        i, s = match_to_scaled_conic(conics, HPoly(2, img))
        perm.append(i)
        chars.append(s)
    return perm, chars
