"""Points of CP^2: canonical normalization, the Fubini-Study metric, and
blocked near-pair deduplication of point and matrix stacks."""

import numpy as np

from .errors import ZeroVector

_PHASE_TOL = 1e-12
# first_unique: the dedup tolerance, the squared distance below which a pair
# gets its exact test, and entries per Gram block (a complex block is 256 KB)
_DEDUP_TOL = 1e-8
_SCREEN = 1e-6
_GRAM_BLOCK = 1 << 14


def normalize_point(v):
    """Canonical representative of [v] in CP^2.

    Unit Euclidean norm, with the first coordinate of significant modulus
    rotated onto the positive real axis, so equality testing is a plain
    vector comparison up to tolerance.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector")
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm < 1e-150:
        raise ZeroVector("cannot normalize a zero (or non-finite) vector")
    v = v / nrm
    mx = np.max(np.abs(v))
    for c in v:
        if abs(c) > _PHASE_TOL * mx and abs(c) > 1e-14:
            v = v * (abs(c) / c)
            break
    return v


def fs_distance(p, q):
    """Fubini-Study distance between two points of CP^2.

    Zero iff the points are projectively equal; at most pi/2.  Inputs need
    not be normalized.  Small separations use the sine form (the wedge
    norm), which keeps full precision where arccos would lose half of it.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    denom = np.linalg.norm(p) * np.linalg.norm(q)
    if denom == 0:
        raise ZeroVector("zero vector has no projective class")
    c = abs(np.vdot(p, q)) / denom
    if c < 0.7:
        return float(np.arccos(min(1.0, c)))
    w = np.array([p[0] * q[1] - p[1] * q[0],
                  p[0] * q[2] - p[2] * q[0],
                  p[1] * q[2] - p[2] * q[1]])
    s = np.linalg.norm(w) / denom
    return float(np.arcsin(min(1.0, s)))


def fs_distances(p, q):
    """fs_distance over the last axis of two broadcast stacks of points: the
    same branches, with the wedge's products rounded as numpy's scalar ones."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    denom = np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
    c = np.abs(np.sum(np.conj(p) * q, axis=-1)) / denom
    pa, pb, qa, qb = p[..., [0, 0, 1]], p[..., [1, 2, 2]], q[..., [0, 0, 1]], q[..., [1, 2, 2]]
    wr = (pa.real * qb.real - pa.imag * qb.imag) - (pb.real * qa.real - pb.imag * qa.imag)
    wi = (pa.real * qb.imag + pa.imag * qb.real) - (pb.real * qa.imag + pb.imag * qa.real)
    s = np.sqrt(np.sum(wr * wr + wi * wi, axis=-1)) / denom
    return np.where(c < 0.7, np.arccos(np.minimum(1.0, c)), np.arcsin(np.minimum(1.0, s)))


def first_unique(cands, kept, distance, up_to_phase=True):
    """Mask of the candidates that a one-by-one dedup in order keeps.

    A candidate is dropped when distance(candidate, row) < _DEDUP_TOL for a
    row of kept or an earlier kept candidate.  A Gram product per block of
    rows screens the pairs: |a|^2 + |b|^2 - 2 Re<a, b> (|<a, b>| if
    up_to_phase) under _SCREEN.  Its roundoff, ~1e-15, cannot decide the
    tolerance, so distance, the exact row-wise formula, decides each pair.
    """
    n = 0 if kept is None else len(kept)
    rows = np.concatenate([kept, cands]) if n else cands
    x = rows.reshape(-1, int(np.prod(rows.shape[1:])))
    half = np.sum(x.real ** 2 + x.imag ** 2, axis=1) / 2
    xr = x.view(np.float64)
    keep = np.ones(len(rows), dtype=bool)
    step = max(1, _GRAM_BLOCK // max(1, len(rows)))
    for lo in range(n, len(rows), step):
        hi = min(lo + step, len(rows))
        s = np.abs(x[lo:hi] @ x[:hi].conj().T) if up_to_phase else xr[lo:hi] @ xr[:hi].T
        s -= half[:hi]
        i, j = np.nonzero(s > half[lo:hi, None] - _SCREEN / 2)
        i += lo
        i, j = i[j < i], j[j < i]
        dup = distance(rows[i], rows[j]) < _DEDUP_TOL
        for later, earlier in zip(i[dup].tolist(), j[dup].tolist()):
            if keep[earlier]:
                keep[later] = False
    return keep[n:]


def random_unit_points(rng, n):
    """n points drawn uniformly from the unit sphere of C^3, canonicalized."""
    raw = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return np.array([normalize_point(v) for v in raw])
