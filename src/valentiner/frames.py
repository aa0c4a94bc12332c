"""Coordinate frames for the Valentiner action.

Four frames are used: "octahedral" (the reference frame, where the group is
unitary), "icosahedral" (a five-fold generator becomes a rotation),
"fricke" (classical normalization with conic z1 z3 + z2^2), and "bub22"
(the special real frame in which the anti-holomorphic conic-system swap is
plain coordinate conjugation).

All published anchor data for the frames is verified by the test suite:
the triangle [1,0,0], [0,1,0], [0,0,1] of five-fold points, the barred
conic through them, and the one-point orbit at [1,1,1].
"""

from dataclasses import dataclass

import numpy as np

from .context import CTX64
from .hpoly import inv3


@dataclass(frozen=True)
class CoordinateFrame:
    name: str
    to_octahedral: np.ndarray      # x = to_octahedral @ y
    from_octahedral: np.ndarray    # y = from_octahedral @ x

    def roundtrip_error(self):
        r = self.to_octahedral @ self.from_octahedral
        r = r / r[0, 0]
        return float(np.max(np.abs(r - np.eye(3))))


def octahedral_frame(ctx=CTX64):
    eye = ctx.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return CoordinateFrame("octahedral", eye, eye)


def icosahedral_change(ctx=CTX64):
    """u = A x turning a five-fold axis onto [0, 1, 0]."""
    c, s = ctx.cos36_pair
    return ctx.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def icosahedral_frame(ctx=CTX64):
    a = icosahedral_change(ctx)
    return CoordinateFrame("icosahedral", inv3(a), a)


def fricke_change(ctx=CTX64):
    """z = B u carrying the round conic onto z1 z3 + z2^2."""
    i = ctx.scalar(0, 1)
    return ctx.array([[1, 0, i], [0, 1, 0], [1, 0, -i]])


def fricke_frame(ctx=CTX64):
    b = fricke_change(ctx)
    a = icosahedral_change(ctx)
    from_oct = np.array(b, dtype=complex) @ np.array(a, dtype=complex)
    return CoordinateFrame("fricke", inv3(from_oct), from_oct)


def bub_change(ctx=CTX64):
    """x = M y: octahedral coordinates of the special real frame.

    Columns are the two five-fold points [.., -+sqrt((5-sqrt5)/2) i, 1] and
    their pole, with the column scalings pinned by sending the one-point
    orbit of this frame's plane to [1, 1, 1].  This reproduces every
    published anchor of the frame: the second five-fold triangle lands on
    [3, 2 eta^2, -eta] / conjugate / [1, 1, 1], the first barred conic
    becomes (2 etabar / 3)^2 y1 y2 + y3^2, and the conic-system swap is
    coordinatewise conjugation.
    """
    s5 = ctx.sqrt(5)
    w = ctx.sqrt((5 - s5) / 2)
    i = ctx.scalar(0, 1)
    rho = ctx.rho
    v1 = [(1 - s5) / 2, -w * i, ctx.scalar(1)]
    v2 = [(1 - s5) / 2, w * i, ctx.scalar(1)]
    v3 = [(1 + s5) / 2, ctx.scalar(0), ctx.scalar(1)]
    a0 = ctx.array([[v1[r], v2[r], v3[r]] for r in range(3)])
    p22 = ctx.array([(1 - s5) / 2 * rho * rho, ctx.scalar(0), ctx.scalar(1)])
    u = inv3(a0) @ p22
    return a0 * (u / u[2])


def bub_frame(ctx=CTX64):
    m = bub_change(ctx)
    return CoordinateFrame("bub22", m, inv3(m))


def frame_by_name(name, ctx=CTX64):
    return {
        "octahedral": octahedral_frame,
        "icosahedral": icosahedral_frame,
        "fricke": fricke_frame,
        "bub22": bub_frame,
    }[name](ctx)
