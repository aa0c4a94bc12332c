"""Coordinate frames for the Valentiner action.

Four frames are used: "octahedral" (the reference frame, where the group is
unitary), "icosahedral" (a five-fold generator becomes a rotation),
"fricke" (classical normalization with conic z1 z3 + z2^2), and "bub22"
(the special real frame in which the anti-holomorphic conic-system swap is
plain coordinate conjugation).

All published anchor data for the frames is verified by the test suite:
the triangle [1,0,0], [0,1,0], [0,0,1] of five-fold points, the barred
conic through them, and the one-point orbit at [1,1,1].  Only the selector
fit leaves binary64: it passes mp=True to bub_frame here and to the
generators and conic forms in group.
"""

from dataclasses import dataclass

import numpy as np

from .hpoly import inv3

# the primitive cube root of unity; these bits, which are not the correctly
# rounded ones, built every shipped table
RHO = np.exp(2j * np.pi * (1.0 / 3.0))
# (sqrt, rho, scalar type); numpy takes the scalar type as the array dtype,
# and mpmath.mpc as object
BINARY64 = (np.sqrt, RHO, complex)


def mpmath_constants():
    """BINARY64's counterpart at mpmath's ambient precision; imports mpmath."""
    import mpmath

    return mpmath.sqrt, mpmath.exp(2j * mpmath.pi * (mpmath.mpf(1) / 3)), mpmath.mpc


@dataclass(frozen=True)
class CoordinateFrame:
    name: str
    to_octahedral: np.ndarray      # x = to_octahedral @ y
    from_octahedral: np.ndarray    # y = from_octahedral @ x

    def roundtrip_error(self):
        r = self.to_octahedral @ self.from_octahedral
        r = r / r[0, 0]
        return float(np.max(np.abs(r - np.eye(3))))


def octahedral_frame():
    eye = np.eye(3, dtype=complex)
    return CoordinateFrame("octahedral", eye, eye)


def icosahedral_change():
    """u = A x turning a five-fold axis onto [0, 1, 0]."""
    s5 = np.sqrt(5)
    c, s = np.sqrt((5 + s5) / 10), np.sqrt((5 - s5) / 10)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)


def icosahedral_frame():
    a = icosahedral_change()
    return CoordinateFrame("icosahedral", inv3(a), a)


def fricke_change():
    """z = B u carrying the round conic onto z1 z3 + z2^2."""
    return np.array([[1, 0, 1j], [0, 1, 0], [1, 0, -1j]])


def fricke_frame():
    from_oct = fricke_change() @ icosahedral_change()
    return CoordinateFrame("fricke", inv3(from_oct), from_oct)


def bub_change(mp=False):
    """x = M y: octahedral coordinates of the special real frame.

    Columns are the two five-fold points [.., -+sqrt((5-sqrt5)/2) i, 1] and
    their pole, with the column scalings pinned by sending the one-point
    orbit of this frame's plane to [1, 1, 1].  This reproduces every
    published anchor of the frame: the second five-fold triangle lands on
    [3, 2 eta^2, -eta] / conjugate / [1, 1, 1], the first barred conic
    becomes (2 etabar / 3)^2 y1 y2 + y3^2, and the conic-system swap is
    coordinatewise conjugation.  With mp, in mpmath at its ambient precision.
    """
    sqrt, rho, scalar = mpmath_constants() if mp else BINARY64
    s5 = sqrt(5)
    w = sqrt((5 - s5) / 2)
    i = scalar(0, 1)
    a0 = np.array([[(1 - s5) / 2, -w * i, scalar(1)],
                   [(1 - s5) / 2, w * i, scalar(1)],
                   [(1 + s5) / 2, scalar(0), scalar(1)]], dtype=scalar).T
    p22 = np.array([(1 - s5) / 2 * rho * rho, scalar(0), scalar(1)], dtype=scalar)
    u = inv3(a0) @ p22
    return a0 * (u / u[2])


def bub_frame(mp=False):
    m = bub_change(mp)
    return CoordinateFrame("bub22", m, inv3(m))


def frame_by_name(name):
    return {
        "octahedral": octahedral_frame,
        "icosahedral": icosahedral_frame,
        "fricke": fricke_frame,
        "bub22": bub_frame,
    }[name]()
