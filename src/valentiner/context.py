"""Precision contexts and the algebraic constants used throughout.

Two scalar backends sit behind the same small interface: numpy complex128
(the default) and mpmath arbitrary precision (used for the selector
coefficient fit and for high-precision re-runs).  A :class:`Context` pins
one backend together with its working precision.  mpmath is imported only
inside the high-precision branches, so binary64 work never loads it.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Context:
    """One computation context: scalar backend plus working precision."""

    precision: str = "std"          # "std" (binary64) or "high" (mpmath)
    dps: int = 50                   # mpmath digits, used when precision == "high"

    @property
    def is_high(self):
        return self.precision == "high"

    # --- scalar constructors -------------------------------------------------

    def scalar(self, re, im=0):
        if self.is_high:
            import mpmath

            with mpmath.workdps(self.dps):
                return mpmath.mpc(re, im)
        return complex(re, im)

    def sqrt(self, x):
        if self.is_high:
            import mpmath

            with mpmath.workdps(self.dps):
                return mpmath.sqrt(x)
        return np.sqrt(complex(x) if (isinstance(x, complex) or x < 0) else float(x))

    def exp_2pi_i(self, frac):
        """e^{2 pi i * frac}."""
        if self.is_high:
            import mpmath

            with mpmath.workdps(self.dps):
                return mpmath.exp(2j * mpmath.pi * mpmath.mpf(frac))
        return np.exp(2j * np.pi * frac)

    def array(self, rows):
        if self.is_high:
            return np.array(rows, dtype=object)
        return np.array(rows, dtype=complex)

    @property
    def dtype(self):
        return object if self.is_high else np.complex128

    # --- the named constants -------------------------------------------------

    @property
    def rho(self):
        """Primitive cube root of unity."""
        if self.is_high:
            import mpmath

            return self.exp_2pi_i(mpmath.mpf(1) / 3)
        return self.exp_2pi_i(1.0 / 3.0)

    @property
    def tau(self):
        """Golden ratio (1 + sqrt 5)/2."""
        return (1 + self.sqrt(5)) / 2

    @property
    def cos36_pair(self):
        """The pair (c, s) = (sqrt((5+sqrt5)/10), sqrt((5-sqrt5)/10))."""
        s5 = self.sqrt(5)
        return self.sqrt((5 + s5) / 10), self.sqrt((5 - s5) / 10)


CTX64 = Context()


def high_context(dps=50):
    return Context(precision="high", dps=dps)
