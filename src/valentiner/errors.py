"""Exception types raised across the package."""


class ValentinerError(Exception):
    """Base class for all package-specific failures."""


# --- numerics ---

class ZeroVector(ValentinerError):
    """A projective point was requested for a (numerically) zero vector."""


# --- group construction ---

class ClosureOverflow(ValentinerError):
    """Group closure produced more elements than expected (dedup failure)."""


class OrbitSizeMismatch(ValentinerError):
    """A special orbit did not come out at its required size."""


class NormalizationFailure(ValentinerError):
    """An anchor coefficient disagrees with its required value."""


# --- Molien ---

class NonIntegerDimension(ValentinerError):
    """A Molien coefficient failed to round to an integer."""


class NotPolynomial(ValentinerError):
    """A Molien quotient kept nonzero terms beyond the expected degree."""


# --- equivariants ---

class VanishingFailure(ValentinerError):
    """The degree-64 map does not vanish on the mirror lines."""


# --- resolvent families ---

class OnSexticCurve(ValentinerError):
    """General-case quotient evaluated at a point with F ~ 0."""


class NotOnSexticCurve(ValentinerError):
    """Special-case quotient evaluated off the curve F = 0."""


class DegenerateDenominator(ValentinerError):
    """Root functions evaluated where a denominator invariant vanishes."""


class DegenerateFrame(ValentinerError):
    """A parametrized coordinate frame is singular or fails its determinant certificate."""


class DegenerateParams(ValentinerError):
    """Resolvent parameters sit on the singular locus."""


# --- selectors ---

class FitResidualTooLarge(ValentinerError):
    """The selector coefficient fit did not reproduce its samples."""


# --- dynamics ---

class NotAConvergedCycle(ValentinerError):
    """A claimed period-2 cycle fails the invariant-vanishing certificate."""


class AllRestartsFailed(ValentinerError):
    """No restart of the iteration converged to a certified cycle."""


class ChartSingularity(ValentinerError):
    """A point sits at the chart's point at infinity."""
