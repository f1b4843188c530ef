"""Exception types shared across the package."""


class ResdelayError(Exception):
    """Base class for all package errors."""


class PoleOfGamma(ResdelayError):
    """Gamma function evaluated at (or too close to) a non-positive integer."""


class BranchAmbiguity(ResdelayError):
    """J_nu(z) at z = 0 for an order other than nu = 0, nu = 1 or
    Re(nu) > 1, where z**nu or z**(nu - 1) has no limit."""


class SeriesNonConvergence(ResdelayError):
    """Power series failed to converge within the term budget."""


class ZeroArgument(ResdelayError):
    """Spherical Bessel functions are singular at z = 0."""


class NoConvergence(ResdelayError):
    """Newton iteration did not reach the requested residual.

    Carries the last iterate and its residual.
    """

    def __init__(self, last_iterate, residual):
        super().__init__(
            f"no convergence: last iterate {last_iterate}, residual {residual:.3e}"
        )
        self.last_iterate = last_iterate
        self.residual = residual


class MaxDepthExceeded(ResdelayError):
    """An adaptive bisection gave up: the quadrature hit its depth or panel
    cap (non-integrable feature?), or the phase unwrap met a phase or delay
    that is not finite, or its pass or sample cap."""


class ThresholdBranchPoint(ResdelayError):
    """Energy coincides with the asymptotic barrier top (branch point of p)."""


class VanishingAmplitude(ResdelayError):
    """Reflection amplitude too small for a meaningful phase derivative."""


class SpuriousIncluded(ResdelayError):
    """A pole classified Spurious was passed where only resonances are allowed."""


class CurveTooCoarse(ResdelayError):
    """A delay curve too coarse to classify a pole: its grid step cannot
    resolve the pole's width."""


class NoPoleFound(ResdelayError):
    """A pole search kept no pole, although the winding number certifies
    poles in its box."""


class ParseError(ResdelayError):
    """Malformed phase-shift table input."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MonotonicityError(ParseError):
    """Energies in a phase-shift table must be strictly increasing."""


class TooFewRows(ParseError):
    """Phase-shift table has fewer rows than the required minimum."""


class NoPeak(ResdelayError):
    """No interior maximum found in the requested window."""
