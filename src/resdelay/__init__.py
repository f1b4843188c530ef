"""resdelay: counting quantum resonances through the scattering time delay.

The time delay T(E) = hbar * d(delta)/dE peaks at resonance energies with
height 2*hbar/Gamma, so the integral (1/pi) * int T dE counts resonances.
This package provides exactly solvable models (square well, delta shell,
exponential reflecting step), S-matrix pole location and classification,
Lorentzian reconstruction, the counting integral, and analysis of tabulated
experimental phase shifts.

The package exports each module's ``__all__``.
"""
from . import counting, numerics, phasedata, poles, reflect, scattering
from .counting import *  # noqa: F401,F403
from .errors import ResdelayError
from .numerics import *  # noqa: F401,F403
from .phasedata import *  # noqa: F401,F403
from .poles import *  # noqa: F401,F403
from .reflect import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ResdelayError",
    *numerics.__all__,
    *scattering.__all__,
    *poles.__all__,
    *counting.__all__,
    *reflect.__all__,
    *phasedata.__all__,
]
