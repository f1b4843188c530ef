"""resdelay: counting quantum resonances through the scattering time delay.

The time delay T(E) = hbar * d(delta)/dE peaks at resonance energies with
height 2*hbar/Gamma, so the integral (1/pi) * int T dE counts resonances.
This package provides exactly solvable models (square well, delta shell,
exponential reflecting step), S-matrix pole location and classification,
Lorentzian reconstruction, the counting integral, and analysis of tabulated
experimental phase shifts.
"""
from .counting import (
    CountReport,
    ReconstructionReport,
    count_resonances,
    gamma_from_peak,
    lorentzian_sum,
    reconstruction_report,
)
from .errors import ResdelayError
from .numerics import (
    Curve,
    Peak,
    QuadratureResult,
    bessel_j,
    complex_gamma,
    find_extrema,
    integrate,
    newton_complex,
    sph_bessel,
)
from .phasedata import (
    PhaseTable,
    ResonanceReport,
    delay_from_table,
    extract_resonance,
    load_bundled_p33,
    parse_phase_table,
    synth_phase_table,
)
from .poles import (
    RESONANCE,
    SPURIOUS,
    UNCLASSIFIED,
    Pole,
    SearchRegion,
    classify_pole,
    find_poles,
    localization_ratio,
    outgoing_condition,
)
from .reflect import (
    ExpStep,
    reflection_amplitude,
    reflection_time_delay,
    reflectivity_curve,
    theta_curve,
)
from .scattering import (
    DeltaShell,
    SquareWell,
    delay_curve,
    delay_function,
    phase_shift_bar,
    phase_shift_sweep,
    s_matrix,
    time_delay,
    time_delay_delta_shell_analytic,
    time_delay_square_well_analytic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ResdelayError",
    "Curve",
    "Peak",
    "QuadratureResult",
    "complex_gamma",
    "bessel_j",
    "sph_bessel",
    "newton_complex",
    "integrate",
    "find_extrema",
    "SquareWell",
    "DeltaShell",
    "s_matrix",
    "phase_shift_bar",
    "phase_shift_sweep",
    "time_delay",
    "time_delay_square_well_analytic",
    "time_delay_delta_shell_analytic",
    "delay_function",
    "delay_curve",
    "Pole",
    "SearchRegion",
    "RESONANCE",
    "SPURIOUS",
    "UNCLASSIFIED",
    "outgoing_condition",
    "find_poles",
    "classify_pole",
    "localization_ratio",
    "CountReport",
    "ReconstructionReport",
    "lorentzian_sum",
    "count_resonances",
    "gamma_from_peak",
    "reconstruction_report",
    "ExpStep",
    "reflection_amplitude",
    "reflectivity_curve",
    "theta_curve",
    "reflection_time_delay",
    "PhaseTable",
    "ResonanceReport",
    "parse_phase_table",
    "load_bundled_p33",
    "delay_from_table",
    "extract_resonance",
    "synth_phase_table",
]
