"""Polarizer-cascade simulator: classical Malus-law intensities, exact
quantum projective-measurement probabilities, and seeded Monte Carlo photon
sampling, with a consistency check between the descriptions."""

from .core import (
    Angle,
    ClassicalBeam,
    FilterStack,
    PolarizationKet,
    ZeroProbabilityProjectionError,
    angle_from_degrees,
    classical_transmit,
    ket,
    malus_factor,
    pass_probability,
    project,
)
from .engines import (
    CascadeTrace,
    ComparisonDomainError,
    ComparisonReport,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    StageRecord,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
    staircase_transmission,
    wilson_interval_95,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "CascadeTrace",
    "ClassicalBeam",
    "ComparisonDomainError",
    "ComparisonReport",
    "FilterStack",
    "MonteCarloConfig",
    "MonteCarloReport",
    "PhotonInput",
    "PolarizationKet",
    "StageRecord",
    "ZeroProbabilityProjectionError",
    "angle_from_degrees",
    "classical_transmit",
    "compare",
    "ket",
    "malus_factor",
    "pass_probability",
    "project",
    "run_classical",
    "run_monte_carlo",
    "run_quantum_exact",
    "staircase_transmission",
    "wilson_interval_95",
]
