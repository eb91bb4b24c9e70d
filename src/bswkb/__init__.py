"""Bohr-Sommerfeld eigenvalues of 1D semiclassical operators to order h^2."""

__version__ = "0.1.0"

from .actions import (ActionSeries, DEFAULT_CALIBRATION, LoopIntegrals,
                      SignCalibration, action_S0, action_series, dE_derivative,
                      gamma_density, loop_integral_dt, stokes_check)
from .charts import (ChartError, FourierChart, SpatialChart, chart_overlap_check,
                     D1_fourier, D1_spatial, T1_density, eikonal_fourier,
                     eikonal_spatial, transport_b0)
from .oracle import OracleError, OracleSpectrum, discretize, oracle_spectrum
from .orbits import Orbit, OrbitError, find_orbit, integrate_flow
from .quantize import (BSSolver, CalibrationError, QuantizeError, SpectrumResult,
                       bs_function, calibrate_signs, gram_determinant, quantize,
                       spectrum)
from .quasimodes import (Quasimode, QuasimodeError, apply_operator, branch_xi,
                         build_wkb, phase_S, residual_norm)
from .symbols import (SymbolError, SymbolModel, make_model, parse_symbol_config)

__all__ = [
    "ActionSeries", "BSSolver", "CalibrationError", "ChartError",
    "DEFAULT_CALIBRATION", "D1_fourier", "D1_spatial", "FourierChart",
    "LoopIntegrals", "Orbit", "OrbitError", "OracleError", "OracleSpectrum",
    "Quasimode", "QuasimodeError", "QuantizeError", "SignCalibration",
    "SpatialChart", "SpectrumResult", "SymbolError", "SymbolModel",
    "T1_density", "action_S0", "action_series", "apply_operator", "branch_xi",
    "bs_function", "build_wkb", "calibrate_signs", "chart_overlap_check",
    "dE_derivative", "discretize", "eikonal_fourier", "eikonal_spatial",
    "find_orbit", "gamma_density", "gram_determinant",
    "integrate_flow", "loop_integral_dt", "make_model", "oracle_spectrum",
    "parse_symbol_config", "phase_S", "quantize", "residual_norm", "spectrum",
    "stokes_check", "transport_b0",
]
