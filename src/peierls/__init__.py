"""Dimerized tight-binding rings with temperature.

Free-energy minimization for finite even rings and the infinite-ring
limit, critical temperatures and stiffnesses, the square-root bifurcation
of the dimerization amplitude, and the exponentially small ground-state
energy gain from dimerization.
"""

from .finite_chain import (CriticalPoint, DimerState, HoppingConfig,
                           J_finite, ModelParams, build_hopping_matrix,
                           chain_energy_zero, chain_free_energy, g_finite,
                           minimize_chain_full, minimize_dimer_finite,
                           mu_critical, theta_critical_finite)
from .kernels import electron_free_energy, elliptic_side, entropy, h_theta
from .numerics import ConvergenceError, mode_mean
from .sweep import SWEEP_KINDS, ResultRow, SweepSpec, emit_csv, run_sweep
from .thermodynamic import (AsymptoticConstants, BifurcationData, J_thermo,
                            asymptotic_constants, bifurcation_data, g_thermo,
                            minimize_dimer_thermo, theta_critical_thermo)
from .zero_temperature import (GapResult, dimer_optimum_zero, g_zero,
                               gap_rate_fit, periodic_optimum_zero)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "mode_mean",
    "entropy", "h_theta", "electron_free_energy", "elliptic_side",
    "ModelParams", "HoppingConfig", "DimerState", "CriticalPoint",
    "build_hopping_matrix", "chain_free_energy", "chain_energy_zero",
    "g_finite", "minimize_chain_full", "minimize_dimer_finite",
    "J_finite", "mu_critical", "theta_critical_finite",
    "BifurcationData", "AsymptoticConstants", "g_thermo",
    "minimize_dimer_thermo", "J_thermo", "theta_critical_thermo",
    "asymptotic_constants", "bifurcation_data",
    "GapResult", "g_zero", "periodic_optimum_zero", "dimer_optimum_zero",
    "gap_rate_fit",
    "SweepSpec", "ResultRow", "run_sweep", "emit_csv", "SWEEP_KINDS",
]
