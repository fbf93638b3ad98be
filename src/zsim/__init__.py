"""Zitter electron simulator.

A relativistic model of the spinning electron as a point charge in
circular motion at the speed of light about a sub-luminal spin center.
Three equivalent dynamical formulations (position pair, spin tensor,
state-function spinor) are integrated and cross-checked, together with
the spin/dipole observable algebra, rest-frame spin states along any
axis, measurement statistics, the free-electron wave function, and
ensemble density transport.

Internal units: hbar = m = c = 1, so the zitter frequency is 2, the
zitter radius 1/2, and the rest energy 1; see ``constants.SI_UNITS``
for the SI scale of each quantity.
"""

from .constants import (
    C,
    HBAR,
    MASS,
    OMEGA0,
    OMEGA1,
    Q_ELECTRON,
    R0,
    REST_ENERGY,
    SI_UNITS,
    T0,
)
from .dynamics import (
    ComparisonReport,
    ConstraintViolationError,
    IntegrationDivergedError,
    closed_form_free,
    compare_formulations,
    compare_trajectories,
    constraint_residuals,
    free_motion,
    integrate,
    map_states,
    matched_initial_states,
    oracle_errors,
    validate_state,
)
from .emfield import CoulombField, FieldSingularityError, FreeField, UniformEB
from .minkowski import BoostParams, boost_coords, boost_matrix, boost_vector, mdot
from .spinor import StateFunction, hamiltonian, operator_identity_suite
from .spinstates import (
    MeasurementReport,
    malus_probability,
    sample_measurements,
    spin_amplitudes,
    spin_state,
)
from .spintensor import build_spin_tensor, identity_suite, interaction_energy
from .states import PositionState, SpinorState, SpinTensorState, Trajectory
from .wavefield import DensityReport, WaveFunction, ensemble_uniformity

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "C",
    "ComparisonReport",
    "ConstraintViolationError",
    "CoulombField",
    "DensityReport",
    "FieldSingularityError",
    "FreeField",
    "HBAR",
    "IntegrationDivergedError",
    "MASS",
    "MeasurementReport",
    "OMEGA0",
    "OMEGA1",
    "PositionState",
    "Q_ELECTRON",
    "R0",
    "REST_ENERGY",
    "SI_UNITS",
    "SpinorState",
    "SpinTensorState",
    "StateFunction",
    "T0",
    "Trajectory",
    "UniformEB",
    "WaveFunction",
    "boost_coords",
    "boost_matrix",
    "boost_vector",
    "build_spin_tensor",
    "closed_form_free",
    "compare_formulations",
    "compare_trajectories",
    "constraint_residuals",
    "ensemble_uniformity",
    "free_motion",
    "hamiltonian",
    "identity_suite",
    "integrate",
    "interaction_energy",
    "malus_probability",
    "map_states",
    "matched_initial_states",
    "mdot",
    "operator_identity_suite",
    "oracle_errors",
    "sample_measurements",
    "spin_amplitudes",
    "spin_state",
    "validate_state",
    "__version__",
]
