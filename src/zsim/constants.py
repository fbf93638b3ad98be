"""Model constants in natural units, plus SI conversion factors.

All internal computation uses natural units with hbar = m = c = 1, where m
is the electron mass.  In these units the local circulation ("zitter")
angular frequency is OMEGA0 = 2, the state-phase frequency is OMEGA1 = 1,
the circulation radius is R0 = 1/2, and the reduced spin magnitude is
H_STAR = 1/2.  The rest energy m c^2 equals 1.

The SI_UNITS table gives the multiplicative factor that converts one
natural unit of each quantity into SI, using CODATA electron values.
Example: a natural time of pi (one zitter period) corresponds to
pi * SI_UNITS["time_s"] seconds.
"""

from __future__ import annotations

import math

# Natural-unit fundamentals.  Do not change these; the closed forms and
# frozen test values assume them.
HBAR = 1.0
MASS = 1.0
C = 1.0

#: Elementary charge in natural units.
E_CHARGE = 1.0
#: Electron charge (negative by convention).
Q_ELECTRON = -E_CHARGE

#: Angular frequency of the local circular motion, 2 m c^2 / hbar.
OMEGA0 = 2.0 * MASS * C**2 / HBAR
#: Angular frequency of the state-function phase, m c^2 / hbar.
OMEGA1 = MASS * C**2 / HBAR
#: Radius of the local circular motion, c / OMEGA0.
R0 = C / OMEGA0
#: Spin magnitude hbar / 2.
H_STAR = HBAR / 2.0
#: Rest energy m c^2.
REST_ENERGY = MASS * C**2
#: Proper-time period of one zitter revolution, 2 pi / OMEGA0.
T0 = 2.0 * math.pi / OMEGA0

# SI values: the electron mass is CODATA 2022; c, e and hbar = h / (2 pi)
# are exact in the 2019 SI.  Written as literals so that importing zsim
# does not import scipy.constants; tests/test_constants.py pins each one
# to scipy.constants bit for bit.
_ME = 9.1093837139e-31
_C_SI = 299792458.0
_HBAR_SI = 1.0545718176461565e-34
_E_SI = 1.602176634e-19

#: Conversion factors: value_in_SI = value_natural * SI_UNITS[key].
SI_UNITS = {
    "time_s": _HBAR_SI / (_ME * _C_SI**2),
    "length_m": _HBAR_SI / (_ME * _C_SI),
    "velocity_m_per_s": _C_SI,
    "energy_J": _ME * _C_SI**2,
    "energy_eV": _ME * _C_SI**2 / _E_SI,
    "momentum_kg_m_per_s": _ME * _C_SI,
    "angular_frequency_rad_per_s": _ME * _C_SI**2 / _HBAR_SI,
    "magnetic_field_T": _ME**2 * _C_SI**2 / (_E_SI * _HBAR_SI),
    "electric_field_V_per_m": _ME**2 * _C_SI**3 / (_E_SI * _HBAR_SI),
    "action_J_s": _HBAR_SI,
}
