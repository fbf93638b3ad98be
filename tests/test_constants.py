"""The SI values hard-coded in zsim.constants are scipy.constants' values.

zsim does not import scipy.constants, so a new CODATA release in scipy
would otherwise go unnoticed; these tests then fail and name the value.
"""

import pytest
import scipy.constants as codata

from zsim import constants


@pytest.mark.parametrize("name, reference", [
    ("_ME", "m_e"), ("_C_SI", "c"), ("_HBAR_SI", "hbar"), ("_E_SI", "e"),
])
def test_si_literals_match_scipy(name, reference):
    assert getattr(constants, name) == getattr(codata, reference)


def test_si_units_match_scipy():
    me, c, hbar, e = codata.m_e, codata.c, codata.hbar, codata.e
    expected = {
        "time_s": hbar / (me * c**2),
        "length_m": hbar / (me * c),
        "velocity_m_per_s": c,
        "energy_J": me * c**2,
        "energy_eV": me * c**2 / e,
        "momentum_kg_m_per_s": me * c,
        "angular_frequency_rad_per_s": me * c**2 / hbar,
        "magnetic_field_T": me**2 * c**2 / (e * hbar),
        "electric_field_V_per_m": me**2 * c**3 / (e * hbar),
        "action_J_s": hbar,
    }
    assert constants.SI_UNITS == expected
