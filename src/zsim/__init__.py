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

__version__ = "0.1.0"
