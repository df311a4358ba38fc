"""Physical constants (SI) used throughout the package."""

import math

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s
PLANCK_MASS = 2.176434e-8  # kg
PLANCK_LENGTH = 1.616255e-35  # m

# Conversion between the dimensionless GUP strength gamma0 and its SI value
# gamma = gamma0 / (sqrt(M_Planck) * c), in J^(-1/2).
GAMMA_SI_DIVISOR = math.sqrt(PLANCK_MASS) * C_LIGHT  # ~4.4e4 in SI units
