"""Central tolerance constants.

Light-speed units (c = 1) throughout the package; all tolerances are
dimensionless or in those units.
"""

# Default softening length for Coulomb-type potentials
DEFAULT_SOFTENING = 1e-3

# Guard distance around an unsoftened point source (SingularPointError)
SINGULAR_GUARD = 1e-3

# String energy-domain guard: abort when (wbar*r')^2 - p^2 < this
ENERGY_DOMAIN_GUARD = 1e-10

# Relative perturbation scale for finite-difference functional derivatives
FD_RELATIVE_STEP = 1e-6
