"""Physical constants and unit conventions used throughout the package.

All wavelengths are vacuum values in nm, energies in eV or meV (explicit),
times in ns, temperatures in K.
"""

# hc in eV*nm (vacuum): E[eV] = EV_NM / lambda[nm]
EV_NM = 1239.84198

# Boltzmann constant in meV/K
KB_MEV_PER_K = 0.0861733

# Ordinary refractive index of 4H SiC near 1.3 um (configurable downstream)
N_SIC_DEFAULT = 2.56

# The most points a sampling grid or finesse sweep may hold (80 MB a float column)
MAX_GRID_POINTS = 10**7
