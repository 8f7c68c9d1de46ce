"""Physical constants and default parameters.

Units throughout the package: energies in MHz (h = 1), magnetic fields in
gauss, temperatures in kelvin, phonon-mode energies in meV.
"""

# Electron gyromagnetic ratio, MHz/G (g_s ~ 2 times mu_B ~ 1.4 MHz/G).
GAMMA_E = 2.8024

# Nuclear gyromagnetic ratios, MHz/G (literature values).
GAMMA_N14 = 3.077e-4
GAMMA_N15 = -4.3156e-4
GAMMA_C13 = 1.0705e-3

# Two-phonon-mode thermal model of D(T).
ZFS_D0 = 2877.6          # MHz, D at T = 0 (chosen so D(300 K) ~ 2870.4 MHz)
ZFS_C1 = -54.91          # MHz
ZFS_C2 = -249.6          # MHz
ZFS_DELTA1 = 58.73       # meV
ZFS_DELTA2 = 145.5       # meV
K_B_MEV = 8.617333e-2    # meV/K

# P1 (substitutional nitrogen) hyperfine tensor, principal frame, MHz.
P1_A_PERP = 81.3
P1_A_PAR = 114.0

# P1 nuclear quadrupole splitting, MHz (literature value).
P1_Q_PAR = -3.97

# First-shell 13C hyperfine tensor, MHz (Felton-type literature values).
C13_A_PAR = 199.7
C13_A_PERP = 120.3

# Default ad-hoc electron-electron coupling: purely transverse, MHz.
# Keeps the secular (zz) component zero so crossing positions do not shift
# while avoided-crossing gaps open visibly.
EE_COUPLING_TRANSVERSE = 5.0

# Hard cap on the composite Hilbert-space dimension.
DIMENSION_CAP = 1024

# Cap on |gamma| (MHz/G), tensor entries and ZFS fields (MHz) in a spec, and
# on the fields (gauss) a sweep spans.
MAGNITUDE_CAP = 1e6
