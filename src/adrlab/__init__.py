"""adrlab: dispersion analysis and solvers for compact-difference IMEX
discretizations of the 1D linear advection-diffusion-reaction equation,
plus a positivity-preserving finite-volume solver for the 2D
Patlak-Keller-Segel chemotaxis system.

Submodules (import explicitly; nothing heavy is loaded from the package root):

    adrlab.linalg      banded direct solver (and its dense reference)
    adrlab.operators   CD2 / upwind-compact / Lele / combined-compact matrices
    adrlab.adr1d       the two-stage 1D stepper for the four schemes
    adrlab.spectral    amplification factors, group velocity, phase error
    adrlab.wavepacket  wave-packet error-dynamics experiments
    adrlab.pks2d       2D chemotaxis finite-volume solver
    adrlab.cli         command-line front end
"""

__version__ = "0.1.0"
