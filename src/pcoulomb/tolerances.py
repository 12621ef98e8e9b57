"""Central tolerance record for every gating check in the package.

One place to tighten (or relax) for convergence studies: ``exact``, ``qes``
and ``report`` import these constants by name.
"""

#: relative distance from the coupling surface accepted as "on it"
CONSTRAINT_RTOL = 1e-10
#: coefficient identities, scaled by max(1, |E|)
TOL_RICCATI = 1e-12
#: agreement between the two solution views
TOL_DUAL_VIEW = 1e-12
#: eigensolver vs closed-form energy
TOL_EIGEN = 1e-4
#: oracle level-0 root vs the coupling inversion, relative
TOL_ORACLE_ROOT = 1e-13
#: stated accuracy of the qes constraint roots, relative to the largest
#: |root| of the level (a root near zero is not relatively this accurate)
ROOT_RTOL = 1e-13

#: significant digits reported for info values sampled from closed-form
#: states on the grid.  They are only O(h^2) accurate, and their last few
#: digits move with the exp/log and reduction kernels numpy and OpenBLAS pick
#: for the host CPU (about 1e-13 relative), so 17 digits would not be the
#: same on every host.
GRID_INFO_DIGITS = 10
