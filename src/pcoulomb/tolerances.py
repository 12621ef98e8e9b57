"""Central tolerance record for every gating check in the package.

One place to tighten (or relax) for convergence studies.  The library-level
constants in the other modules alias ``DEFAULT_TOLS`` fields; functions that
gate on a tolerance accept an override argument where that is useful.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: relative distance from the coupling surface accepted as "on it"
    constraint_rtol: float = 1e-10
    #: coefficient identities, scaled by max(1, |E|)
    riccati: float = 1e-12
    #: agreement between the two solution views
    dual_view: float = 1e-12
    #: eigensolver vs closed-form energy
    eigen_vs_closed: float = 1e-4
    #: oracle level-0 root vs the coupling inversion, relative
    oracle_root_rel: float = 1e-13
    #: stated accuracy of the qes constraint roots, relative to the largest
    #: |root| of the level (a root near zero is not relatively this accurate)
    root_bisect_rtol: float = 1e-13
    #: grid residual of exact states at default resolution
    h_residual: float = 1e-6


DEFAULT_TOLS = Tolerances()

#: significant digits reported for info values sampled from closed-form
#: states on the grid.  They are only O(h^2) accurate, and their last few
#: digits move with the exp/log and reduction kernels numpy and OpenBLAS pick
#: for the host CPU (about 1e-13 relative), so 17 digits would not be the
#: same on every host.
GRID_INFO_DIGITS = 10
