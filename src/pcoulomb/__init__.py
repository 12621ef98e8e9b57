"""Exact solutions of -a/r + br + cr^2 in any dimension, with verification.

The library constructs the closed-form ground solutions of the radial
problem on its coupling-constraint surface, generates the excited-level
hierarchy, and checks its claims against independent oracles: a
polynomial-ansatz reduction (``qes``) and a Laguerre-basis spectral solver
(``spectral``, loaded by ``verify``'s battery and ``sweep``'s rows alone);
``eig`` and the tests use a finite-difference eigensolver (``numerics``).
``report`` builds what each command of the ``pcoulomb`` command line prints
(the solve / verify / oracle / eig documents and the sweep rows) and runs
the verification battery, all without argparse.
"""

# bound before the submodules import: ``report`` stamps it on its documents
__version__ = "0.1.0"

from .model import (
    DimensionSpec,
    LaurentForm,
    PhysicalParams,
    PotentialParams,
    classify_regime,
    dimension_reduce,
    effective_potential,
)
from .susy import (
    ClosedFormState,
    ShapeInvarianceComparison,
    Superpotential,
    ladder_apply,
    lowering_apply,
    partner_potential,
    perturbation_residual,
    riccati_image,
    riccati_residual,
    shape_invariance_compare,
    superpotential_from_state,
)
from .exact import (
    ConstraintViolation,
    EnergyBreakdown,
    GroundSolution,
    SpectrumLevel,
    constraint_a,
    constraint_b,
    constraint_c,
    constraint_residual,
    closed_level,
    coulomb_ground,
    derive_couplings,
    dual_view_check,
    ground_state,
    hierarchy_states,
    level_energy,
    level_superpotential,
    oscillator_view_ground,
    perturbation_ground_coulomb,
    spectrum,
)
from .qes import (
    OracleSolution,
    oracle_reduce,
    oracle_state,
    qes_constraint_polynomial,
    qes_solve,
)
from .numerics import RadialGrid, build_grid, eigen_lowest
from .report import eig_document, oracle_document, solve_document, sweep_row, verify_document

__all__ = [
    "DimensionSpec",
    "LaurentForm",
    "PhysicalParams",
    "PotentialParams",
    "classify_regime",
    "dimension_reduce",
    "effective_potential",
    "ClosedFormState",
    "ShapeInvarianceComparison",
    "Superpotential",
    "ladder_apply",
    "lowering_apply",
    "partner_potential",
    "perturbation_residual",
    "riccati_image",
    "riccati_residual",
    "shape_invariance_compare",
    "superpotential_from_state",
    "ConstraintViolation",
    "EnergyBreakdown",
    "GroundSolution",
    "SpectrumLevel",
    "constraint_a",
    "constraint_b",
    "constraint_c",
    "constraint_residual",
    "closed_level",
    "coulomb_ground",
    "derive_couplings",
    "dual_view_check",
    "ground_state",
    "hierarchy_states",
    "level_energy",
    "level_superpotential",
    "oscillator_view_ground",
    "perturbation_ground_coulomb",
    "spectrum",
    "OracleSolution",
    "oracle_reduce",
    "oracle_state",
    "qes_constraint_polynomial",
    "qes_solve",
    "RadialGrid",
    "build_grid",
    "eigen_lowest",
    "solve_document",
    "verify_document",
    "eig_document",
    "oracle_document",
    "sweep_row",
    "__version__",
]
