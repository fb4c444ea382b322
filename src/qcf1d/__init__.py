"""Force-based atomistic/continuum coupling on a 1D chain.

Library + experiment harness for the coupled force field that mixes a
next-nearest-neighbor atomistic law with a local continuum law, its
linearized operators, their stability across norm pairings, and the
second-order convergence of the coupled solution to the reference one.
"""

from .lattice import (
    DomainSpec,
    Field,
    diff,
    diff3,
    diff4_centered,
    displacement,
    inner,
    lp_norm,
    summed_load,
    uniform_positions,
)
from .potentials import Coefficients, PairPotential, is_admissible, lennard_jones
from .chain import (
    energy_atomistic,
    energy_lqc,
    force_atomistic,
    force_lqc,
    force_qcf,
    max_abs_force_qcf,
)
from .operators import (
    Operator,
    StrainStencil,
    assemble_ea,
    assemble_eqcf,
    assemble_l1,
    assemble_l2,
    assemble_la,
    assemble_llqc,
    assemble_lqcf,
    l2_decomposition,
    pair_with_test,
    strain_stencil,
)
from .stability import (
    dual_norm_star,
    infsup_2,
    infsup_p_upper,
    interface_probe,
    quadratic_form,
    rayleigh_min,
    rdd_margin,
    unstable_candidate,
)
from .solver import (
    ErrorDetails,
    ErrorReport,
    ForceField,
    error_report_detailed,
    named_load,
    solve_atomistic,
    solve_qcf,
    solve_strain,
    truncation_error_stencil,
)

__all__ = [name for name in dir() if not name.startswith("_")]
