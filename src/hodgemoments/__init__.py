"""Exact Hodge numbers and cohomology bases for symmetric power moment motives.

Everything runs over exact arithmetic (ints and Fractions); there is no
floating point anywhere in the computational path.
"""

from .chains import (BasisSet, DegenerateReduction, GradedChain, build_chain,
                     cohomology_bases, jordan_block_sizes, shift_coker_dims)
from .counting import (block_multiplicity, block_multiplicity_poly, bottom_multiplicity,
                       lattice_step, solution_dim_at_infinity, solution_dim_at_zero)
from .cyclo import (CycloInt, signed_orbit_count, vanishing_orbit_count,
                    vanishing_orbits, vanishing_tuple_count)
from .families import BadFamilyParams, Family
from .hodge import (ConsistencyReport, DimReport, HodgeDiamond, NonIntegralDimension,
                    dims_airy, dims_kl, hodge_airy_closed, hodge_airy_from_basis,
                    hodge_kl_closed, hodge_kl_from_basis, hodge_v21,
                    mixed_hodge_kl3, mixed_hodge_tilde_kl3, verify, verify_sweep)
from .weyl import v21_chain

__version__ = "0.1.0"

__all__ = [
    "BadFamilyParams",
    "BasisSet",
    "ConsistencyReport",
    "CycloInt",
    "DegenerateReduction",
    "DimReport",
    "Family",
    "GradedChain",
    "HodgeDiamond",
    "NonIntegralDimension",
    "block_multiplicity",
    "block_multiplicity_poly",
    "bottom_multiplicity",
    "build_chain",
    "cohomology_bases",
    "dims_airy",
    "dims_kl",
    "hodge_airy_closed",
    "hodge_airy_from_basis",
    "hodge_kl_closed",
    "hodge_kl_from_basis",
    "hodge_v21",
    "jordan_block_sizes",
    "lattice_step",
    "mixed_hodge_kl3",
    "mixed_hodge_tilde_kl3",
    "shift_coker_dims",
    "signed_orbit_count",
    "solution_dim_at_infinity",
    "solution_dim_at_zero",
    "v21_chain",
    "vanishing_orbit_count",
    "vanishing_orbits",
    "vanishing_tuple_count",
    "verify",
    "verify_sweep",
]
