"""Desk-scale numerics for noncommutative index theory.

The package computes, at finite truncation, the objects that tie a
projection or unitary over a group algebra to an integer: noncommutative
differential forms and their Chern character forms, cyclic cochains and
the group-cohomology dictionary, the flat projection of a circle cover
and its character-form identity, Toeplitz compressions with their
trace-weighted indices, and spectral flow with the relative index of
spectral projections.  Every computed quantity ships with an independent
oracle in the test suite.
"""

from .chern import (ProjectionPath, bott_integral, bott_projector,
                    chern_even, chern_homotopy_defect, chern_odd,
                    closedness_defect)
from .covering import (CoverData, MFProjection, build_mf_projection,
                       higher_index_rhs, omega_integral, omega_tau,
                       verify_prop_chern, winding_cocycle, zero_cocycle)
from .cyclic import (CyclicChain, CyclicCochain, GroupCocycle, b_transpose,
                     c_to_tau, chern_lambda, closed_cocycle_basis, d_gamma,
                     pair_cochain_form, random_closed_cocycle, tau_to_c)
from .group_algebra import (GA, GAMatrix, GroupAlgebraElement, GroupSpec,
                            cyclic_sectors, delta_word_length,
                            gamatrix_from_sectors, ga_mul, neumann_inverse,
                            trace_e)
from .nc_forms import (ChartGrid2D, CircleGrid, JetFunction, MixedForm,
                       ScalarForm)
from .specflow import (ChiTriple, SelfAdjointPath, pu_projection,
                       relative_index, spectral_flow, verify_oddind)
from .toeplitz import (CircleSystem, RotationSystem, ToeplitzProblem,
                       assemble_toeplitz, dynsys_formula, tau_index,
                       winding_index, winding_oracle)

__all__ = [
    "GA", "GAMatrix", "GroupAlgebraElement", "GroupSpec",
    "cyclic_sectors", "delta_word_length", "gamatrix_from_sectors",
    "ga_mul", "neumann_inverse", "trace_e",
    "ChartGrid2D", "CircleGrid", "JetFunction", "MixedForm", "ScalarForm",
    "CyclicChain", "CyclicCochain", "GroupCocycle", "b_transpose",
    "c_to_tau", "chern_lambda", "closed_cocycle_basis", "d_gamma",
    "pair_cochain_form", "random_closed_cocycle", "tau_to_c",
    "ProjectionPath", "bott_integral", "bott_projector", "chern_even",
    "chern_homotopy_defect", "chern_odd", "closedness_defect",
    "CoverData", "MFProjection", "build_mf_projection", "higher_index_rhs",
    "omega_integral", "omega_tau", "verify_prop_chern", "winding_cocycle",
    "zero_cocycle",
    "CircleSystem", "RotationSystem", "ToeplitzProblem",
    "assemble_toeplitz", "dynsys_formula", "tau_index", "winding_index",
    "winding_oracle",
    "ChiTriple", "SelfAdjointPath", "pu_projection", "relative_index",
    "spectral_flow", "verify_oddind",
]
