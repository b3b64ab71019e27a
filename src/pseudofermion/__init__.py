"""Finite-matrix pseudo-fermion structures from deformed boson pairs.

Numerical construction and certification of the ladder algebra that two
non-commuting boson modes induce on each finite excitation level:
overlap Gram matrices, biorthogonal basis realizations, nilpotent
lowering/raising pairs with their intertwining frame operators,
direct-sum assembly across levels, dressed state families with
quadrature resolutions of identity, and a joint-vacuum obstruction scan.
"""

from .assembly import (
    GlobalOperators,
    ResolutionReport,
    assemble,
    global_resolution_check,
)
from .bicoherent import (
    BicoherentFamily,
    build_family,
    normalized_legendre,
    resolution_of_identity,
    states_at,
    upper_symbol,
)
from .blocks import (
    BlockBasis,
    BlockSystem,
    DeformedLevelOperators,
    PositivityError,
    anticommutator_reference,
    basis_from_h,
    build_block_system,
    deformed_number_operators,
    dual_basis_by_kernel,
    fixture_basis,
    hermitian_sqrt,
    realize_basis_cholesky,
    realize_level,
    synthesize_ladders,
    verify_block_system,
)
from .fock import (
    FockRep,
    NoGoReport,
    build_fock_rep,
    lowering_matrix,
    nogo_joint_kernel,
    raising_matrix,
    stacked_vacuum_conditions,
)
from .overlaps import (
    GramBlock,
    NCBosonParams,
    fock_expand_oracle,
    gram_block,
    overlap,
    sym_power,
)

__version__ = "0.1.0"

__all__ = [
    "BicoherentFamily",
    "BlockBasis",
    "BlockSystem",
    "DeformedLevelOperators",
    "FockRep",
    "GlobalOperators",
    "GramBlock",
    "NCBosonParams",
    "NoGoReport",
    "PositivityError",
    "ResolutionReport",
    "anticommutator_reference",
    "assemble",
    "basis_from_h",
    "build_block_system",
    "build_family",
    "build_fock_rep",
    "deformed_number_operators",
    "dual_basis_by_kernel",
    "fixture_basis",
    "fock_expand_oracle",
    "global_resolution_check",
    "gram_block",
    "hermitian_sqrt",
    "lowering_matrix",
    "nogo_joint_kernel",
    "normalized_legendre",
    "overlap",
    "raising_matrix",
    "realize_basis_cholesky",
    "realize_level",
    "resolution_of_identity",
    "stacked_vacuum_conditions",
    "states_at",
    "sym_power",
    "synthesize_ladders",
    "upper_symbol",
    "verify_block_system",
    "__version__",
]
