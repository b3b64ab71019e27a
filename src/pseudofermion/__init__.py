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
    build_block_system,
    deformed_number_operators,
    dual_basis_by_kernel,
    fixture_basis,
    realize_basis_cholesky,
    synthesize_ladders,
    verify_block_system,
)
from .fock import (
    NoGoReport,
    lowering_matrix,
    nogo_joint_kernel,
)
from .overlaps import (
    GramBlock,
    NCBosonParams,
    gram_block,
    sym_power,
)

__version__ = "0.1.0"

__all__ = [
    "BicoherentFamily",
    "BlockBasis",
    "BlockSystem",
    "DeformedLevelOperators",
    "GlobalOperators",
    "GramBlock",
    "NCBosonParams",
    "NoGoReport",
    "PositivityError",
    "ResolutionReport",
    "anticommutator_reference",
    "assemble",
    "build_block_system",
    "build_family",
    "deformed_number_operators",
    "dual_basis_by_kernel",
    "fixture_basis",
    "global_resolution_check",
    "gram_block",
    "lowering_matrix",
    "nogo_joint_kernel",
    "normalized_legendre",
    "realize_basis_cholesky",
    "resolution_of_identity",
    "states_at",
    "sym_power",
    "synthesize_ladders",
    "upper_symbol",
    "verify_block_system",
    "__version__",
]
