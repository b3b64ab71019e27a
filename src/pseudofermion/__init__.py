"""Finite-matrix pseudo-fermion structures from deformed boson pairs.

Numerical construction and certification of the ladder algebra that two
non-commuting boson modes induce on each finite excitation level:
overlap Gram matrices, biorthogonal basis realizations, nilpotent
lowering/raising pairs with their intertwining frame operators,
direct-sum assembly across levels, dressed state families with
quadrature resolutions of identity, and a joint-vacuum obstruction scan.
"""

from .assembly import GlobalOperators, assemble
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
    verify_block_system,
)
from .fock import NoGoReport, nogo_joint_kernel
from .overlaps import (
    GramBlock,
    NCBosonParams,
    gram_block,
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
    "anticommutator_reference",
    "assemble",
    "build_block_system",
    "build_family",
    "deformed_number_operators",
    "dual_basis_by_kernel",
    "fixture_basis",
    "gram_block",
    "nogo_joint_kernel",
    "normalized_legendre",
    "realize_basis_cholesky",
    "resolution_of_identity",
    "states_at",
    "upper_symbol",
    "verify_block_system",
    "__version__",
]
