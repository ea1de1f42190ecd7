"""Kept/discarded projector toolkit for finite matrix product states.

Dense MPS/MPO machinery, the kept- and discarded-space projector algebra
(local, global, and irreducible n-site projectors, each a list of signed
kept/discarded sector-pair terms built by an ``expand_*`` function and
materialized by ``dense_projector``), DMRG ground-state search, the n-site
energy variance diagnostic, and the finite-chain n-site excitation
eigensolver on flat vectors of dense branch windows, all cross-checked
against brute-force dense linear algebra on small chains.
"""

from .tensor import Tensor, TruncationPolicy, orthogonal_complement, svd_split
from .mps import Mps, canonicalize, overlap, random_mps
from .mpo import Mpo, expectation, haldane_shastry_mpo, heisenberg_mpo, mpo_sum_compress
from .projectors import (
    KeptBases,
    build_bases,
    convert_kd_dk,
    dense_projector,
    expand_global,
    expand_global_overlapping,
    expand_irreducible,
    expand_irreducible_overlapping,
    expand_irreducible_right,
    expand_local,
    expand_local_ortho,
    expand_tangent_mixed,
    subspace_dimension,
)
from .dmrg import DmrgOptions, build_env, dmrg_ground_state, lanczos_lowest
from .variance import VarianceReport, nsite_variance
from .excitation import ExcitationState, apply_projected_h, build_exc_env, solve_lowest_excitation
from .ed import dense_apply, dense_hamiltonian, dense_state, exact_spectrum, verify_identity_suite

__all__ = [
    "Tensor",
    "TruncationPolicy",
    "svd_split",
    "orthogonal_complement",
    "Mps",
    "random_mps",
    "canonicalize",
    "overlap",
    "Mpo",
    "heisenberg_mpo",
    "haldane_shastry_mpo",
    "mpo_sum_compress",
    "expectation",
    "KeptBases",
    "build_bases",
    "expand_local",
    "expand_local_ortho",
    "expand_global",
    "expand_global_overlapping",
    "expand_irreducible",
    "expand_irreducible_right",
    "expand_irreducible_overlapping",
    "expand_tangent_mixed",
    "convert_kd_dk",
    "dense_projector",
    "subspace_dimension",
    "DmrgOptions",
    "build_env",
    "lanczos_lowest",
    "dmrg_ground_state",
    "VarianceReport",
    "nsite_variance",
    "ExcitationState",
    "build_exc_env",
    "apply_projected_h",
    "solve_lowest_excitation",
    "dense_state",
    "dense_hamiltonian",
    "dense_apply",
    "exact_spectrum",
    "verify_identity_suite",
]

__version__ = "0.1.0"
