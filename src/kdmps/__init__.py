"""Kept/discarded projector toolkit for finite matrix product states.

Dense MPS/MPO machinery, the kept- and discarded-space projector algebra
(local, global, and irreducible n-site projectors), DMRG ground-state
search, the n-site energy variance diagnostic, and the finite-chain n-site
excitation eigensolver, all cross-checked against brute-force dense linear
algebra on small chains.
"""

from .tensor import Tensor, TruncationPolicy, orthogonal_complement, svd_split
from .mps import Mps, canonicalize, mps_add, overlap, random_mps
from .mpo import Mpo, expectation, haldane_shastry_mpo, heisenberg_mpo, mpo_sum_compress
from .projectors import (
    DiscardedBases,
    KeptBases,
    ProjectorSpec,
    apply_projector,
    build_bases,
    convert_kd_dk,
    dense_projector,
    subspace_dimension,
)
from .dmrg import DmrgOptions, apply_effective, build_env, dmrg_ground_state, lanczos_lowest
from .variance import VarianceReport, nsite_variance
from .excitation import (
    ExcitationState,
    apply_projected_h,
    build_exc_env,
    ex_axpy,
    ex_overlap,
    gauge_fix_T1,
    init_excitation,
    solve_lowest_excitation,
)
from .ed import DenseState, dense_apply, dense_hamiltonian, dense_state, exact_spectrum, verify_identity_suite

__all__ = [
    "Tensor",
    "TruncationPolicy",
    "svd_split",
    "orthogonal_complement",
    "Mps",
    "random_mps",
    "canonicalize",
    "overlap",
    "mps_add",
    "Mpo",
    "heisenberg_mpo",
    "haldane_shastry_mpo",
    "mpo_sum_compress",
    "expectation",
    "KeptBases",
    "DiscardedBases",
    "ProjectorSpec",
    "build_bases",
    "apply_projector",
    "dense_projector",
    "subspace_dimension",
    "convert_kd_dk",
    "DmrgOptions",
    "build_env",
    "apply_effective",
    "lanczos_lowest",
    "dmrg_ground_state",
    "VarianceReport",
    "nsite_variance",
    "ExcitationState",
    "init_excitation",
    "gauge_fix_T1",
    "ex_overlap",
    "ex_axpy",
    "build_exc_env",
    "apply_projected_h",
    "solve_lowest_excitation",
    "DenseState",
    "dense_state",
    "dense_hamiltonian",
    "dense_apply",
    "exact_spectrum",
    "verify_identity_suite",
]

__version__ = "0.1.0"
