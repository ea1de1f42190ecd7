"""States the tests build: seeded random excitation states, random MPS
with given bond dimensions, and sums of MPS as one direct-sum MPS."""

import math

import numpy as np

from kdmps.excitation import _gauge_fix_windows, _join_flat, _split_flat, _window_shapes, state_from_flat
from kdmps.mps import Mps, site_tensors
from kdmps.tensor import chain_sum


def random_excitation(bases, n, seed=0):
    """A seeded random n-site excitation state of the gauge ``bases``: one
    standard-normal draw over every window entry, gauge-fixed, normalized
    and split into window chains (:func:`kdmps.excitation.state_from_flat`).
    The window chains keep the full interior bond dimension, so the branch
    windows span the whole image of their projectors."""
    size = sum(math.prod(shape) for shape in _window_shapes(bases, n))
    rng = np.random.Generator(np.random.PCG64(seed))
    v = _join_flat(_gauge_fix_windows(bases, _split_flat(bases, n, rng.standard_normal(size))))
    return state_from_flat(bases, n, v / np.linalg.norm(v))


# bonds D_0..D_6 of a chain whose discarded spaces are empty in its
# interior: Dbar^A_l = (0, 1, 0, 9, 4, 3), so excitation branch 3 carries
# nothing between branches 2 and 4, and Dbar^B_l = (3, 4, 9, 0, 1, 0)
INTERIOR_EMPTY_BONDS = (1, 2, 3, 6, 3, 2, 1)


def mps_with_bonds(bonds, seed=0):
    """A seeded random MPS of local dimension 2 whose bond dimensions
    D_0..D_L are ``bonds``. Its tensors are generic, so its gauge keeps
    these bonds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Mps(site_tensors([rng.standard_normal((dl, 2, dr)) for dl, dr in zip(bonds, bonds[1:])]))


def mps_sum(a, b, ca=1.0, cb=1.0):
    """``ca*a + cb*b`` as their direct sum (:func:`kdmps.tensor.chain_sum`):
    interior bond extents add, and the coefficients go into site 1."""
    return Mps(site_tensors(chain_sum([[t.data for t in psi.sites] for psi in (a, b)], (ca, cb))))
