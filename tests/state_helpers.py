"""States the tests build: seeded random excitation states, and sums of
MPS as one direct-sum MPS."""

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


def mps_sum(a, b, ca=1.0, cb=1.0):
    """``ca*a + cb*b`` as their direct sum (:func:`kdmps.tensor.chain_sum`):
    interior bond extents add, and the coefficients go into site 1."""
    return Mps(site_tensors(chain_sum([[t.data for t in psi.sites] for psi in (a, b)], (ca, cb))))
