"""The n-site decomposition of the energy variance of an MPS.

For a normalized state and a Hamiltonian MPO, the defect ||(H - E) psi||^2
splits into contributions from irreducible n-site fluctuations: the n=1
piece collects discarded-kept components of H|psi> site by site, every
n >= 2 piece collects discarded-discarded components across windows of n
contiguous sites. Since the reference is annihilated by every irreducible
projector with n > 0, the average energy E drops out exactly; no (H - E)
subtraction appears anywhere.

Each window term is evaluated in the mixed-canonical gauge centered inside
the window, with environments from one shared cache. Discarded sectors are
applied through 1 - A A^T (left) and 1 - B^T B (right) on the window edge
legs; only the n - 2 interior legs stay open, so the cost is polynomial in
the bond dimensions and exponential only in n.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the benchmark's tracer patches build_bases, build_env, apply_window,
# dense_state and dense_hamiltonian on this module, so each is imported here
# by name (dense_hamiltonian too, though nothing here calls it)
from .dmrg import build_env
from .ed import DENSE_GUARD, dense_apply, dense_hamiltonian, dense_state  # noqa: F401
from .mps import Mps
from .mpo import Mpo
from .projectors import _project_out_left, _project_out_right, build_bases
from .tensor import apply_window

__all__ = ["VarianceReport", "nsite_variance", "write_variance_csv"]

NEGATIVE_CLIP = -1e-14  # squared norms this far below zero are round-off


@dataclass(frozen=True)
class VarianceReport:
    """Energy, per-n defect contributions, and their running sum.

    ``values[k]`` is the contribution of irreducible (k+1)-site
    fluctuations; ``cumulative`` is its prefix sum. ``total_dense`` holds
    ||(H - E) psi||^2 computed brute force on the full amplitude vector
    (H is folded over it site by site; no matrix is formed) when the chain
    is within the dense guard, else None.
    """

    energy: float
    n_max: int
    values: np.ndarray
    cumulative: np.ndarray
    total_dense: float | None


def nsite_variance(psi: Mps, h: Mpo, n_max: int) -> VarianceReport:
    """Per-n energy-variance contributions for n = 1..n_max.

    The state is normalized internally; ``h`` must match its shape.
    """
    if not 1 <= n_max <= psi.L:
        raise ValueError(f"n_max must lie in [1, {psi.L}]")
    bases, _ = build_bases(psi)
    env = build_env(bases.reference, h, bases=bases)
    L = bases.L
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    w = [t.data for t in h.sites]
    energy = env.energy_at_bond(0)

    values = np.zeros(n_max)
    for n in range(1, n_max + 1):
        total = 0.0
        for l in range(1, L + 2 - n):
            kets = [bases.center_site(l).data] + b[l : l + n - 1]
            window = apply_window(env.lefts[l - 1], w[l - 1 : l + n - 1], kets, env.rights[l + n])
            shape = window.shape  # (D_{l-1}, d, ..., d, D_{l+n-1})
            out = _project_out_left(window.reshape(shape[0], shape[1], -1), a[l - 1]).reshape(shape)
            if n >= 2:
                flat = out.reshape(-1, shape[-2], shape[-1])
                out = _project_out_right(flat, b[l + n - 2]).reshape(shape)
            total += float(np.sum(out**2))
        values[n - 1] = total

    negative = values < 0.0
    if np.any(values < NEGATIVE_CLIP):
        warnings.warn("clipped negative variance round-off to zero", stacklevel=2)
    values[negative] = 0.0

    total_dense = None
    if psi.d**L <= DENSE_GUARD:
        vec = dense_state(bases.reference).vec
        resid = dense_apply(h, vec) - energy * vec
        total_dense = float(resid @ resid)
    return VarianceReport(
        energy=energy,
        n_max=n_max,
        values=values,
        cumulative=np.cumsum(values),
        total_dense=total_dense,
    )


def write_variance_csv(report: VarianceReport, path) -> None:
    """One row per n: n, its contribution, and the running sum."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "delta_n_perp", "delta_ns_cumulative"])
        for i in range(report.n_max):
            writer.writerow([i + 1, f"{report.values[i]:.12g}", f"{report.cumulative[i]:.12g}"])
