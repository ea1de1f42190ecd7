"""The n-site decomposition of the energy variance of an MPS.

For a normalized state and a Hamiltonian MPO, the defect ||(H - E) psi||^2
splits into contributions from irreducible n-site fluctuations: the n=1
piece collects discarded-kept components of H|psi> site by site, every
n >= 2 piece collects discarded-discarded components across windows of n
contiguous sites. Since the reference is annihilated by every irreducible
projector with n > 0, the average energy E drops out exactly; no (H - E)
subtraction appears anywhere.

Each window term is evaluated in the mixed-canonical gauge centered inside
the window, with environments from one shared cache. The windows starting
at one site share one open environment, grown by a ket and an MPO site per
added site. Discarded sectors are applied through 1 - A A^T (left) and
1 - B^T B (right) on the edge legs; only the n - 2 interior legs stay open,
so the cost is polynomial in the bond dimensions and exponential only in n.

A window with no discarded space at an end is zero, and is skipped rather
than projected to round-off: every window from a start site l with
Dbar^A_l = 0, and for n >= 2 the close-out of a window whose last site has
Dbar^B = 0. A start site grows its open environment only up to its last
nonzero window. The windows closed are exactly the nonzero terms of
:func:`kdmps.projectors.subspace_dimension`, and the dimensions come from
:attr:`kdmps.projectors.KeptBases.discarded_left_dims` and
``discarded_right_dims``, as there.

A call allocates its working memory once: every ket step writes into one
flat buffer and every MPO step into another, each sized from the bond
dimensions for its largest result over the windows grown, so the open
environment ping-pongs between the two. Each closed window is a new array, projected
and squared in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the benchmark's tracer patches build_bases, build_env, apply_window,
# dense_state and dense_hamiltonian on this module, so each is imported here
# by name (dense_hamiltonian too, though nothing here calls it); each window
# is closed through apply_window so that its wrapper counts the windows
from .dmrg import build_env
from .ed import dense_apply, dense_hamiltonian, dense_state, within_guard  # noqa: F401
from .mps import Mps
from .mpo import Mpo
from .projectors import build_bases
from .tensor import apply_window, ket_step, mpo_step

__all__ = ["VarianceReport", "nsite_variance", "write_variance_csv"]


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
    bases = build_bases(psi)
    env = build_env(bases, h)
    L, d, w = bases.L, bases.d, h.bond_dims
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    energy = env.energy_at_bond(0)

    # closes[l]: the window sizes n closed from start site l, those with a
    # discarded space at both ends; the site grows up to the last of them
    dbar_a, dbar_b = bases.discarded_left_dims, bases.discarded_right_dims
    closes = {
        l: [n for n in range(1, min(n_max, L + 1 - l) + 1) if n == 1 or dbar_b[l + n - 2]]
        for l in range(1, L + 1)
        if dbar_a[l - 1]
    }

    # growing window n at site l gives (D_{l-1}, d^n, w, D_{l+n-1}) results,
    # w being the MPO bond left of site l+n-1 after the ket step and right of
    # it after the MPO step; each step writes into its own buffer, sized for
    # its largest result over all windows grown
    edges = [
        (l, n, a[l - 1].shape[0] * d**n * b[l + n - 2].shape[2])
        for l, ns in closes.items()
        for n in range(1, ns[-1] + 1)
    ]
    ket_buf = np.empty(max((e * w[l + n - 2] for l, n, e in edges), default=0))
    mpo_buf = np.empty(max((e * w[l + n - 1] for l, n, e in edges), default=0))

    values = np.zeros(n_max)  # values[n-1] accumulates in ascending l
    for l, ns in closes.items():
        z = env.lefts[l - 1]
        kets = [bases.center_site(l)] + b[l:]
        am = a[l - 1].reshape(-1, a[l - 1].shape[2])
        for n in range(1, ns[-1] + 1):
            z = mpo_step(ket_step(z, kets[n - 1], ket_buf), h.ops[l + n - 2], n - 1, mpo_buf)
            if n not in ns:
                continue
            out = apply_window(z, (), (), env.rights[l + n - 1])  # (D_{l-1}, d, ..., d, D_{l+n-1})
            m = out.reshape(len(am), -1)
            m -= am @ (am.T @ m)  # 1 - A A^T on the (left bond, first physical) legs
            if n >= 2:
                bm = b[l + n - 2].reshape(len(b[l + n - 2]), -1)
                m = out.reshape(-1, bm.shape[1])
                m -= (m @ bm.T) @ bm  # 1 - B^T B on the (last physical, right bond) legs
            values[n - 1] += float(np.sum(np.square(out, out=out)))

    total_dense = None
    if within_guard(bases.d, L):
        vec = dense_state(bases.reference)
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
