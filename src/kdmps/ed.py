"""Brute-force dense reference: full Hilbert-space vectors and matrices.

Everything here scales exponentially in the chain length. The dense guard
``d^L <= 4096`` is stated once, in :func:`within_guard`; every dense entry
point (here and in :mod:`kdmps.projectors`) calls :func:`guard_dims` before
it allocates anything. This module is the single source of truth the rest
of the package is verified against: no routine below reuses the
transfer-network code paths it is meant to check. States and chain frames
come from one left-to-right fold, :func:`fold_chain`; operators are
materialized by explicit kron/reshape sums; :func:`dense_apply` folds the
MPO over an amplitude vector one site at a time without forming the
matrix; and :func:`verify_identity_suite` re-derives every projector
identity as a literal matrix statement. Results are plain ndarrays.

Basis order is lexicographic in (sigma_1, ..., sigma_L), sigma_1 slowest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mps import Mps
from .mpo import Mpo

__all__ = [
    "DENSE_GUARD",
    "IdentityReport",
    "fold_chain",
    "dense_state",
    "dense_hamiltonian",
    "dense_apply",
    "exact_spectrum",
    "dense_rank",
    "guard_dims",
    "within_guard",
    "verify_identity_suite",
]

DENSE_GUARD = 4096
RANK_CUTOFF = 1e-8  # singular values below this (relative) do not count


def within_guard(d: int, L: int) -> bool:
    """Whether a chain of L sites of dimension d is small enough to go dense."""
    return d**L <= DENSE_GUARD


def guard_dims(d: int, L: int) -> None:
    if not within_guard(d, L):
        raise ValueError(f"dense guard exceeded: d^L = {d**L} > {DENSE_GUARD}")


def fold_chain(arrs: list[np.ndarray]) -> np.ndarray:
    """Contract a chain of (left, physical, right) site arrays, left to right.

    Returns the (D_left, d^m, D_right) array with the physical index in
    lexicographic order; the empty chain is ``ones((1, 1, 1))``. A left
    chain's (d^m x D) frame is ``fold_chain(a)[0]``, a right chain's is
    ``fold_chain(b)[:, :, 0].T``. Extents are tracked explicitly, so
    zero-dimensional bonds fold cleanly.
    """
    left = arrs[0].shape[0] if arrs else 1
    phys = 1
    cur = np.eye(left)  # (left * phys, right)
    for a in arrs:
        cur = np.tensordot(cur, a, axes=(1, 0))
        phys *= a.shape[1]
        cur = cur.reshape(left * phys, a.shape[2])
    return cur.reshape(left, phys, cur.shape[1])


def dense_state(psi: Mps) -> np.ndarray:
    """Contract an MPS into its full d^L amplitude vector."""
    guard_dims(psi.d, psi.L)
    return fold_chain([t.data for t in psi.sites]).reshape(-1)


def dense_hamiltonian(h: Mpo) -> np.ndarray:
    """Contract an MPO into its full d^L x d^L matrix (rows = output index)."""
    guard_dims(h.d, h.L)
    cur = np.ones((1, 1, 1))  # (row prefix, col prefix, right mpo bond)
    for t in h.sites:
        w = t.data  # (wl, p, q, wr)
        cur = np.tensordot(cur, w, axes=(2, 0))  # (row, col, p, q, wr)
        cur = cur.transpose(0, 2, 1, 3, 4)
        cur = cur.reshape(cur.shape[0] * cur.shape[1], cur.shape[2] * cur.shape[3], -1)
    return cur[:, :, 0]


def dense_apply(h: Mpo, vec) -> np.ndarray:
    """H|vec> for a full amplitude vector, without forming the matrix.

    The MPO is folded over the vector one site at a time; the work array
    holds (output prefix, MPO bond, input suffix), so memory stays at
    d^L times one MPO bond.
    """
    guard_dims(h.d, h.L)
    d = h.d
    vec = np.asarray(vec)
    if vec.shape != (d**h.L,):
        raise ValueError(f"vector of shape {vec.shape} does not match d^L = {d**h.L}")
    cur = vec.reshape(1, 1, -1)  # (output prefix, mpo bond, input suffix)
    for t in h.sites:
        w = t.data  # (wl, p, q, wr)
        rows, wl, rest = cur.shape
        cur = cur.reshape(rows, wl, d, rest // d)
        cur = np.tensordot(cur, w, axes=((1, 2), (0, 2)))  # (row, suffix, p, wr)
        cur = cur.transpose(0, 2, 3, 1)
        cur = cur.reshape(rows * d, w.shape[3], rest // d)
    return cur.reshape(-1)


def exact_spectrum(m: np.ndarray, k: int | None = None) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric matrix, ascending.

    Raises:
        ValueError: k is below 1, or the input is not symmetric (max
            asymmetry above 1e-10).
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    m = np.asarray(m)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    vals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return vals if k is None else vals[:k]


def dense_rank(m: np.ndarray) -> int:
    """Matrix rank via singular values with a 1e-8 relative threshold."""
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_CUTOFF * s[0]))


# ---------- the identity suite ----------


@dataclass(frozen=True)
class IdentityReport:
    """Max-deviation of every verified identity by name; each passes when
    its deviation is at most the shared bar ``tol``."""

    tol: float
    checks: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(dev <= self.tol for dev in self.checks.values())

    def to_json(self) -> str:
        payload = {name: {"max_abs_deviation": dev, "pass": dev <= self.tol} for name, dev in self.checks.items()}
        return json.dumps(payload, indent=2)

    def __str__(self) -> str:
        width = max(len(name) for name in self.checks)
        lines = [
            f"{name:<{width}}  {dev:12.3e}  {'pass' if dev <= self.tol else 'FAIL'}"
            for name, dev in self.checks.items()
        ]
        return "\n".join(lines)


def verify_identity_suite(psi: Mps, h: Mpo, tol: float = 1e-10) -> IdentityReport:
    """Verify the whole projector formalism densely for one state/operator.

    Every identity the package relies on is restated as a literal matrix
    equation on the full Hilbert space and evaluated brute force: gauge and
    complement blocks, parent-space completeness, the product rules of the
    sector-pair projectors, the local/global/irreducible constructions and
    their alternative forms, the effective-Hamiltonian restrictions, and
    the defect decomposition (including energy-shift invariance).
    """
    from .dmrg import build_env, effective_ham
    from .mpo import mpo_shift
    from .projectors import (
        build_bases,
        convert_kd_dk,
        dense_projector,
        dense_sector_pair,
        expand_global,
        expand_global_overlapping,
        expand_irreducible,
        expand_irreducible_overlapping,
        expand_irreducible_right,
        expand_local_ortho,
        expand_tangent_mixed,
        subspace_dimension,
    )
    from .variance import nsite_variance

    guard_dims(psi.d, psi.L)
    L, d = psi.L, psi.d
    dim = d**L
    eye = np.eye(dim)
    bases = build_bases(psi)
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    dims = bases.dims
    hmat = dense_hamiltonian(h)
    vec = dense_state(bases.reference)
    checks: dict[str, float] = {}

    pair_cache: dict[tuple, np.ndarray] = {}

    def pmat(x: str, xbar: str, l: int, lbar: int) -> np.ndarray:
        key = (x, xbar, l, lbar)
        if key not in pair_cache:
            pair_cache[key] = dense_sector_pair(bases, key)
        return pair_cache[key]

    def local(n: int, l: int) -> np.ndarray:
        return pmat("K", "K", l - 1, l + n)

    # gauge blocks: kept/complement orthonormality and completeness
    dev = 0.0
    for l in range(1, L + 1):
        am = a[l - 1].reshape(dims[l - 1] * d, dims[l])
        abm = bases.discarded_left[l - 1].reshape(dims[l - 1] * d, -1)
        bm = b[l - 1].reshape(dims[l - 1], d * dims[l])
        bbm = bases.discarded_right[l - 1].reshape(-1, d * dims[l])
        dev = max(dev, np.max(np.abs(am.T @ am - np.eye(dims[l]))))
        dev = max(dev, np.max(np.abs(bm @ bm.T - np.eye(dims[l - 1]))))
        if abm.shape[1]:
            dev = max(dev, np.max(np.abs(abm.T @ abm - np.eye(abm.shape[1]))))
            dev = max(dev, np.max(np.abs(am.T @ abm)))
        if bbm.shape[0]:
            dev = max(dev, np.max(np.abs(bbm @ bbm.T - np.eye(bbm.shape[0]))))
            dev = max(dev, np.max(np.abs(bbm @ bm.T)))
        dev = max(dev, np.max(np.abs(am @ am.T + abm @ abm.T - np.eye(dims[l - 1] * d))))
        dev = max(dev, np.max(np.abs(bm.T @ bm + bbm.T @ bbm - np.eye(d * dims[l]))))
    checks["isometry_and_complement_blocks"] = float(dev)

    # one fixed isometry family rebuilds the state at every bond and site
    chains = [a[:l] + [bases.bond[l][:, None, :]] + b[l:] for l in range(0, L + 1)]
    chains += [a[: l - 1] + [bases.center_site(l)] + b[l:] for l in range(1, L + 1)]
    dev = max(np.max(np.abs(fold_chain(chain).reshape(-1) - vec)) for chain in chains)
    checks["canonical_form_equivalence"] = float(dev)

    # kept + discarded = parent, as full-chain projectors
    dev = 0.0
    for l in range(1, L + 1):
        lhs = pmat("K", "K", l, L + 1) + pmat("D", "K", l, L + 1)
        rhs = pmat("K", "K", l - 1, L + 1)
        dev = max(dev, np.max(np.abs(lhs - rhs)))
        lhs = pmat("K", "K", 0, l) + pmat("K", "D", 0, l)
        rhs = pmat("K", "K", 0, l + 1)
        dev = max(dev, np.max(np.abs(lhs - rhs)))
    checks["parent_space_completeness"] = float(dev)

    # product rules for projectors with environments on one side
    dev = 0.0
    for x in "KD":
        for xb in "KD":
            for l in range(0, L + 1):
                for lb in range(0, L + 1):
                    left = pmat(x, "K", l, L + 1) @ pmat(xb, "K", lb, L + 1)
                    if l < lb:
                        want = pmat(xb, "K", lb, L + 1) if x == "K" else 0.0
                    elif l == lb:
                        want = pmat(x, "K", l, L + 1) if x == xb else 0.0
                    else:
                        want = pmat(x, "K", l, L + 1) if xb == "K" else 0.0
                    dev = max(dev, np.max(np.abs(left - want)))
            for l in range(1, L + 2):
                for lb in range(1, L + 2):
                    left = pmat("K", x, 0, l) @ pmat("K", xb, 0, lb)
                    if l < lb:
                        want = pmat("K", x, 0, l) if xb == "K" else 0.0
                    elif l == lb:
                        want = pmat("K", x, 0, l) if x == xb else 0.0
                    else:
                        want = pmat("K", xb, 0, lb) if x == "K" else 0.0
                    dev = max(dev, np.max(np.abs(left - want)))
    checks["same_side_products"] = float(dev)

    # same-anchor products are orthonormal in both sector labels
    dev = 0.0
    for l in range(0, L):
        for lb in range(l + 1, L + 2):
            mats = {(x, xb): pmat(x, xb, l, lb) for x in "KD" for xb in "KD"}
            for k1, m1 in mats.items():
                for k2, m2 in mats.items():
                    want = m1 if k1 == k2 else 0.0
                    dev = max(dev, np.max(np.abs(m1 @ m2 - want)))
    checks["same_anchor_orthonormality"] = float(dev)

    # an earlier left D (or later right D) annihilates any other projector
    dev = 0.0
    for l in range(1, L):
        for lp in range(l + 1, min(l + 3, L + 1)):
            for lb in range(l + 1, min(l + 3, L + 2)):
                for lbp in range(lp + 1, min(lp + 3, L + 2)):
                    for xb in "KD":
                        for xp in "KD":
                            for xbp in "KD":
                                m = pmat("D", xb, l, lb) @ pmat(xp, xbp, lp, lbp)
                                dev = max(dev, np.max(np.abs(m)))
                                if lb < lbp and lp > l:
                                    m = pmat(xp, xb, l, lb) @ pmat(xbp, "D", lp, lbp)
                                    dev = max(dev, np.max(np.abs(m)))
    checks["mixed_annihilation"] = float(dev)

    # same-side double-D products vanish across anchors and collapse on them
    dev = 0.0
    for l in range(1, L):
        for lp in range(1, L):
            for lb in range(l + 1, L + 1):
                for lbp in range(lp + 1, L + 1):
                    prod = pmat("D", "K", l, lb) @ pmat("D", "D", lp, lbp)
                    if l != lp:
                        dev = max(dev, np.max(np.abs(prod)))
                    elif lb > lbp:
                        dev = max(dev, np.max(np.abs(prod - pmat("D", "D", l, lbp))))
                    else:
                        dev = max(dev, np.max(np.abs(prod)))
                    if lb != lbp:  # mirror rule for right-anchored discarded pairs
                        prod = pmat("K", "D", l, lb) @ pmat("D", "D", lp, lbp)
                        dev = max(dev, np.max(np.abs(prod)))
    checks["dd_collapse"] = float(dev)

    # neighboring local projectors collapse to the shared smaller window
    dev = 0.0
    for n in range(1, L):
        for l in range(1, L + 1 - n):
            lhs = local(n, l) @ local(n, l + 1)
            dev = max(dev, np.max(np.abs(lhs - local(n - 1, l + 1))))
        for l in range(1, L - n):
            for lp in range(l + 1, L + 2 - n):
                ref = local(n, l) @ local(n, lp)
                dev = max(dev, np.max(np.abs(local(n - 1, l + 1) @ local(n, lp) - ref)))
                dev = max(dev, np.max(np.abs(local(n, l) @ local(n - 1, lp) - ref)))
                dev = max(dev, np.max(np.abs(local(n - 1, l + 1) @ local(n - 1, lp) - ref)))
    checks["mismatch_collapse"] = float(dev)

    # each local projector splits off a discarded piece on either side
    dev = 0.0
    for n in range(1, L + 1):
        for l in range(1, L + 2 - n):
            p = local(n, l)
            dev = max(dev, np.max(np.abs(p - local(n - 1, l + 1) - pmat("D", "K", l, l + n))))
            dev = max(dev, np.max(np.abs(p - local(n - 1, l) - pmat("K", "D", l - 1, l - 1 + n))))
    checks["local_decompositions"] = float(dev)

    # one-sided orthogonalized locals: closed form and product rules
    dev = 0.0
    for n in range(1, L):
        for l in range(1, L + 1 - n):
            lt = dense_projector(expand_local_ortho(n, l, "<", L), bases)
            dev = max(dev, np.max(np.abs(lt - local(n, l) @ (eye - local(n, l + 1)))))
        for l in range(2, L + 2 - n):
            gt = dense_projector(expand_local_ortho(n, l, ">", L), bases)
            dev = max(dev, np.max(np.abs(gt - local(n, l) @ (eye - local(n, l - 1)))))
    checks["local_ortho_forms"] = float(dev)

    dev = 0.0
    for n in range(1, min(3, L)):
        less = {l: dense_projector(expand_local_ortho(n, l, "<", L), bases) for l in range(1, L + 1 - n)}
        greater = {l: dense_projector(expand_local_ortho(n, l, ">", L), bases) for l in range(2, L + 2 - n)}
        for l, m1 in less.items():
            for lp, m2 in less.items():
                want = m1 if l == lp else 0.0
                dev = max(dev, np.max(np.abs(m1 @ m2 - want)))
            for lp, m2 in greater.items():
                if l < lp:
                    dev = max(dev, np.max(np.abs(m1 @ m2)))
            for lp in range(1, L + 2 - n):
                if l < lp:
                    dev = max(dev, np.max(np.abs(m1 @ local(n, lp))))
        for l, m1 in greater.items():
            for lp, m2 in greater.items():
                want = m1 if l == lp else 0.0
                dev = max(dev, np.max(np.abs(m1 @ m2 - want)))
            for lp in range(1, L + 2 - n):
                if l > lp:
                    dev = max(dev, np.max(np.abs(m1 @ local(n, lp))))
    checks["local_ortho_orthogonality"] = float(dev)

    # telescoped conversion between left- and right-discarded rows
    dev = 0.0
    for n in range(1, min(3, L)):
        for lbar in range(1, L + 2 - n):
            for lprime in range(lbar, L + 2 - n):
                lhs, rhs = convert_kd_dk(L, n, lbar, lprime)
                dev = max(dev, np.max(np.abs(dense_projector(lhs, bases) - dense_projector(rhs, bases))))
    checks["kd_dk_conversion"] = float(dev)

    # global projectors: idempotence, absorption of locals, nesting
    globals_ = [dense_projector(expand_global(n, L), bases) for n in range(0, L + 1)]
    dev = 0.0
    for n in range(0, L + 1):
        g = globals_[n]
        dev = max(dev, np.max(np.abs(g @ g - g)))
        if n >= 1:
            for l in range(1, L + 2 - n):
                dev = max(dev, np.max(np.abs(g @ local(n, l) - local(n, l))))
        for np_ in range(0, n):
            dev = max(dev, np.max(np.abs(g @ globals_[np_] - globals_[np_])))
    checks["global_projector_laws"] = float(dev)

    dev = 0.0
    for n in range(1, L + 1):
        for anchor in range(1, L + 2 - n):
            dev = max(dev, np.max(np.abs(dense_projector(expand_global(n, L, anchor), bases) - globals_[n])))
    checks["global_anchor_independence"] = float(dev)

    dev = 0.0
    for n in range(1, L + 1):
        dev = max(dev, np.max(np.abs(dense_projector(expand_global_overlapping(n, L), bases) - globals_[n])))
    checks["global_two_forms"] = float(dev)

    # irreducible family: partition of unity and mutual orthogonality
    irr = [dense_projector(expand_irreducible(n, L), bases) for n in range(0, L + 1)]
    dev = np.max(np.abs(sum(irr) - eye))
    for n in range(0, L + 1):
        for m in range(0, L + 1):
            want = irr[n] if n == m else 0.0
            dev = max(dev, np.max(np.abs(irr[n] @ irr[m] - want)))
    checks["irreducible_partition"] = float(dev)

    # irreducible family: all equivalent closed forms
    dev = np.max(np.abs(irr[0] - np.outer(vec, vec)))
    dev = max(dev, np.max(np.abs(irr[0] - pmat("K", "K", 0, 1))))
    dev = max(dev, np.max(np.abs(dense_projector(expand_irreducible_right(L), bases) - irr[1])))
    for anchor in range(1, L + 1):
        dev = max(dev, np.max(np.abs(dense_projector(expand_tangent_mixed(L, anchor), bases) - irr[1])))
    for n in range(1, L + 1):
        dev = max(dev, np.max(np.abs(dense_projector(expand_irreducible_overlapping(n, L), bases) - irr[n])))
        dev = max(dev, np.max(np.abs(globals_[n] - globals_[n - 1] - irr[n])))
    checks["irreducible_forms"] = float(dev)

    # subspace dimensions: closed formulas vs ranks and traces
    dev = 0.0
    total = 0
    for n in range(0, L + 1):
        want = subspace_dimension(bases, n)
        total += want
        dev = max(dev, abs(dense_rank(irr[n]) - want))
        dev = max(dev, abs(float(np.trace(irr[n])) - want))
    dev = max(dev, abs(total - dim))
    checks["dimension_bookkeeping"] = float(dev)

    # effective Hamiltonians equal the dense restrictions of H
    env = build_env(bases, h)
    dev = 0.0
    # (mode, position, first open site, open sites): a bond is 0 open sites
    cases = [("bond", l, l + 1, 0) for l in range(0, L + 1)]
    cases += [(mode, l, l, width) for mode, width in (("1s", 1), ("2s", 2)) for l in range(1, L + 2 - width)]
    for mode, pos, first, width in cases:
        frame = np.kron(
            np.kron(fold_chain(a[: first - 1])[0], np.eye(d**width)),
            fold_chain(b[first + width - 1 :])[:, :, 0].T,
        )
        heff = effective_ham(env, mode, pos)
        mat = np.column_stack([heff.matvec(e) for e in np.eye(frame.shape[1])])
        dev = max(dev, np.max(np.abs(mat - frame.T @ hmat @ frame)))
        if width:
            dev = max(dev, np.max(np.abs(mat - mat.T)))
    checks["effective_hamiltonian_restriction"] = float(dev)

    # the two-site image of H splits into kept/discarded window pieces that
    # reproduce the bond and one-site equations when kept on both sides
    dev = 0.0
    for l in range(1, L):
        h2 = effective_ham(env, "2s", l)
        psi2 = np.tensordot(a[l - 1], np.tensordot(bases.bond[l], b[l], axes=(1, 0)), axes=(2, 0))
        phi = h2.apply(psi2)
        am = a[l - 1].reshape(dims[l - 1] * d, dims[l])
        bm = b[l].reshape(dims[l], d * dims[l + 1])
        fl = phi.reshape(dims[l - 1] * d, d * dims[l + 1])
        kk = am @ (am.T @ fl @ bm.T) @ bm
        kd = am @ (am.T @ fl) - kk
        dk = (fl @ bm.T) @ bm - kk
        dd = fl - kk - kd - dk
        dev = max(dev, np.max(np.abs(kk + kd + dk + dd - fl)))
        hb = effective_ham(env, "bond", l)
        dev = max(dev, np.max(np.abs(kk - am @ hb.apply(bases.bond[l]) @ bm)))
        h1r = effective_ham(env, "1s", l + 1)
        c_next = bases.center_site(l + 1)
        dev = max(dev, np.max(np.abs(am @ (am.T @ fl) - am @ h1r.apply(c_next).reshape(dims[l], d * dims[l + 1]))))
        h1l = effective_ham(env, "1s", l)
        c_here = bases.center_site(l)
        dev = max(
            dev,
            np.max(np.abs((fl @ bm.T) @ bm - h1l.apply(c_here).reshape(dims[l - 1] * d, dims[l]) @ bm)),
        )
    checks["projected_window_equation"] = float(dev)

    # defect decomposition: engine values vs dense projections of H|psi>
    report = nsite_variance(bases.reference, h, L)
    hv = hmat @ vec
    e0 = float(vec @ hv)
    resid = hv - e0 * vec
    scale = max(1.0, float(resid @ resid))
    dense_vals = np.array([float(hv @ irr[n] @ hv) for n in range(1, L + 1)])
    dev = np.max(np.abs(report.values - dense_vals)) / scale
    dev = max(dev, abs(float(np.sum(report.values)) - float(resid @ resid)) / scale)
    checks["variance_decomposition"] = float(dev)

    dev = 0.0
    for c in (-10.0, 10.0):
        shifted = nsite_variance(bases.reference, mpo_shift(h, c), L)
        floor = 1e-2 * scale * tol
        dev = max(dev, np.max(np.abs(shifted.values - report.values) / np.maximum(np.abs(report.values), floor)))
    checks["variance_shift_invariance"] = float(dev)

    # the n=1 defect row evaluated through explicit complements instead
    dev = 0.0
    total1 = 0.0
    for l in range(1, L + 1):
        total1 += float(hv @ pmat("D", "K", l, l + 1) @ hv)
    dev = abs(total1 - report.values[0]) / scale
    checks["variance_two_forms"] = float(dev)

    return IdentityReport(tol=tol, checks=checks)
