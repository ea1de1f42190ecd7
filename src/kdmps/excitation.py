"""Finite-chain n-site excitation states above an MPS reference.

An excitation state is a sum of branches, one per window position l: the
reference's left isometries up to site l-1, a window of n free tensors
T^l_1..T^l_n on sites l..l+n-1, and the right isometries afterwards. Every
branch except the last (the anchor, l = L-n+1) carries a discarded-space
gauge condition on its first window slot: contracting A_l against T^l_1
vanishes. The branches are then mutually orthogonal, overlaps reduce to a
single sum over positions, and sums of states act slot-wise on the window
chains (interior window bonds add; recompression is a separate, explicit
step).

Applying the window-projected Hamiltonian uses two environment families
per operator: for each count m of window tensors already absorbed, a left
environment built against the reference's A-chain and a right environment
against the B-chain. The recursions close over m (the m = n entries
accumulate the sum over fully absorbed branches), after which each output
window is assembled from 2n + 1 boundary terms and re-gauged.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dmrg import EnvCache, build_env, lanczos_lowest
from .mps import FORM_TOL, Mps, _left_normalize, load_mps, mps_add, phys, site_tensors, virt
from .mpo import Mpo, s2_total_mpo, sz_total_mpo
from .projectors import KeptBases, _project_out_left, build_bases
from .tensor import (
    Tensor,
    TruncationPolicy,
    apply_window,
    env_step_left,
    env_step_right,
    qr,
    read_tensor_blob,
    svd_split,
    transfer_left,
    write_tensor_blob,
)

__all__ = [
    "ExcitationState",
    "ExcEnvCache",
    "ExcitationOptions",
    "ExcitationResult",
    "init_excitation",
    "gauge_fix_T1",
    "gauge_defect",
    "ex_overlap",
    "ex_axpy",
    "ex_scale",
    "compress_windows",
    "materialize",
    "ground_state_in_ansatz",
    "build_exc_env",
    "apply_projected_h",
    "solve_lowest_excitation",
    "save_excitation",
    "load_excitation",
]


@dataclass(frozen=True)
class ExcitationState:
    """Branch windows over a shared reference gauge.

    ``windows[l-1]`` holds the n window tensors of the branch starting at
    site l (l = 1..L-n+1); window tensors carry ordinary site leg names.
    The isometries flanking the windows live in ``bases`` and are shared by
    all branches (stored once).
    """

    bases: KeptBases
    n: int
    windows: tuple[tuple[Tensor, ...], ...]

    @property
    def L(self) -> int:
        return self.bases.L

    @property
    def d(self) -> int:
        return self.bases.d

    @property
    def n_branches(self) -> int:
        return self.L - self.n + 1

    @property
    def anchor(self) -> int:
        """The unconstrained branch position L - n + 1."""
        return self.L - self.n + 1

    def branch_arrays(self, l: int) -> list[np.ndarray]:
        return [t.data for t in self.windows[l - 1]]


def _chain_to_window(arrs: list[np.ndarray]) -> np.ndarray:
    """Contract a window chain into one dense (D, d, .., d, D) tensor."""
    cur = arrs[0]
    for a in arrs[1:]:
        cur = np.tensordot(cur, a, axes=(-1, 0))
    return cur


def _window_to_chain(arr: np.ndarray, n: int) -> list[np.ndarray]:
    """Split a dense window into n tensors by thin QR (exact, deterministic)."""
    if n == 1:
        return [arr]
    out: list[np.ndarray] = []
    cur = arr
    for _ in range(n - 1):
        q, r = qr(cur.reshape(cur.shape[0] * cur.shape[1], -1))
        k = q.shape[1]
        out.append(q.reshape(cur.shape[0], cur.shape[1], k))
        cur = r.reshape((k,) + cur.shape[2:])
    out.append(cur)
    return out


def _branch_window_shape(bases: KeptBases, n: int, l: int) -> tuple[int, ...]:
    dims = bases.dims
    return (dims[l - 1],) + (bases.d,) * n + (dims[l + n - 1],)


def _state_from_windows(bases: KeptBases, n: int, dense_windows: list[np.ndarray]) -> ExcitationState:
    chains = tuple(site_tensors(_window_to_chain(w, n), l) for l, w in enumerate(dense_windows, start=1))
    return ExcitationState(bases=bases, n=n, windows=chains)


# ---------- construction and algebra ----------


def init_excitation(bases: KeptBases, n: int, seed: int = 0) -> ExcitationState:
    """Seeded random excitation state: gauge-fixed and normalized.

    Window chains are created at full interior bond dimension, so the
    branch windows span the entire image of the corresponding projectors.
    """
    if not 1 <= n <= bases.L:
        raise ValueError(f"n must lie in [1, {bases.L}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    windows = [rng.standard_normal(_branch_window_shape(bases, n, l)) for l in range(1, bases.L - n + 2)]
    x = _state_from_windows(bases, n, windows)
    x = gauge_fix_T1(x)
    nrm = np.sqrt(ex_overlap(x, x))
    if nrm == 0.0:
        raise ValueError("random state collapsed to zero under the gauge projection")
    return ex_scale(x, 1.0 / nrm)


def gauge_fix_T1(x: ExcitationState) -> ExcitationState:
    """Project every non-anchor branch's first slot to the discarded space.

    Idempotent; branches whose first slot was purely kept-space content
    become zero. The anchor branch passes through unchanged.
    """
    a = [t.data for t in x.bases.left]
    chains = []
    for l, chain in enumerate(x.windows, start=1):
        arrs = [t.data for t in chain]
        if l < x.anchor:
            arrs[0] = _project_out_left(arrs[0], a[l - 1])
        chains.append(site_tensors(arrs, l))
    return ExcitationState(bases=x.bases, n=x.n, windows=tuple(chains))


def gauge_defect(x: ExcitationState) -> float:
    """Largest kept-space component left in any non-anchor first slot.

    Zero for states satisfying the window gauge condition; gauge_fix_T1
    drives it to round-off.
    """
    dev = 0.0
    for l in range(1, x.anchor):
        t1 = x.windows[l - 1][0].data
        a = x.bases.left[l - 1].data
        kept_part = a.reshape(-1, a.shape[2]).T @ t1.reshape(-1, t1.shape[2])
        if kept_part.size:
            dev = max(dev, float(np.max(np.abs(kept_part))))
    return dev


def ex_overlap(x: ExcitationState, y: ExcitationState) -> float:
    """Inner product <x|y>: one term per branch (never a double sum).

    Equals the state overlap when both arguments satisfy the gauge
    condition (then the branches are mutually orthogonal).
    """
    if x.bases is not y.bases and x.bases.dims != y.bases.dims:
        raise ValueError("states must share a reference gauge")
    if x.n != y.n:
        raise ValueError("states must share the window size")
    total = 0.0
    for l in range(1, x.n_branches + 1):
        # the two window chains share their boundary legs
        xa, ya = x.branch_arrays(l), y.branch_arrays(l)
        env = np.eye(xa[0].shape[0])
        for ta, tb in zip(xa, ya):
            env = transfer_left(env, ta, tb)
        total += float(np.trace(env))
    return total


def ex_scale(x: ExcitationState, c: float) -> ExcitationState:
    """Scale the represented state by ``c`` (folded into each first slot)."""
    chains = []
    for l in range(1, x.n_branches + 1):
        arrs = x.branch_arrays(l)
        arrs[0] = c * arrs[0]
        chains.append(site_tensors(arrs, l))
    return ExcitationState(bases=x.bases, n=x.n, windows=tuple(chains))


def ex_axpy(x: ExcitationState, a: float, y: ExcitationState) -> ExcitationState:
    """The state ``x + a * y``, branch by branch.

    For n = 1 this is plain tensor addition; for n >= 2 the window chains
    are joined block-diagonally, so interior window bonds add. No
    recompression happens here (see :func:`compress_windows`).
    """
    if x.n != y.n or x.L != y.L:
        raise ValueError("states must share window size and length")
    n = x.n
    chains = []
    for l in range(1, x.n_branches + 1):
        xa = x.branch_arrays(l)
        ya = y.branch_arrays(l)
        if n == 1:
            merged = [xa[0] + a * ya[0]]
        else:
            merged = []
            for i in range(n):
                tx, ty = xa[i], ya[i]
                if i == 0:
                    block = np.concatenate([tx, a * ty], axis=2)
                elif i == n - 1:
                    block = np.concatenate([tx, ty], axis=0)
                else:
                    block = np.zeros(
                        (tx.shape[0] + ty.shape[0], tx.shape[1], tx.shape[2] + ty.shape[2])
                    )
                    block[: tx.shape[0], :, : tx.shape[2]] = tx
                    block[tx.shape[0] :, :, tx.shape[2] :] = ty
                merged.append(block)
        chains.append(site_tensors(merged, l))
    return ExcitationState(bases=x.bases, n=n, windows=tuple(chains))


def compress_windows(x: ExcitationState, rel_cutoff: float = 1e-12) -> ExcitationState:
    """Recompress interior window bonds (QR pass, then SVD with a relative
    cutoff per bond). Boundary legs are untouched."""
    if x.n == 1:
        return x
    policy = TruncationPolicy(rel_cutoff=rel_cutoff, keep_degenerate=False)
    chains = []
    for l in range(1, x.n_branches + 1):
        arrs = x.branch_arrays(l)
        for i in range(1, x.n):
            _left_normalize(arrs, i)
        for i in range(x.n - 1, 0, -1):
            dl, d, dr = arrs[i].shape
            u, s, vh, _ = svd_split(arrs[i].reshape(dl, d * dr), policy)
            arrs[i] = vh.reshape(len(s), d, dr)
            arrs[i - 1] = np.tensordot(arrs[i - 1], u * s, axes=(2, 0))
        chains.append(site_tensors(arrs, l))
    return ExcitationState(bases=x.bases, n=x.n, windows=tuple(chains))


def branch_mps(x: ExcitationState, l: int) -> Mps:
    """One branch materialized as an ordinary MPS."""
    sites = list(x.bases.left[: l - 1]) + list(x.windows[l - 1]) + list(x.bases.right[l + x.n - 1 :])
    return Mps(tuple(sites))


def materialize(x: ExcitationState) -> Mps:
    """The represented state as a single MPS (bond dimensions add)."""
    acc = branch_mps(x, 1)
    for l in range(2, x.n_branches + 1):
        acc = mps_add(acc, branch_mps(x, l), 1.0, 1.0)
    return acc


def ground_state_in_ansatz(bases: KeptBases, n: int) -> ExcitationState:
    """The reference state written as the anchor branch of the window form.

    The anchor window holds the 1-site center followed by right
    isometries; all other branches vanish (their content would be purely
    kept, which the gauge projection annihilates). Zero branches use
    1-wide interior window bonds.
    """
    L, d = bases.L, bases.d
    anchor = L - n + 1
    dims = bases.dims
    chains = []
    for l in range(1, anchor + 1):
        if l == anchor:
            arrs = [bases.center_site(anchor).data] + [t.data for t in bases.right[anchor : anchor + n - 1]]
        else:
            arrs = []
            for i in range(1, n + 1):
                dl = dims[l - 1] if i == 1 else 1
                dr = dims[l + n - 1] if i == n else 1
                arrs.append(np.zeros((dl, d, dr)))
        chains.append(site_tensors(arrs, l))
    return ExcitationState(bases=bases, n=n, windows=tuple(chains))


# ---------- environments and the projected Hamiltonian ----------


@dataclass(frozen=True)
class ExcEnvCache:
    """Left/right environments indexed by (absorbed window tensors m, bond).

    ``lefts[(m, l)]`` covers sites 1..l with the bra on the A-chain;
    ``rights[(m, l)]`` covers sites l..L with the bra on the B-chain.
    Missing keys are structural zeros. The m = n entries accumulate the sum
    over all branches absorbed whole. ``windows`` ties the cache to the
    state it was built from.
    """

    windows: tuple
    h: Mpo
    lefts: dict[tuple[int, int], np.ndarray]
    rights: dict[tuple[int, int], np.ndarray]


def build_exc_env(x: ExcitationState, h: Mpo, base: EnvCache | None = None) -> ExcEnvCache:
    """All (m, bond) environments for applying the projected operator.

    The m = 0 entries depend only on the reference gauge and the operator;
    they are taken from ``base`` (the reference's :class:`EnvCache` for
    ``h``), so a caller applying the operator many times builds that once.
    """
    L, n, nb = x.L, x.n, x.n_branches
    if h.L != L or h.d != x.d:
        raise ValueError("operator shape disagrees with the state")
    if base is None:
        base = build_env(x.bases.reference, h, bases=x.bases)
    if base.h is not h or base.bases is not x.bases:
        raise ValueError("reference environments belong to another operator or gauge")
    a = [t.data for t in x.bases.left]
    b = [t.data for t in x.bases.right]
    w = [t.data for t in h.sites]
    t = [x.branch_arrays(l) for l in range(1, nb + 1)]

    # (m, l): m window slots absorbed by site l. The open part absorbs slot m
    # at site l; at m = n the closed part, added first, carries the branches
    # absorbed whole on along the B-chain (on the right: the A-chain).
    lefts: dict[tuple[int, int], np.ndarray] = {(0, l): base.lefts[l] for l in range(0, L + 1)}
    for l in range(1, L + 1):
        for m in range(1, n + 1):
            parts = []
            if m == n and (n, l - 1) in lefts:
                parts.append(env_step_left(lefts[(n, l - 1)], a[l - 1], w[l - 1], b[l - 1]))
            branch = l - m + 1
            if 1 <= branch <= nb and (m - 1, l - 1) in lefts:
                parts.append(env_step_left(lefts[(m - 1, l - 1)], a[l - 1], w[l - 1], t[branch - 1][m - 1]))
            if parts:
                lefts[(m, l)] = sum(parts[1:], parts[0])

    rights: dict[tuple[int, int], np.ndarray] = {(0, l): base.rights[l] for l in range(1, L + 2)}
    for l in range(L, 0, -1):
        for m in range(1, n + 1):
            parts = []
            if m == n and (n, l + 1) in rights:
                parts.append(env_step_right(rights[(n, l + 1)], b[l - 1], w[l - 1], a[l - 1]))
            branch = l + m - n
            if 1 <= branch <= nb and (m - 1, l + 1) in rights:
                parts.append(env_step_right(rights[(m - 1, l + 1)], b[l - 1], w[l - 1], t[branch - 1][n - m]))
            if parts:
                rights[(m, l)] = sum(parts[1:], parts[0])

    return ExcEnvCache(windows=x.windows, h=h, lefts=lefts, rights=rights)


def apply_projected_h(x: ExcitationState, h: Mpo, env: ExcEnvCache | None = None) -> ExcitationState:
    """The window-projected operator applied to a gauge-fixed state.

    Returns the state whose branches are the projector-frame components of
    H|x>: for each output window, terms with the input branch left of the
    window close through the m-counted left environments, terms at or
    right of it through the right ones (2n + 1 terms in total). Non-anchor
    outputs are re-projected to the discarded space on their first slot.
    """
    if env is None:
        env = build_exc_env(x, h)
    if env.windows is not x.windows or env.h is not h:
        raise ValueError("environment cache is stale for this state/operator")
    L, n, nb, d = x.L, x.n, x.n_branches, x.d
    a = [t.data for t in x.bases.left]
    b = [t.data for t in x.bases.right]
    w = [t.data for t in h.sites]
    t = [x.branch_arrays(l) for l in range(1, nb + 1)]

    windows_out: list[np.ndarray] = []
    for l in range(1, nb + 1):
        ws = w[l - 1 : l + n - 1]
        tilde = np.zeros(_branch_window_shape(x.bases, n, l))
        # input branch strictly left of the output window
        for m in range(1, n + 1):
            lenv = env.lefts.get((m, l - 1))
            renv = env.rights.get((0, l + n))
            if lenv is None or renv is None:
                continue
            if m == n:
                kets = b[l - 1 : l + n - 1]
            else:
                branch = l - m
                kets = list(t[branch - 1][m:]) + b[l + n - m - 1 : l + n - 1]
            tilde = tilde + apply_window(lenv, ws, kets, renv)
        # input branch at or right of the output window
        for m in range(0, n + 1):
            lenv = env.lefts.get((0, l - 1))
            renv = env.rights.get((m, l + n))
            if lenv is None or renv is None:
                continue
            if m == n:
                kets = a[l - 1 : l + n - 1]
            else:
                branch = l + m
                if branch > nb:
                    continue
                kets = a[l - 1 : l + m - 1] + list(t[branch - 1][: n - m])
            tilde = tilde + apply_window(lenv, ws, kets, renv)
        if l < x.anchor:
            shape = tilde.shape
            tilde = _project_out_left(tilde.reshape(shape[0], d, -1), a[l - 1]).reshape(shape)
        windows_out.append(tilde)
    return _state_from_windows(x.bases, n, windows_out)


# ---------- flat parameter vectors and the eigensolver ----------


def _flat_sizes(bases: KeptBases, n: int) -> list[int]:
    return [int(np.prod(_branch_window_shape(bases, n, l))) for l in range(1, bases.L - n + 2)]


def flatten(x: ExcitationState) -> np.ndarray:
    """Concatenated dense branch windows. For gauge-fixed states the flat
    dot product equals the state inner product."""
    return np.concatenate([_chain_to_window(x.branch_arrays(l)).reshape(-1) for l in range(1, x.n_branches + 1)])


def state_from_flat(bases: KeptBases, n: int, vec: np.ndarray) -> ExcitationState:
    sizes = _flat_sizes(bases, n)
    if vec.shape != (sum(sizes),):
        raise ValueError("flat vector has the wrong size")
    windows = []
    offset = 0
    for l, size in enumerate(sizes, start=1):
        windows.append(vec[offset : offset + size].reshape(_branch_window_shape(bases, n, l)))
        offset += size
    return _state_from_windows(bases, n, windows)


@dataclass(frozen=True)
class ExcitationOptions:
    max_iter: int = 200
    tol: float = 1e-10
    seed: int = 0


@dataclass(frozen=True)
class ExcitationResult:
    energy: float
    state: ExcitationState
    residual: float
    converged: bool
    iterations: int
    sz_total: float
    s2_total: float


def solve_lowest_excitation(gs: Mps, h: Mpo, n: int, opts: ExcitationOptions | None = None) -> ExcitationResult:
    """Lowest window-form excitation above a converged reference state.

    Runs Lanczos on the projected operator over the gauge-fixed window
    parameters, deflating the reference itself from the search space at
    every iteration (the window form contains it). Reports the total-spin
    diagnostics of the result for sector classification.
    """
    opts = opts or ExcitationOptions()
    bases, _ = build_bases(gs)
    if not 1 <= n <= bases.L:
        raise ValueError(f"n must lie in [1, {bases.L}]")
    gs_flat = flatten(ground_state_in_ansatz(bases, n))
    gs_flat /= np.linalg.norm(gs_flat)
    base = build_env(bases.reference, h, bases=bases)

    def matvec(vec: np.ndarray) -> np.ndarray:
        # gauge-fixing first makes the operator symmetric on the whole flat
        # space, so kept-space round-off in the Krylov basis cannot grow
        state = gauge_fix_T1(state_from_flat(bases, n, vec))
        return flatten(apply_projected_h(state, h, build_exc_env(state, h, base)))

    rng = np.random.Generator(np.random.PCG64(opts.seed))
    v0 = flatten(gauge_fix_T1(state_from_flat(bases, n, rng.standard_normal(gs_flat.shape))))
    res = lanczos_lowest(matvec, v0, max_iter=opts.max_iter, tol=opts.tol, orth_against=(gs_flat,))

    state = gauge_fix_T1(state_from_flat(bases, n, res.vector))
    flat = flatten(state)
    sz = float(flat @ flatten(apply_projected_h(state, sz_total_mpo(bases.L))))
    s2 = float(flat @ flatten(apply_projected_h(state, s2_total_mpo(bases.L))))
    return ExcitationResult(
        energy=res.value,
        state=state,
        residual=res.residual,
        converged=res.converged,
        iterations=res.iterations,
        sz_total=sz,
        s2_total=s2,
    )


# ---------- archives ----------


def _reference_digest(gs_path: Path) -> str:
    """sha256 of a reference archive's site blobs (and bond weights, if any)."""
    L = json.loads((gs_path / "manifest.json").read_text())["L"]
    blobs = [gs_path / f"site_{l}.ten" for l in range(1, L + 1)]
    if (gs_path / "bond_weights.ten").exists():
        blobs.append(gs_path / "bond_weights.ten")
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob.read_bytes())
    return digest.hexdigest()


def save_excitation(x: ExcitationState, path, gs_path: str, extra: dict | None = None) -> None:
    """Write window tensors plus a manifest referencing the reference archive.

    A relative ``gs_path`` (taken from the working directory) is stored
    relative to the archive directory, so the archive reloads from any
    working directory; an absolute one is stored as given. The manifest
    also holds a sha256 of the reference's blobs, which the windows are
    only meaningful against.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    digest = _reference_digest(Path(gs_path))
    if not Path(gs_path).is_absolute():
        gs_path = os.path.relpath(gs_path, path)
    manifest = {
        "format_version": 3,
        "kind": "excitation",
        "n": x.n,
        "L": x.L,
        "d": x.d,
        "D": max(x.bases.dims),
        "ground_state": str(gs_path),
        "ground_state_sha256": digest,
        "window_bonds": [[t.shape[2] for t in chain[:-1]] for chain in x.windows],
    }
    if extra:
        manifest.update(extra)
    for l in range(1, x.n_branches + 1):
        for i, t in enumerate(x.windows[l - 1], start=1):
            write_tensor_blob(path / f"t_{l}_{i}.ten", t)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_excitation(path) -> tuple[ExcitationState, dict]:
    """Read an excitation archive (rebuilds the gauge from the referenced
    reference-state archive).

    Formats 2 and 3 resolve a relative reference path against the archive
    directory; format 1 archives stored it relative to the working
    directory of the writer, and are read that way. Format 3 raises
    ValueError when the reference's blobs no longer match the stored hash.

    Also raises ValueError when the manifest's L or d disagree with the
    reference, when n or the window bonds do not fit the chain, when a
    blob's shape disagrees with the reference bonds and the manifest's
    window_bonds, or when the windows violate the discarded-space gauge
    condition by more than FORM_TOL (relative to the state's norm).
    """
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("kind") != "excitation":
        raise ValueError(f"{path}: not an excitation archive")
    gs_path = Path(manifest["ground_state"])
    if manifest["format_version"] >= 2:
        gs_path = path / gs_path  # an absolute path stays as it is
    if "ground_state_sha256" in manifest and _reference_digest(gs_path) != manifest["ground_state_sha256"]:
        raise ValueError(f"{path}: the reference archive {gs_path} changed after the excitation was saved")
    bases, _ = build_bases(load_mps(gs_path))
    n, L, d = manifest["n"], manifest["L"], manifest["d"]
    if (L, d) != (bases.L, bases.d):
        raise ValueError(f"{path}: manifest gives L = {L}, d = {d}, but the reference has L = {bases.L}, d = {bases.d}")
    bonds = manifest["window_bonds"]
    if not 1 <= n <= L or len(bonds) != L - n + 1 or any(len(b) != n - 1 for b in bonds):
        raise ValueError(f"{path}: n = {n} does not fit L = {L} and the manifest's window_bonds")
    chains = []
    for l in range(1, L - n + 2):
        edges = [bases.dims[l - 1]] + list(bonds[l - 1]) + [bases.dims[l + n - 1]]
        chain = []
        for i, s in enumerate(range(l, l + n), start=1):
            t = read_tensor_blob(path / f"t_{l}_{i}.ten", (virt(s - 1), phys(s), virt(s)))
            want = (edges[i - 1], d, edges[i])
            if t.shape != want:
                raise ValueError(f"{path}: t_{l}_{i}.ten has shape {t.shape}, but the manifest gives {want}")
            chain.append(t)
        chains.append(tuple(chain))
    x = ExcitationState(bases=bases, n=n, windows=tuple(chains))
    defect = gauge_defect(x)
    if not defect <= FORM_TOL * max(1.0, np.sqrt(ex_overlap(x, x))):
        raise ValueError(f"{path}: the windows violate the discarded-space gauge condition by {defect:.3g}")
    return x, manifest
