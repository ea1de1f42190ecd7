"""Finite-chain n-site excitation states above an MPS reference.

An excitation state is a sum of branches, one per window position l: the
reference's left isometries up to site l-1, a window of n free tensors
T^l_1..T^l_n on sites l..l+n-1, and the right isometries afterwards. Every
branch except the last (the anchor, l = L-n+1) carries a discarded-space
gauge condition on its first window slot: contracting A_l against T^l_1
vanishes. The branches are then mutually orthogonal, so the state's
parameters are one flat vector, the dense branch windows T_l concatenated
(:func:`flatten`), on which the overlap is the Euclidean dot product.
Every computation here runs on that vector. The window chains are only the
stored form: :func:`state_from_flat` QR-splits each window into its chain
and then projects every non-anchor first slot to the discarded space. Every
state this module computes is built there, so that is where its chains get
the gauge condition.

Applying the window-projected Hamiltonian runs on the dense branch windows
T_l in one pass per reading direction; the backward pass is the forward one
on the mirrored chain. For each output window the pass sums what reaches it
from the left: the environment F with every earlier branch absorbed whole,
and the branches l-1..l-n+1 absorbed part-way, each continued by the
reference's B on the window sites it has not reached. That sum takes the
MPO steps of the window's first n-1 sites once. On the last site every term
carries B, so one matmul against the cached open reference site there (B,
MPO site and right environment, bra leg open) closes the sum into the
output window, and closing its n-1 bras gives the next F. In the forward
reading branch l also reaches its own window: its chain of n MPO steps with
open bras, closed by the reference environment on the right, is the
diagonal term, and the chain's closes after 1..n-1 steps are the part-way
environments of the next windows. The backward reading closes its chains
after every step. For n = 1 the next F must hold the window's own branch,
so F and that branch share the site's one MPO step. The operator cache
(:class:`ExcEnvCache`) therefore depends only on the gauge, the operator
and n, and the eigensolver's matvec never leaves the dense windows; chains
are formed only for the returned state.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dmrg import build_env, lanczos_lowest
from .mps import (
    FORM_TOL,
    Mps,
    _manifest_field,
    load_mps,
    mps_norm,
    overlap,
    read_manifest,
    site_tensors,
    write_archive,
)
from .mpo import Mpo
from .projectors import KeptBases, _project_out_left, build_bases
from .tensor import (
    Tensor,
    chain_sum,
    close,
    close_right,
    ket_step,
    mpo_step,
    qr,
    read_tensor_blob,
    tensor_blob,
)

__all__ = [
    "ExcitationState",
    "ExcEnvCache",
    "ExcitationOptions",
    "ExcitationResult",
    "gauge_defect",
    "materialize",
    "build_exc_env",
    "apply_projected_h",
    "solve_lowest_excitation",
    "save_excitation",
    "load_excitation",
]

EXCITE_MAX_ITER = 200  # Lanczos iteration budget of solve_lowest_excitation


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
    out: list[np.ndarray] = []
    cur = arr
    for _ in range(n - 1):
        q, r = qr(cur.reshape(cur.shape[0] * cur.shape[1], -1))
        k = q.shape[1]
        out.append(q.reshape(cur.shape[0], cur.shape[1], k))
        cur = r.reshape((k,) + cur.shape[2:])
    out.append(cur)
    return out


def _window_shapes(bases: KeptBases, n: int) -> list[tuple[int, ...]]:
    """The dense window shape of every branch l = 1..L-n+1."""
    if not 1 <= n <= bases.L:
        raise ValueError(f"n must lie in [1, {bases.L}]")
    dims = bases.dims
    return [(dims[l - 1],) + (bases.d,) * n + (dims[l + n - 1],) for l in range(1, bases.L - n + 2)]


def _state_from_windows(bases: KeptBases, n: int, dense_windows: list[np.ndarray]) -> ExcitationState:
    """The gauge-fixed state of these dense windows: each is QR-split into
    its chain, then every non-anchor first slot is projected to the
    discarded space. Splitting first matters: QR columns beyond a window's
    rank are arbitrary and can lie in the kept space."""
    chains = [_window_to_chain(w, n) for w in dense_windows]
    firsts = _gauge_fix_windows(bases, [chain[0] for chain in chains])
    windows = tuple(site_tensors([t1] + chain[1:], l) for l, (t1, chain) in enumerate(zip(firsts, chains), start=1))
    return ExcitationState(bases=bases, n=n, windows=windows)


# ---------- gauge checks and the represented state ----------


def gauge_defect(x: ExcitationState) -> float:
    """Largest kept-space component left in any non-anchor first slot.

    Zero for states satisfying the window gauge condition; the states
    :func:`state_from_flat` builds have it at round-off.
    """
    dev = 0.0
    for l in range(1, x.n_branches):
        t1 = x.windows[l - 1][0].data
        a = x.bases.left[l - 1].data
        kept_part = a.reshape(-1, a.shape[2]).T @ t1.reshape(-1, t1.shape[2])
        if kept_part.size:
            dev = max(dev, float(np.max(np.abs(kept_part))))
    return dev


def _same_gauge(p: KeptBases, q: KeptBases) -> bool:
    pairs = zip(p.left + p.right, q.left + q.right)
    return p is q or (p.L == q.L and all(np.array_equal(s.data, t.data) for s, t in pairs))


def materialize(x: ExcitationState) -> Mps:
    """The represented state as a single MPS: the direct sum of the branches,
    each the left isometries, its window chain and the right isometries
    (bond dimensions add)."""
    left, right, n = x.bases.left, x.bases.right, x.n
    branches = (left[: l - 1] + x.windows[l - 1] + right[l + n - 1 :] for l in range(1, x.n_branches + 1))
    return Mps(site_tensors(chain_sum([[t.data for t in branch] for branch in branches])))


def _reference_windows(bases: KeptBases, n: int) -> list[np.ndarray]:
    """The reference state in the window form: the anchor window holds the
    1-site center followed by right isometries, and every other window is
    zero (its content would be purely kept, which the gauge annihilates).
    The eigensolver deflates this vector."""
    shapes = _window_shapes(bases, n)
    anchor = len(shapes)
    chain = [bases.center_site(anchor)] + [t.data for t in bases.right[anchor : anchor + n - 1]]
    return [np.zeros(shape) for shape in shapes[:-1]] + [_chain_to_window(chain)]


# ---------- environments and the projected Hamiltonian ----------


@dataclass(frozen=True)
class _Reading:
    """The reference seen in one reading direction of the chain.

    Sites are numbered along the reading. ``bra[s-1]`` and ``ket[s-1]`` are
    the left and right isometries of site s, ``ops[s-1]`` its MPO matrix
    (:attr:`kdmps.mpo.Mpo.ops` or ``mirrored_ops``). The environments are
    indexed by bond k = 0..L, as in :class:`kdmps.dmrg.EnvCache`:
    ``lefts[k]`` covers sites 1..k and ``rights[k]`` sites k+1..L.
    ``opens[s-1]`` is site s's open reference site: its ket, MPO site and
    right environment ``rights[s]`` contracted with the bra's physical leg
    and right bond left open, as a (d D, w, D) right environment whose bra
    leg is that (physical, bond) pair. ``bra_windows[k-1][l-1]`` is bra
    l..l+k-1 contracted into one array (k = 1..n-1).
    """

    bra: tuple[np.ndarray, ...]
    ket: tuple[np.ndarray, ...]
    ops: tuple[np.ndarray, ...]
    lefts: tuple[np.ndarray, ...]
    rights: tuple[np.ndarray, ...]
    opens: tuple[np.ndarray, ...]
    bra_windows: tuple[tuple[np.ndarray, ...], ...]


def _reading(bra, ket, ops, mirrored_ops, lefts, rights, n: int) -> _Reading:
    """The reading of these arrays, with bra windows of up to n - 1 sites.
    ``mirrored_ops`` are the MPO matrices of the opposite reading; the open
    reference sites grow leftwards from the right environments with them."""
    opens = []
    for s in range(1, len(ket) + 1):
        o = mpo_step(ket_step(rights[s], ket[s - 1].T), mirrored_ops[s - 1], 0)  # (bra bond, p, w, ket bond)
        opens.append(np.ascontiguousarray(o.transpose(1, 0, 2, 3)).reshape(-1, *o.shape[2:]))
    wins = tuple(tuple(_chain_to_window(bra[l : l + k]) for l in range(len(bra) - k + 1)) for k in range(1, n))
    return _Reading(tuple(bra), tuple(ket), tuple(ops), tuple(lefts), tuple(rights), tuple(opens), wins)


@dataclass(frozen=True)
class ExcEnvCache:
    """What applying the projected operator needs besides the windows.

    Depends only on the gauge ``bases``, the operator ``h`` and the window
    size ``n``: ``forward`` holds the reference's isometries, MPO sites,
    environments (reference in bra and ket), open reference sites and
    A-windows of 1..n-1 sites in site order, ``backward`` the same for the
    chain read backwards (B-windows as its bra windows). An open reference
    site is the reference ket, the MPO site and the far environment of one
    site with the bra leg left open: B_s W_s R in the forward reading,
    A_s W_s L in the backward one. Next to the environments they add one
    (D, d, w, D) array per site and reading. The cache is built once per
    solve.
    """

    bases: KeptBases
    h: Mpo
    n: int
    forward: _Reading
    backward: _Reading


def build_exc_env(bases: KeptBases, n: int, h: Mpo) -> ExcEnvCache:
    """The per-operator cache for applying ``h`` to the n-site excitation
    states of the gauge ``bases``."""
    base = build_env(bases, h)
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    forward = _reading(a, b, h.ops, h.mirrored_ops, base.lefts, base.rights, n)
    backward = _reading(
        [np.ascontiguousarray(t.T) for t in reversed(b)],  # .T reverses every axis
        [np.ascontiguousarray(t.T) for t in reversed(a)],
        h.mirrored_ops[::-1],
        h.ops[::-1],
        base.rights[::-1],
        base.lefts[::-1],
        n,
    )
    return ExcEnvCache(bases=bases, h=h, n=n, forward=forward, backward=backward)


def _absorb(r: _Reading, windows: list[np.ndarray], n: int, diagonal: bool):
    """One pass over the branch windows along a reading direction.

    Yields, for each output window l in turn, the window collecting every
    input branch left of it (and branch l itself when ``diagonal``), and the
    F it closed: at bond l + n - 2 (bond l when n = 1), the environment of
    every branch that ends at or before that bond.

    On the window's first n - 1 sites, F at bond l - 1 and the branches
    l-1..l-n+1, absorbed part-way, meet the reference's kets; their sum
    takes the MPO steps of those sites once. Every term of it has the
    reference's ket on the window's last site too, so one matmul against
    that site's open reference site closes it into the output window, and
    closing its n - 1 bras gives the next F. Branch l runs its own chain:
    with open bras when ``diagonal``, where its n MPO steps, closed by the
    environment on the right, are the output's diagonal term, and closed
    after every step otherwise. Its first n - 1 steps, closed, are the
    part-way environments of the next windows. For n = 1 the next F must
    hold branch l whole, so F and branch l take the site's MPO step
    together. Only the last n environments of each kind are kept alive.
    """
    fs: dict[int, np.ndarray] = {}  # F by bond
    partials: dict[int, list[np.ndarray]] = {}  # partials[l][j-1]: branch l, j slots absorbed
    for l in range(1, len(windows) + 1):
        acc = fs.pop(l - 1, None)
        if acc is None:
            acc = np.zeros_like(r.lefts[l - 1])
        for j in range(n - 1, 0, -1):  # Horner over the part-way branches l - j
            acc = ket_step(acc, r.ket[l + n - 2 - j])
            if l - j in partials:
                acc += partials[l - j][j - 1]
        for j in range(n - 1):
            acc = mpo_step(acc, r.ops[l - 1 + j], j)
        g = ket_step(r.lefts[l - 1], windows[l - 1])
        if n == 1:  # F takes in branch l whole: both go through the site's MPO step
            g += ket_step(acc, r.ket[l - 1])
            z = mpo_step(g, r.ops[l - 1], 0)
            y = close_right(z, r.rights[l]) if diagonal else close_right(acc, r.opens[l - 1])
            f = fs[l] = close(r.bra[l - 1], z)
        else:
            y = close_right(acc, r.opens[l + n - 2]).reshape(windows[l - 1].shape)
            f = fs[l + n - 2] = close(r.bra_windows[n - 2][l - 1], acc)
            chain = []
            for j in range(n - 1):
                if diagonal:
                    g = mpo_step(g, r.ops[l - 1 + j], j)
                    chain.append(close(r.bra_windows[j][l - 1], g))
                else:
                    g = close(r.bra[l - 1 + j], mpo_step(g, r.ops[l - 1 + j], 0))
                    chain.append(g)
            if diagonal:
                y += close_right(mpo_step(g, r.ops[l + n - 2], n - 1), r.rights[l + n - 1])
            partials[l] = chain
            partials.pop(l - n + 1, None)  # its last use was this window's Horner sum
        yield y.reshape(windows[l - 1].shape), f


def _gauge_fix_windows(bases: KeptBases, windows: list[np.ndarray]) -> list[np.ndarray]:
    """Dense windows, or the first slots of window chains, with every
    non-anchor one projected to the discarded space."""
    out = []
    for l, w in enumerate(windows, start=1):
        if l < len(windows):
            w = _project_out_left(w.reshape(w.shape[0], bases.d, -1), bases.left[l - 1].data).reshape(w.shape)
        out.append(w)
    return out


def _apply_windows(env: ExcEnvCache, windows: list[np.ndarray]) -> list[np.ndarray]:
    """The projected operator on gauge-fixed dense branch windows: the
    forward pass collects the input branches at or left of each output
    window, the pass over the mirrored chain those right of it."""
    n = env.n
    out = [y for y, _ in _absorb(env.forward, windows, n, diagonal=True)]
    mirrored = _absorb(env.backward, [t.T for t in reversed(windows)], n, diagonal=False)
    for y, (back, _) in zip(reversed(out), mirrored):
        y += back.T
    return _gauge_fix_windows(env.bases, out)


def apply_projected_h(x: ExcitationState, h: Mpo, env: ExcEnvCache | None = None) -> ExcitationState:
    """The window-projected operator applied to a gauge-fixed state.

    Returns the state whose branches are the projector-frame components of
    H|x>, non-anchor outputs re-projected to the discarded space on their
    first slot. Runs on the dense windows (see :func:`_absorb`); ``env``
    must belong to the gauge, operator and window size of ``x``.
    """
    if env is None:
        env = build_exc_env(x.bases, x.n, h)
    if env.h is not h or env.n != x.n or not _same_gauge(env.bases, x.bases):
        raise ValueError("environment cache belongs to another gauge, operator or window size")
    windows = [_chain_to_window(x.branch_arrays(l)) for l in range(1, x.n_branches + 1)]
    return _state_from_windows(x.bases, x.n, _apply_windows(env, windows))


# ---------- flat parameter vectors and the eigensolver ----------


def flatten(x: ExcitationState) -> np.ndarray:
    """Concatenated dense branch windows. For gauge-fixed states the flat
    dot product equals the state inner product."""
    return _join_flat([_chain_to_window(x.branch_arrays(l)) for l in range(1, x.n_branches + 1)])


def _split_flat(bases: KeptBases, n: int, vec: np.ndarray) -> list[np.ndarray]:
    """The dense branch windows of a flat vector (views into it)."""
    shapes = _window_shapes(bases, n)
    sizes = [math.prod(shape) for shape in shapes]
    if vec.shape != (sum(sizes),):
        raise ValueError("flat vector has the wrong size")
    windows = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        windows.append(vec[offset : offset + size].reshape(shape))
        offset += size
    return windows


def _join_flat(windows: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([w.reshape(-1) for w in windows])


def state_from_flat(bases: KeptBases, n: int, vec: np.ndarray) -> ExcitationState:
    """The gauge-fixed state of a flat vector (see :func:`_state_from_windows`)."""
    return _state_from_windows(bases, n, _split_flat(bases, n, vec))


@dataclass(frozen=True)
class ExcitationOptions:
    tol: float = 1e-10
    seed: int = 0


@dataclass(frozen=True)
class ExcitationResult:
    """Lowest excitation found by :func:`solve_lowest_excitation`."""

    energy: float
    state: ExcitationState
    residual: float
    converged: bool
    iterations: int


def solve_lowest_excitation(gs: Mps, h: Mpo, n: int, opts: ExcitationOptions | None = None) -> ExcitationResult:
    """Lowest window-form excitation above a converged reference state.

    Runs Lanczos on the projected operator over the gauge-fixed window
    parameters, deflating the reference itself from the search space at
    every iteration (the window form contains it). The matvec stays on the
    flat vector of dense windows, with one operator cache per solve; only
    the returned state is split into window chains.
    """
    opts = opts or ExcitationOptions()
    bases = build_bases(gs)
    gs_flat = _join_flat(_reference_windows(bases, n))
    env = build_exc_env(bases, n, h)

    def fixed(vec: np.ndarray) -> list[np.ndarray]:
        return _gauge_fix_windows(bases, _split_flat(bases, n, vec))

    def matvec(vec: np.ndarray) -> np.ndarray:
        # gauge-fixing first makes the operator symmetric on the whole flat
        # space, so kept-space round-off in the Krylov basis cannot grow
        return _join_flat(_apply_windows(env, fixed(vec)))

    rng = np.random.Generator(np.random.PCG64(opts.seed))
    v0 = _join_flat(fixed(rng.standard_normal(gs_flat.shape)))
    res = lanczos_lowest(matvec, v0, max_iter=EXCITE_MAX_ITER, tol=opts.tol, orth_against=(gs_flat,))
    return ExcitationResult(
        energy=res.value,
        state=state_from_flat(bases, n, res.vector),
        residual=res.residual,
        converged=res.converged,
        iterations=res.iterations,
    )


# ---------- archives ----------


def _sha256(blobs: Iterable[bytes]) -> str:
    """sha256 over the given byte strings, in order."""
    return hashlib.sha256(b"".join(blobs)).hexdigest()


def save_excitation(x: ExcitationState, path, gs_path: str, extra: dict | None = None) -> None:
    """Write window tensors plus a manifest referencing the reference archive.

    A relative ``gs_path`` (taken from the working directory) is stored
    relative to the archive directory, so the archive reloads from any
    working directory; an absolute one is stored as given. The manifest
    also holds a sha256 of the reference's site blobs as
    :func:`kdmps.mps.load_mps` reads them, which the windows are only
    meaningful against, and one of the window blobs in (l, i) order.

    Raises before anything is written when the reference does not load;
    when it is not the state ``x`` was built on, up to the norm and sign the
    gauge does not see (ValueError: the magnitude of its transfer overlap
    with ``x.bases.reference`` falls short of its norm by more than
    FORM_TOL relative); or when ``extra`` names a key the manifest sets
    itself (ValueError) or holds a value JSON cannot encode (TypeError).
    :func:`kdmps.mps.write_archive` gives the write order.
    """
    path = Path(path)
    gs = load_mps(gs_path)
    nrm = mps_norm(gs)
    if (gs.L, gs.d) != (x.L, x.d) or not abs(overlap(x.bases.reference, gs)) >= (1.0 - FORM_TOL) * nrm:
        raise ValueError(f"{gs_path} does not hold the reference state the excitation was built on")
    digest = _sha256(tensor_blob(t.data) for t in gs.sites)
    if not Path(gs_path).is_absolute():
        gs_path = os.path.relpath(gs_path, path)
    manifest = {
        "format_version": 4,
        "kind": "excitation",
        "n": x.n,
        "L": x.L,
        "d": x.d,
        "D": max(x.bases.dims),
        "ground_state": str(gs_path),
        "ground_state_sha256": digest,
        "window_bonds": [[t.shape[2] for t in chain[:-1]] for chain in x.windows],
    }
    clash = sorted(set(extra or ()) & {*manifest, "windows_sha256"})
    if clash:
        raise ValueError(f"extra sets the manifest's own keys {clash}")
    manifest.update(extra or {})
    blobs = {f"t_{l}_{i}.ten": tensor_blob(t.data) for l, c in enumerate(x.windows, 1) for i, t in enumerate(c, 1)}
    manifest["windows_sha256"] = _sha256(blobs.values())
    write_archive(path, manifest, blobs)


def load_excitation(path) -> tuple[ExcitationState, dict]:
    """Read an excitation archive (rebuilds the gauge from the referenced
    reference-state archive, which loads through :func:`kdmps.mps.load_mps`).

    Only format 4 is read; a relative reference path resolves against the
    archive directory. Raises ValueError for another format_version, when
    the manifest lacks a key or holds a value of the wrong type, when its
    L or d disagree with the reference, when n or the window bonds do not
    fit the chain, when a blob is not exactly one array of the shape the
    bonds give, when the windows violate the discarded-space gauge
    condition by more than FORM_TOL (relative to the state's norm), or when
    a sha256 (of the reference's site blobs or of the window blobs, as
    read) does not match: an equal-shape swap of windows passes every other
    check.
    """
    path = Path(path)
    manifest = read_manifest(path, "excitation", 4)
    gs_ref, gs_sha, windows_sha = (
        _manifest_field(path, manifest, k, str) for k in ("ground_state", "ground_state_sha256", "windows_sha256")
    )
    n, L, d = (_manifest_field(path, manifest, k, int) for k in ("n", "L", "d"))
    bonds = _manifest_field(path, manifest, "window_bonds", list)
    gs_path = path / gs_ref  # an absolute path stays as it is
    gs = load_mps(gs_path)
    if _sha256(tensor_blob(t.data) for t in gs.sites) != gs_sha:
        raise ValueError(f"{path}: the reference archive {gs_path} changed after the excitation was saved")
    bases = build_bases(gs)
    if (L, d) != (bases.L, bases.d):
        raise ValueError(f"{path}: manifest gives L = {L}, d = {d}, but the reference has L = {bases.L}, d = {bases.d}")
    if not 1 <= n <= L or len(bonds) != L - n + 1 or any(not isinstance(b, list) or len(b) != n - 1 for b in bonds):
        raise ValueError(f"{path}: n = {n} does not fit L = {L} and the manifest's window_bonds")
    chains = []
    for l in range(1, L - n + 2):
        edges = [bases.dims[l - 1]] + list(bonds[l - 1]) + [bases.dims[l + n - 1]]
        shapes = [(edges[i - 1], d, edges[i]) for i in range(1, n + 1)]
        chains.append(site_tensors([read_tensor_blob(path / f"t_{l}_{i}.ten", s) for i, s in enumerate(shapes, 1)], l))
    x = ExcitationState(bases=bases, n=n, windows=tuple(chains))
    defect = gauge_defect(x)
    if not defect <= FORM_TOL * max(1.0, np.linalg.norm(flatten(x))):
        raise ValueError(f"{path}: the windows violate the discarded-space gauge condition by {defect:.3g}")
    if _sha256(tensor_blob(t.data) for chain in chains for t in chain) != windows_sha:
        raise ValueError(f"{path}: the window blobs changed after the excitation was saved")
    return x, manifest
