"""Environments, effective Hamiltonians, Lanczos, and DMRG ground states.

Environment tensors carry axes (bra bond, operator bond, ket bond). Every
environment list is indexed by bond k = 0..L: ``lefts[k]`` covers sites
1..k (left-normalized tensors), ``rights[k]`` sites k+1..L
(right-normalized ones), and the energy closes at bond k between the two.

A DMRG sweep solves the one- or two-site windows at positions 1..L+1-width
and then back, writes each back (two sites split by a truncated SVD, one
site moved on by QR) and grows the environment left behind. The first
left-to-right half-sweep runs against right environments of the start
state, so its local solves stop once the residual has dropped by
``WARMUP_REL_TOL``; every later solve runs to ``LANCZOS_TOL``. Excited-sector
searches pass previously found states through ``orthogonal_to``: every
local eigensolve is then deflated against those states pulled into the
local frame.

A two-site window is applied either by the ket-first chain of
:func:`kdmps.tensor.apply_window` (ket step, one MPO step per site, close) or
folded: once per local solve the left environment is contracted with the
first MPO site and the second site with the right environment
(:func:`kdmps.tensor.fold_left`, :func:`kdmps.tensor.fold_right`), and every
matvec is then two plain matrix products. Per matvec, for bonds Dl, Dr, local
dimension d and MPO bonds w0, w1, w2 across the window, the chain costs
2 Dl Dr d^2 (w0 Dl + d w1 (w0 + w2) + w2 Dr) flops and the folded form
2 Dl Dr d^3 w1 (Dl + Dr). A window is folded when that is below
``FOLD_SHARE`` = 0.8 of the chain's count, which happens where the MPO is
wide against the bond (long-range couplings at small D). One-site and bond
windows always take the chain.

Every local eigenproblem, here and in :mod:`kdmps.excitation`, goes through
:func:`lanczos_lowest`. It keeps the Krylov basis as rows of 16-row float64
blocks, builds it by the three-term recurrence, runs one classical
Gram-Schmidt pass only when Simon's estimate says orthogonality is lost,
and deflates against the constraint set orthonormalized once. A ground-state
search owns one list of those blocks for all its local solves (the
sweeper's ``krylov``), so after the first sweep no solve takes fresh memory
for its basis; the excitation solver makes one solve per call and lets each
take fresh blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mps import Mps, _left_normalize, _right_normalize, canonicalize, site_tensors
from .mpo import Mpo
from .projectors import KeptBases, build_bases
from .tensor import (
    TruncationPolicy,
    apply_window,
    env_step_left,
    env_step_right,
    fold_left,
    fold_right,
    svd_split,
    transfer_left,
    transfer_right,
)

__all__ = [
    "EnvCache",
    "EffectiveHam",
    "LanczosResult",
    "DmrgOptions",
    "DmrgResult",
    "build_env",
    "lanczos_lowest",
    "dmrg_ground_state",
    "fixed_point_residuals",
]


# ---------- environment cache over a fixed A/B gauge ----------


@dataclass(frozen=True)
class EnvCache:
    """All left/right operator environments of a state with respect to an MPO.

    Both lists are indexed by bond k = 0..L: ``lefts[k]`` covers sites 1..k
    and ``rights[k]`` sites k+1..L, so ``lefts[0]`` and ``rights[L]`` are
    trivial (1,1,1) blocks. ``bases`` records the gauge the cache belongs to.
    """

    bases: KeptBases
    h: Mpo
    lefts: tuple[np.ndarray, ...]
    rights: tuple[np.ndarray, ...]

    def energy_at_bond(self, l: int) -> float:
        """Close <H> at bond l: the result is l-independent."""
        c = self.bases.bond[l]
        return float(np.vdot(c, apply_window(self.lefts[l], (), (c,), self.rights[l])))


def build_env(bases: KeptBases, h: Mpo) -> EnvCache:
    """Build the full environment cache of the gauge ``bases`` for ``h``."""
    L = bases.L
    if h.L != L or h.d != bases.d:
        raise ValueError("state and operator shapes disagree")
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    lefts: list[np.ndarray] = [np.ones((1, 1, 1))]
    for l in range(1, L + 1):
        lefts.append(env_step_left(lefts[l - 1], a[l - 1], h.ops[l - 1], a[l - 1]))
    rights: list[np.ndarray] = [np.ones((1, 1, 1))]  # bonds L, L-1, ..., 0
    for l in range(L, 0, -1):
        rights.append(env_step_right(rights[-1], b[l - 1], h.mirrored_ops[l - 1], b[l - 1]))
    return EnvCache(bases=bases, h=h, lefts=tuple(lefts), rights=tuple(rights[::-1]))


# ---------- effective Hamiltonians ----------


@dataclass(frozen=True)
class EffectiveHam:
    """Symmetric local operator in a mixed-canonical frame.

    ``mode`` is "bond" (acting on a D x D bond matrix at bond ``site``),
    "1s" (a single site tensor at ``site``) or "2s" (the pair ``site``,
    ``site``+1 and the bond between). ``ws`` are the window's MPO sites and
    ``ops`` the same sites as kernel matrices (:attr:`kdmps.mpo.Mpo.ops`).

    ``folded`` is None, and the window is applied by the ket-first chain
    :func:`kdmps.tensor.apply_window`, unless :func:`effective_ham` folds a
    two-site window (see the module docstring): it then holds the blocks
    (:func:`kdmps.tensor.fold_left` of ``left`` and the first site,
    :func:`kdmps.tensor.fold_right` of the second site and ``right``), built
    once per record, and each application is two matrix products.
    """

    mode: str
    site: int
    left: np.ndarray
    right: np.ndarray
    ws: tuple[np.ndarray, ...]
    ops: tuple[np.ndarray, ...]
    folded: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x.reshape(-1)).reshape(x.shape)  # bra and ket bonds agree in one gauge

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        if self.folded is None:
            return apply_window(self.left, self.ops, (flat.reshape(self.x_shape),), self.right).reshape(-1)
        lw, wr = self.folded
        return ((lw @ flat.reshape(lw.shape[1], -1)).reshape(-1, len(wr)) @ wr).reshape(-1)

    @property
    def x_shape(self) -> tuple[int, ...]:
        return (self.left.shape[2], *(w.shape[2] for w in self.ws), self.right.shape[2])


FOLD_SHARE = 0.8  # fold a two-site window below this share of the ket-first flops


def _folds(left: np.ndarray, ws: tuple[np.ndarray, ...], right: np.ndarray) -> bool:
    """Whether the two-site window between ``left`` and ``right`` is folded:
    its folded matvec takes under ``FOLD_SHARE`` of the ket-first chain's
    flops (counts in the module docstring). At equal flops the chain is the
    faster one; the margin keeps windows near the break-even on it
    (Haldane-Shastry L=12, D=32 mid-chain, at a ratio of 1.05, ran 18%
    slower folded)."""
    (dl, w0, _), (dr, w2, _) = left.shape, right.shape
    d, w1 = ws[0].shape[1], ws[0].shape[3]
    return d * w1 * (dl + dr) < FOLD_SHARE * (w0 * dl + d * w1 * (w0 + w2) + w2 * dr)


def effective_ham(env: EnvCache | _Sweeper, mode: str, site: int) -> EffectiveHam:
    """The bond/one-site/two-site effective Hamiltonian from a cache or a
    sweeper; a two-site window is folded when :func:`_folds` says so."""
    L = env.h.L
    width = {"bond": 0, "1s": 1, "2s": 2}.get(mode)
    if width is None:
        raise ValueError(f"unknown mode {mode!r}")
    first = site + 1 if mode == "bond" else site  # first site in the window
    if not 1 <= first <= L + 1 - width:
        raise ValueError(f"{mode} window at {site} out of range")
    ws = tuple(t.data for t in env.h.sites[first - 1 : first - 1 + width])
    ops = env.h.ops[first - 1 : first - 1 + width]
    left, right = env.lefts[first - 1], env.rights[first + width - 1]
    folded = None
    if width == 2 and _folds(left, ws, right):
        folded = (fold_left(left, ws[0]), fold_right(ws[1], right))
    return EffectiveHam(mode, site, left, right, ws, ops, folded)


# ---------- Lanczos ----------


@dataclass(frozen=True)
class LanczosResult:
    """Lowest Ritz pair plus convergence diagnostics.

    ``near_degenerate`` marks an unconverged run whose lowest Ritz values
    sit closer than 1e-10: the residual may stagnate there because the
    target eigenvalue is (nearly) degenerate.
    """

    value: float
    vector: np.ndarray
    residual: float
    converged: bool
    iterations: int
    breakdown: bool = False
    near_degenerate: bool = False


_BLOCK_ROWS = 16  # Krylov rows per storage block
_EPS = np.finfo(np.float64).eps
LANCZOS_MAX_ITER = 100  # iteration budget of every DMRG local solve
LANCZOS_TOL = 1e-10  # relative residual bound of every DMRG local solve
WARMUP_REL_TOL = 1e-2  # residual drop that ends a local solve of the first left-to-right half-sweep


def _krylov_block(store: list[np.ndarray], k: int, rows: int, n: int) -> np.ndarray:
    """Krylov rows 16k.. of a solve as a C-contiguous (rows, n) view of the
    flat block ``store[k]``, which is appended or replaced by a larger one
    when it is missing or too small."""
    if k == len(store):
        store.append(np.empty(rows * n))
    elif store[k].size < rows * n:
        store[k] = np.empty(rows * n)
    return store[k][: rows * n].reshape(rows, n)


def lanczos_lowest(
    matvec,
    init: np.ndarray,
    max_iter: int = LANCZOS_MAX_ITER,
    tol: float = LANCZOS_TOL,
    orth_against: tuple[np.ndarray, ...] = (),
    rel_tol: float = 0.0,
    store: list[np.ndarray] | None = None,
) -> LanczosResult:
    """Lowest eigenpair of a symmetric map by Lanczos iteration.

    The Krylov vectors are rows of float64 blocks of 16 (at most
    ``min(max_iter, init.size)`` rows, so an early stop never holds storage
    sized by ``max_iter``). The blocks are flat arrays in ``store``, a list
    the caller owns and may pass to solve after solve: block k holds rows
    16k.. at the start of its buffer, is replaced by a larger one when the
    rows a solve needs there do not fit, and is appended when the solve runs
    past the blocks there are. Only rows written in the current solve are
    read, and the returned vector is a new array. Without ``store`` every
    block is fresh. Each vector comes from the three-term recurrence;
    once Simon's estimate (Math. Comp. 42, 115 (1984)) of its largest
    overlap with the filled rows exceeds ``min(sqrt(eps), 0.01 tol
    max(1, |value|) / |T|)`` (T: the tridiagonal so far), it and the next
    vector get one classical Gram-Schmidt pass against those rows. The
    ``orth_against`` vectors are orthonormalized once (SVD, relative cutoff
    1e-12) and every generated vector is projected off their span
    (deflation), so the returned pair lives in its orthogonal complement
    even when those vectors overlap. Iteration stops when the residual
    bound drops below ``max(0.1 tol max(1, |value|), rel_tol beta_0)``,
    beta_0 being the start vector's residual ``||H x0 - alpha_0 x0||``
    (the first iteration's bound), or when the Krylov space is exhausted
    (flagged as breakdown, best pair returned). ``converged`` compares the
    true residual with ``max(tol max(1, |value|), rel_tol beta_0)``, so a
    nonzero ``rel_tol`` asks only for that drop of the residual.
    """
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    v = np.asarray(init, dtype=np.float64).reshape(-1)
    g = np.zeros((0, v.size))
    if orth_against:
        g = svd_split(np.stack([np.reshape(x, -1) for x in orth_against]), TruncationPolicy(rel_cutoff=1e-12))[2]

    def deflate(x: np.ndarray) -> np.ndarray:
        return x - g.T @ (g @ x) if len(g) else x

    v = deflate(v)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("initial vector vanishes after orthogonalization")

    cap = min(max_iter, v.size)
    store = [] if store is None else store
    blocks = [_krylov_block(store, 0, min(_BLOCK_ROWS, cap), v.size)]
    v_prev = v = np.divide(v, nrm, out=blocks[0][0])
    tri = np.zeros((cap, cap))
    om, om_prev, b = np.ones(1), np.zeros(0), 0.0  # overlap estimates of v, v_prev with the rows; v_prev-v coupling
    breakdown = reorth = False
    for it in range(cap):
        w = matvec(v)
        tri[it, it] = alpha = v @ w
        evals, evecs = np.linalg.eigh(tri[: it + 1, : it + 1])
        theta, tnorm = float(evals[0]), max(-evals[0], evals[-1])
        ritz = evecs[:, 0]
        w = deflate(w - alpha * v - b * v_prev)
        beta = float(np.linalg.norm(w))
        nxt = np.zeros(it + 2)  # Simon's recurrence: overlaps of the next vector with the rows
        nxt[:it] = tri[:it, : it + 1] @ om - alpha * om[:it] - b * om_prev
        nxt[:-1] = (nxt[:-1] + np.copysign(_EPS * tnorm, nxt[:-1])) / max(beta, 1e-14)
        nxt[-1], lost = 1.0, np.abs(nxt[:-1]).max()
        if reorth or beta < 1e-14 or lost > _EPS**0.5 or lost * tnorm > 0.01 * tol * max(1.0, abs(theta)):
            for k, q in enumerate(blocks):  # one classical Gram-Schmidt pass, here and on the next vector
                q = q[: it + 1 - _BLOCK_ROWS * k]
                w -= (q @ w) @ q
            beta = float(np.linalg.norm(w))
            nxt[:-1], reorth = _EPS, not reorth

        # residual bound for the lowest Ritz pair
        bound = beta * abs(ritz[-1])
        if it == 0:
            rel_target = rel_tol * bound
        if bound <= max(0.1 * tol * max(1.0, abs(theta)), rel_target):
            break
        if beta < 1e-14:
            breakdown = True
            break
        if it + 1 < cap:
            tri[it, it + 1] = tri[it + 1, it] = b = beta
            if (it + 1) % _BLOCK_ROWS == 0:
                blocks.append(_krylov_block(store, len(blocks), min(_BLOCK_ROWS, cap - it - 1), v.size))
            v_prev, v = v, np.divide(w, beta, out=blocks[-1][(it + 1) % _BLOCK_ROWS])
            om_prev, om = om, nxt

    rows = [q[: it + 1 - _BLOCK_ROWS * k] for k, q in enumerate(blocks)]
    vec = deflate(sum(ritz[_BLOCK_ROWS * k : _BLOCK_ROWS * (k + 1)] @ q for k, q in enumerate(rows)))
    vn = np.linalg.norm(vec)
    if vn > 0.0:
        vec = vec / vn
    residual = float(np.linalg.norm(deflate(matvec(vec) - theta * vec)))
    converged = residual <= max(tol * max(1.0, abs(theta)), rel_target)
    near_degenerate = not converged and it > 0 and float(evals[1] - evals[0]) < 1e-10
    return LanczosResult(theta, vec, residual, converged, it + 1, breakdown, near_degenerate)


# ---------- DMRG ----------


@dataclass(frozen=True)
class DmrgOptions:
    """Sweep count, truncation, and convergence controls.

    ``conv_tol`` compares energies of consecutive full sweeps. States in
    ``orthogonal_to`` are projected out of every local eigenproblem
    (excited-sector search).
    """

    n_sweeps: int = 12
    policy: TruncationPolicy = field(default_factory=lambda: TruncationPolicy(max_rank=64, rel_cutoff=1e-13))
    conv_tol: float = 1e-10
    orthogonal_to: tuple[Mps, ...] = ()


@dataclass(frozen=True)
class DmrgResult:
    """A ground-state search's state, energies and truncation record.

    ``sweep_discarded`` holds the largest discarded weight of each sweep and
    ``max_discarded`` the largest of them. Both include the first
    left-to-right half-sweep, whose local solves stop at a
    ``WARMUP_REL_TOL`` residual drop: those windows are not yet eigenvectors
    and may need more than the bond allows, so ``max_discarded`` can be
    nonzero on a run that ends in a state the bonds hold exactly
    (Heisenberg L=4, D=2 reads about 0.045). ``residual`` is the last local
    solve's, which always runs to ``LANCZOS_TOL``.
    """

    psi: Mps
    energy: float
    sweep_energies: tuple[float, ...]
    local_energies: tuple[float, ...]
    max_discarded: float
    sweep_discarded: tuple[float, ...]
    residual: float
    converged: bool
    n_sweeps: int


class _Sweeper:
    """Mutable mixed-canonical working state for DMRG sweeps (environments by bond, as in :class:`EnvCache`)."""

    def __init__(self, psi0: Mps, h: Mpo, opts: DmrgOptions):
        state, _ = canonicalize(psi0, 1)
        self.sites = [t.data for t in state.sites]  # sites[center-1] is the center
        self.center = 1
        self.h = h
        self.opts = opts
        self.lefts: list[np.ndarray | None] = [np.ones((1, 1, 1))] + [None] * h.L
        self.rights: list[np.ndarray | None] = [None] * h.L + [np.ones((1, 1, 1))]
        # overlap environments per orthogonality constraint: (ket bond, gs bond)
        self.ortho = [[t.data for t in g.sites] for g in opts.orthogonal_to]
        self.olefts = [[np.ones((1, 1))] + [None] * h.L for _ in self.ortho]
        self.orights = [[None] * h.L + [np.ones((1, 1))] for _ in self.ortho]
        self.krylov: list[np.ndarray] = []  # the Krylov blocks every local solve reuses
        for k in range(h.L - 1, 0, -1):
            self._grow(k, to_right=False)

    def _local_constraints(self, l: int, width: int) -> tuple[np.ndarray, ...]:
        """Constraint states pulled into the local frame at sites l..l+width-1."""
        out = []
        for i, g in enumerate(self.ortho):
            cur = self.olefts[i][l - 1]  # (bra bond, gs bond)
            for s in range(l, l + width):
                cur = np.tensordot(cur, g[s - 1], axes=(-1, 0))  # (b, .., p, g')
            cur = np.tensordot(cur, self.orights[i][l + width - 1], axes=(-1, 1))
            v = cur.reshape(-1)
            if np.linalg.norm(v) > 1e-12:
                out.append(v)
        return tuple(out)

    def _solve_local(self, l: int, width: int, rel_tol: float) -> tuple[LanczosResult, np.ndarray]:
        """The lowest state of the ``width``-site window at l (to ``LANCZOS_TOL``, or
        to a ``rel_tol`` residual drop), and its vector in the window's shape."""
        heff = effective_ham(self, f"{width}s", l)
        x0 = self.sites[l - 1] if width == 1 else np.tensordot(self.sites[l - 1], self.sites[l], axes=(2, 0))
        orth = self._local_constraints(l, width)
        res = lanczos_lowest(heff.matvec, x0.reshape(-1), orth_against=orth, rel_tol=rel_tol, store=self.krylov)
        return res, res.vector.reshape(heff.x_shape)

    def _step(self, l: int, x: np.ndarray, to_right: bool) -> float:
        """Write the solved window ``x`` back at sites l.., move the center on
        and grow the environment left behind. Two sites are split by the
        truncated SVD (its discarded weight is returned), one site hands its
        gauge on by QR, except at the chain's end, where the sweep turns."""
        dw = 0.0
        if x.ndim == 4:
            dl, d, _, dr = x.shape
            u, s, vh, dw = svd_split(x.reshape(dl * d, d * dr), self.opts.policy)
            s = s / np.linalg.norm(s)
            u, vh = (u, s[:, None] * vh) if to_right else (u * s, vh)
            self.sites[l - 1 : l + 1] = u.reshape(dl, d, len(s)), vh.reshape(len(s), d, dr)
            self.center = l + 1 if to_right else l
        else:
            self.sites[l - 1] = x
            if l == (self.h.L if to_right else 1):
                return dw
            (_left_normalize if to_right else _right_normalize)(self.sites, l)
            self.center = l + 1 if to_right else l - 1
        self._grow(self.center - 1 if to_right else self.center, to_right)
        return dw

    def _grow(self, k: int, to_right: bool) -> None:
        """Grow ``lefts[k]`` by site k (``to_right``) or ``rights[k]`` by site k+1."""
        if to_right:
            a = self.sites[k - 1]
            self.lefts[k] = env_step_left(self.lefts[k - 1], a, self.h.ops[k - 1], a)
            for i, g in enumerate(self.ortho):
                self.olefts[i][k] = transfer_left(self.olefts[i][k - 1], a, g[k - 1])
        else:
            b = self.sites[k]
            self.rights[k] = env_step_right(self.rights[k + 1], b, self.h.mirrored_ops[k], b)
            for i, g in enumerate(self.ortho):
                self.orights[i][k] = transfer_right(self.orights[i][k + 1], b, g[k])

    def to_mps(self) -> Mps:
        return Mps(site_tensors(self.sites), form="site", center=self.center)


def dmrg_ground_state(psi0: Mps, h: Mpo, mode: str = "2s", opts: DmrgOptions | None = None) -> DmrgResult:
    """Variational ground-state search by alternating left/right sweeps.

    ``mode`` "2s" optimizes two-site windows and truncates per the options'
    policy (bond dimensions can grow); "1s" optimizes single sites at fixed
    bond dimensions; a sweep makes 2 (L + 1 - width) local solves.

    The right environments of the first left-to-right half-sweep all come
    from ``psi0``, so its local solves stop once their residual bound has
    fallen to ``WARMUP_REL_TOL`` times the start vector's residual; every
    later solve runs to ``LANCZOS_TOL``. Only that half-sweep is relaxed: a
    relaxed sweep back can settle on an excited local eigenvector (Heisenberg
    L=4, D=2 then stalls at -1.536 against -1.616).

    Convergence is declared when the energy change between consecutive full
    sweeps, each ending in full-tolerance solves, drops below
    ``opts.conv_tol``; the state is returned either way, with the flag
    recording which case occurred.
    """
    if mode not in ("1s", "2s"):
        raise ValueError("mode must be '1s' or '2s'")
    if psi0.L != h.L or psi0.d != h.d:
        raise ValueError("state and operator shapes disagree")
    opts = opts or DmrgOptions()
    if opts.n_sweeps < 1:
        raise ValueError("need at least one sweep")
    width = 1 if mode == "1s" else 2
    if width > h.L:
        raise ValueError("two-site mode needs L >= 2")
    sw = _Sweeper(psi0, h, opts)
    positions = range(1, h.L + 2 - width)
    schedule = [(l, True) for l in positions] + [(l, False) for l in reversed(positions)]

    sweep_energies: list[float] = []
    local_energies: list[float] = []
    sweep_discarded: list[float] = []
    for sweep in range(opts.n_sweeps):
        dw = 0.0
        for l, to_right in schedule:
            res, x = sw._solve_local(l, width, WARMUP_REL_TOL if sweep == 0 and to_right else 0.0)
            local_energies.append(res.value)
            dw = max(dw, sw._step(l, x, to_right))
        sweep_energies.append(res.value)
        sweep_discarded.append(dw)
        converged = len(sweep_energies) > 1 and abs(sweep_energies[-1] - sweep_energies[-2]) < opts.conv_tol
        if converged:
            break
    return DmrgResult(
        psi=sw.to_mps(),
        energy=sweep_energies[-1],
        sweep_energies=tuple(sweep_energies),
        local_energies=tuple(local_energies),
        max_discarded=max(sweep_discarded),
        sweep_discarded=tuple(sweep_discarded),
        residual=res.residual,
        converged=converged,
        n_sweeps=len(sweep_energies),
    )


def fixed_point_residuals(psi: Mps, h: Mpo, l: int | None = None) -> dict[str, float]:
    """Bond, one-site (both flanking sites), and two-site defect norms.

    Evaluates ||(H_eff - E) x|| for the bond matrix at bond l, the centers
    at sites l and l+1, and the two-site window, all in one fixed gauge.
    At a variational fixed point the bond and one-site defects are bounded
    by the two-site one (they are its kept-sector projections).
    """
    bases = build_bases(psi)
    env = build_env(bases, h)
    L = bases.L
    if l is None:
        l = L // 2
    if not 1 <= l <= L - 1:
        raise ValueError("need a bond 1 <= l <= L-1")
    e = env.energy_at_bond(l)

    out: dict[str, float] = {}
    c = bases.bond[l]
    hb = effective_ham(env, "bond", l)
    out["bond"] = float(np.linalg.norm(hb.apply(c) - e * c))
    for s, key in ((l, "one_site_left"), (l + 1, "one_site_right")):
        x = bases.center_site(s)
        h1 = effective_ham(env, "1s", s)
        out[key] = float(np.linalg.norm(h1.apply(x) - e * x))
    x2 = np.tensordot(bases.left[l - 1].data, np.tensordot(bases.bond[l], bases.right[l].data, axes=(1, 0)), axes=(2, 0))
    h2 = effective_ham(env, "2s", l)
    out["two_site"] = float(np.linalg.norm(h2.apply(x2) - e * x2))
    out["energy"] = e
    return out
