"""Matrix product operators for spin-1/2 chains.

Site ``l`` of an :class:`Mpo` carries legs ``("w{l-1}", "p{l}", "q{l}",
"w{l}")`` where ``p`` is the row (output) physical index and ``q`` the
column (input) one, so applying the operator contracts ``q`` against a
state's physical leg. Outer virtual bonds have extent one.

Every model is built by one builder from its coupling matrix,
H = sum_i onsite + sum_{i<j} J[i, j] S_i . S_j (:func:`_coupling_mpo`):
the Heisenberg chain (J on the superdiagonal), total S^z (onsite only),
total S^2 (J constant) and the Haldane-Shastry ring (J dense). The bond at
cut l carries three channels per direction of the column space of the
block J[:l, l:] (its SVD, cut at HS_CUTOFF), so every bond is minimal as
built and no compression pass runs. No builder sums operators;
:func:`mpo_sum_compress` stays as the reference the tests hold built bonds
against for minimality. All builders stay in real arithmetic: spin couplings
enter through S^z and the ladder pair, S.S = (S+S- + S-S+)/2 + S^z S^z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mps import Mps, phys
from .tensor import Tensor, chain_sum, env_step_left, mpo_matrix, qr, svd_split, transfer_left

__all__ = [
    "Mpo",
    "heisenberg_mpo",
    "haldane_shastry_mpo",
    "hs_coupling",
    "mpo_frobenius",
    "mpo_shift",
    "mpo_sum_compress",
    "expectation",
    "identity_mpo",
    "sz_total_mpo",
    "s2_total_mpo",
    "hs_ground_energy",
    "hs_first_excited_energy",
]

SZ = np.diag([0.5, -0.5])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # S+ in the (up, down) basis
SM = SP.T
ID2 = np.eye(2)
# channel blocks of the coupling MPO: open (S+, S-, S^z), carry, close with S.S
_OPENS = np.stack((SP, SM, SZ), axis=-1)
_I3 = np.eye(3)  # carry: each channel's (S+, S-, S^z) components pass through unmixed
_CLOSES = np.stack((0.5 * SM, 0.5 * SP, SZ))
# rank cutoff of every coupling block J[:l, l:]: singular values below HS_CUTOFF * ||J||_F are
# dropped. Set so that no haldane_shastry_mpo bond at L = 2..150 exceeds the one the former
# compression pass (relative cutoff 1e-12 of the operator norm) found.
HS_CUTOFF = 3e-12


def wleg(bond: int) -> str:
    return f"w{bond}"


def qhys(site: int) -> str:
    """Column (input) physical leg name at ``site``."""
    return f"q{site}"


@dataclass(frozen=True)
class Mpo:
    """Open-boundary MPO; Hermitian by construction for all builders here."""

    sites: tuple[Tensor, ...]

    def __post_init__(self) -> None:
        L = len(self.sites)
        if L == 0:
            raise ValueError("an MPO needs at least one site")
        for l, t in enumerate(self.sites, start=1):
            want = (wleg(l - 1), phys(l), qhys(l), wleg(l))
            if t.legs != want:
                raise ValueError(f"site {l} legs {t.legs}, expected {want}")
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[3] != 1:
            raise ValueError("outer MPO bonds must have extent 1")
        for l in range(1, L):
            if self.sites[l - 1].shape[3] != self.sites[l].shape[0]:
                raise ValueError(f"MPO virtual extents disagree at bond {l}")

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.sites[0].shape[1]

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple([1] + [t.shape[3] for t in self.sites])

    @cached_property
    def ops(self) -> tuple[np.ndarray, ...]:
        """Every site's :func:`~kdmps.tensor.mpo_matrix`, built once."""
        return tuple(mpo_matrix(t.data) for t in self.sites)

    @cached_property
    def mirrored_ops(self) -> tuple[np.ndarray, ...]:
        """The same for the chain read right to left (bonds swapped), in site order."""
        return tuple(mpo_matrix(t.data.transpose(3, 1, 2, 0)) for t in self.sites)


def _mpo_from_arrays(arrays: list[np.ndarray]) -> Mpo:
    sites = tuple(
        Tensor(arr, (wleg(l - 1), phys(l), qhys(l), wleg(l))) for l, arr in enumerate(arrays, start=1)
    )
    return Mpo(sites)


def identity_mpo(L: int, d: int = 2) -> Mpo:
    """The identity operator with all virtual bonds of extent one."""
    eye = np.eye(d).reshape(1, d, d, 1)
    return _mpo_from_arrays([eye.copy() for _ in range(L)])


def _cut_bases(J: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Orthonormal bases of the column spaces of the coupling blocks J[:l, l:].

    ``J`` is strictly upper triangular. Returns the zero-padded stack U of
    shape (L + 1, L, K) and the ranks K_l: the first K_l columns of U[l]
    span the columns of J[:l, l:] (so U[l, l:] = 0), and every other entry
    is zero. Only the rows of a block that hold a nonzero coupling are
    factored. A block with one such row is kept whole, without an SVD.
    Otherwise, directions whose singular value lies below HS_CUTOFF times
    the Frobenius norm of ``J`` are dropped.
    """
    L = J.shape[0]
    last = ((J != 0.0) * np.arange(L)).max(axis=1).tolist()  # farthest partner of each site (0 if none)
    ranks, units, blocks = [0] * (L + 1), [], []
    rows = []  # the sites left of the cut that couple across it
    for l in range(1, L):
        rows = [i for i in rows if last[i] >= l] + [l - 1] * (last[l - 1] >= l)
        if len(rows) == 1:
            ranks[l] = 1
            units.append((l, rows[0]))
        elif rows:
            blocks.append((l, rows))
    pieces = []
    if blocks:  # the cutoff is needed only here
        cut = HS_CUTOFF * np.sqrt(np.sum(J * J))
        for l, rows in blocks:
            v, s, _ = np.linalg.svd(J[rows, l:], full_matrices=False)
            ranks[l] = int(np.sum(s >= cut))
            pieces.append((l, rows, v[:, : ranks[l]]))
    U = np.zeros((L + 1, L, max(ranks)))
    for l, i in units:
        U[l, i, 0] = 1.0
    for l, rows, v in pieces:
        U[l, rows, : v.shape[1]] = v
    return U, ranks


def _coupling_mpo(J: np.ndarray, onsite: np.ndarray | None = None) -> Mpo:
    """H = sum_i onsite + sum_{i<j} J[i, j] S_i . S_j as an MPO built from
    the block SVDs of J, with no compression pass.

    At cut l (sites 0..l-1 | l..L-1, 0-based) the coupling block factors as
    J[:l, l:] = U_l S_l V_l^T with rank K_l (:func:`_cut_bases`). Bond l
    carries state 0 ("nothing placed yet"), the channels 1 + 3k + a holding
    sum_{i<l} U_l[i, k] S^a_i for a = (S+, S-, S^z), and a last state
    "done". Site s opens channel k with U_{s+1}[s, k] S^a, carries it
    through T_s = U_s^T U_{s+1}[:s] (exact, because J[:s, s+1:] is a column
    subset of J[:s, s:]), and closes it with weight (U_s^T J[:s, s])[k]
    times (0.5 S-, 0.5 S+, S^z). ``onsite`` is added at every site. Without
    it "done" at bond 1 and "start" at bond L-1 are identically zero and are
    dropped, and a zero operator has every bond of extent one. ``J`` must
    be strictly upper triangular.

    Every site is cut from one zero-padded stack that a few array
    operations fill for the whole chain.
    """
    L = J.shape[0]
    U, ranks = _cut_bases(J)
    if onsite is None and not any(ranks):
        return _zero_mpo(L, 2)
    K = U.shape[2]
    opens = U[1:].diagonal().T  # U_{s+1}[s]
    closes = np.matmul(J.T[:, None, :], U[:L])[:, 0]  # U_s^T J[:s, s]: rows i >= s of U_s vanish
    passes = np.matmul(U[:L].transpose(0, 2, 1), U[1:])  # U_s^T U_{s+1}[:s], for the same reason
    # site s keeps "done" at row 1 + 3 K_s and column 1 + 3 K_{s+1}; the padding there is zero
    # until the "done" entries are written last
    done = [1 + 3 * k for k in ranks]
    sites, done_l, done_r = np.arange(L), np.array(done[:L]), np.array(done[1:])
    W = np.zeros((L, 3 * K + 2, 2, 2, 3 * K + 2))
    W[:, 0, :, :, 0] = ID2
    W[:, 0, :, :, 1:-1] = (opens[:, None, None, :, None] * _OPENS[:, :, None, :]).reshape(L, 2, 2, 3 * K)
    W[:, 1:-1, 0, 0, 1:-1] = W[:, 1:-1, 1, 1, 1:-1] = (
        passes[:, :, None, :, None] * _I3[:, None, :]
    ).reshape(L, 3 * K, 3 * K)
    W[sites, 1:-1, :, :, done_r] = (closes[:, :, None, None, None] * _CLOSES).reshape(L, 3 * K, 2, 2)
    W[sites, done_l, :, :, done_r] = ID2
    if onsite is not None:
        W[sites, 0, :, :, done_r] = onsite
    arrays = [W[s, : done[s] + 1, :, :, : done[s + 1] + 1].copy() for s in range(L)]
    arrays[0] = arrays[0][0:1]
    arrays[-1] = arrays[-1][..., -1:]  # after the line above: one site is both ends
    if onsite is None:
        arrays[0], arrays[1] = arrays[0][..., :-1], arrays[1][:-1]
        arrays[-2], arrays[-1] = arrays[-2][..., 1:], arrays[-1][1:]
    return _mpo_from_arrays(arrays)


def heisenberg_mpo(L: int, J: float = 1.0) -> Mpo:
    """Nearest-neighbor Heisenberg chain H = J sum_l S_l . S_{l+1}.

    Bulk bond dimension 5; 4 at bond 1, which has no "done" state, and at
    bond L-1, which has no "start".
    """
    if L < 2:
        raise ValueError("need L >= 2")
    return _coupling_mpo(np.diag(np.full(L - 1, float(J)), 1))


def hs_coupling(L: int, i: int, j: int) -> float:
    """Ring exchange coefficient pi^2 / (L^2 sin^2(pi (i-j) / L))."""
    return np.pi**2 / (L**2 * np.sin(np.pi * (i - j) / L) ** 2)


def haldane_shastry_mpo(L: int) -> Mpo:
    """Spin-1/2 ring with inverse-square chord-distance exchange.

    H = sum_{i<j} pi^2 / (L^2 sin^2(pi (i-j)/L)) S_i . S_j, built from its
    coupling matrix with no compression pass: the bond at cut l is
    2 + 3 K_l, where K_l counts the singular values of J[:l, l:] at or
    above HS_CUTOFF times ||J||_F (2 + 3 min(l, L - l) for small L, less
    the outer "done"/"start" states at bonds 1 and L-1). Deterministic for
    fixed arguments.
    """
    if L < 2:
        raise ValueError("need L >= 2")
    J = np.zeros((L, L))
    i, j = np.triu_indices(L, 1)
    J[i, j] = hs_coupling(L, i, j)
    return _coupling_mpo(J)


def _zero_mpo(L: int, d: int) -> Mpo:
    return _mpo_from_arrays([np.zeros((1, d, d, 1)) for _ in range(L)])


def mpo_frobenius(h: Mpo) -> float:
    """Frobenius norm sqrt(Tr H^T H) by exact transfer contraction."""
    env = np.ones((1, 1))
    for t in h.sites:
        w = t.data.reshape(t.shape[0], -1, t.shape[3])  # (w, p q, w')
        env = transfer_left(env, w, w)
    return float(np.sqrt(max(env[0, 0], 0.0)))


def mpo_sum_compress(terms: list[Mpo], tol: float = 0.0) -> Mpo:
    """Sum MPOs as one direct sum (:func:`~kdmps.tensor.chain_sum`; a single
    term is taken as it is), then recompress the virtual bonds.

    A left-to-right QR pass fixes the gauge, then a right-to-left SVD pass
    drops bond singular values below ``max(tol, 1e-14)`` times the largest
    input term's Frobenius norm (at every interior bond the singular values
    of the orthogonalized chain carry the operator's full Frobenius weight,
    so this bounds the relative error of the dense operator). ``tol=0``
    therefore only strips numerically dead directions; an operator that
    cancels to zero collapses to bond dimension 1.
    """
    if not terms:
        raise ValueError("empty term list")
    for t in terms[1:]:
        if t.L != terms[0].L or t.d != terms[0].d:
            raise ValueError("terms must share length and physical dimension")
    total = _mpo_from_arrays(chain_sum([[t.data for t in h.sites] for h in terms])) if len(terms) > 1 else terms[0]
    L, d = total.L, total.d
    if L == 1:
        return total
    scale = max(mpo_frobenius(t) for t in terms)
    if scale == 0.0:
        return _zero_mpo(L, d)
    cutoff = max(tol, 1e-14) * scale
    sites = [t.data for t in total.sites]

    # left-to-right QR gauge pass (no truncation)
    for l in range(L - 1):
        q, r = qr(sites[l].reshape(-1, sites[l].shape[3]))
        sites[l] = q.reshape(sites[l].shape[0], d, d, q.shape[1])
        sites[l + 1] = np.tensordot(r, sites[l + 1], axes=(1, 0))

    # right-to-left SVD pass; the kept center keeps absorbing leftward
    for l in range(L - 1, 0, -1):
        u, s, vh, _ = svd_split(sites[l].reshape(sites[l].shape[0], -1))
        keep = int(np.sum(s >= cutoff))
        if keep == 0:
            return _zero_mpo(L, d)
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        sites[l] = vh.reshape(keep, d, d, sites[l].shape[3])
        sites[l - 1] = np.tensordot(sites[l - 1], u * s, axes=(3, 0))
    return _mpo_from_arrays(sites)


def mpo_shift(h: Mpo, c: float) -> Mpo:
    """The operator H + c * identity (uncompressed direct sum)."""
    chains = [[t.data for t in op.sites] for op in (h, identity_mpo(h.L, h.d))]
    return _mpo_from_arrays(chain_sum(chains, (1.0, c)))


def expectation(psi: Mps, h: Mpo) -> float:
    """<psi|H|psi> by exact transfer contraction (no compression)."""
    if psi.L != h.L or psi.d != h.d:
        raise ValueError("state and operator shapes disagree")
    ket = [t.data for t in psi.sites]
    env = np.ones((1, 1, 1))  # (bra, mpo, ket)
    for l in range(1, psi.L + 1):
        env = env_step_left(env, ket[l - 1], h.ops[l - 1], ket[l - 1])
    return float(env.reshape(()))


def sz_total_mpo(L: int) -> Mpo:
    """Total S^z as an MPO of bond dimension 2."""
    return _coupling_mpo(np.zeros((L, L)), SZ)


def s2_total_mpo(L: int) -> Mpo:
    """Total spin squared (S_tot)^2 = 3L/4 + 2 sum_{i<j} S_i . S_j.

    The constant coupling block has rank one at every cut, so every inner
    bond is 5 (the onsite 3/4 keeps "done" at bond 1 and "start" at bond
    L-1).
    """
    return _coupling_mpo(np.triu(np.full((L, L), 2.0), 1), 0.75 * ID2)


def hs_ground_energy(L: int) -> float:
    """Exact ground energy of the ring model: -pi^2 (L + 5/L) / 24 at even L
    and -pi^2 (L - 1/L) / 24 at odd L."""
    if L % 2:
        return -np.pi**2 * (L - 1.0 / L) / 24.0
    return -np.pi**2 * (L + 5.0 / L) / 24.0


def hs_first_excited_energy(L: int) -> float:
    """Exact lowest triplet energy of the ring model at even L, -pi^2 (L - 7/L) / 24.

    Raises:
        ValueError: odd L, whose ground level is a doublet; no closed form is
            given for the level above it.
    """
    if L % 2:
        raise ValueError(f"the first excited energy has a closed form only at even L, got L = {L}")
    return -np.pi**2 * (L - 7.0 / L) / 24.0
