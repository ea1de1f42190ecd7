"""Site-tensor arrays, their gauge moves and contractions, and the blob format.

Algorithms in this package run on plain float64 arrays with fixed axis
orders::

    MPS site:     (left bond, physical, right bond)
    MPO site:     (left bond, p, q, right bond)
                  p = row (output) physical index, q = column (input)
    environment:  (bra bond, MPO bond, ket bond), left or right

Everything they build comes down to a few operations over such chains, each
written once here:

- gauge moves (:func:`qr`, :func:`svd_split`, :func:`orthogonal_complement`),
  which fix their sign freedom by one rule so gauges are reproducible: each
  Q column, left singular vector and complement column gets its
  largest-magnitude entry positive;
- the direct sum of chains (:func:`chain_sum`), behind every sum of
  operators and the excitation branches :func:`kdmps.excitation.materialize`
  joins into one MPS;
- one ket-first matmul kernel for every (bra, MPO, ket) network
  (:func:`ket_step`, :func:`mpo_step`, :func:`close`, :func:`close_right`
  on MPO sites as :func:`mpo_matrix`). The bra-ket transfers, the MPO
  window between two environments (:func:`apply_window`: the DMRG matvec,
  the energy at a bond), the environment steps, the variance windows and
  the excitation pass of :mod:`kdmps.excitation` all run on it. The two
  growth steps can write into a caller's flat buffer (``out``), which is how
  :func:`kdmps.variance.nsite_variance` reuses its working memory;
- the folded two-site blocks (:func:`fold_left`, :func:`fold_right`): an
  environment with its neighbouring MPO site contracted in, as a matrix, so
  a two-site window is applied by two plain matrix products where the MPO
  is wide (see :class:`kdmps.dmrg.EffectiveHam`).

:class:`Tensor` is the immutable ``(data, legs)`` record that states,
operators and bases hand across the public API; leg names label the axes
(``("v{l-1}", "p{l}", "v{l}")`` for MPS site l, ``("w{l-1}", "p{l}",
"q{l}", "w{l}")`` for MPO site l) but take no part in computation.

Scalars are 64-bit reals; the models shipped here admit real operator
representations, so no complex support is provided.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "Tensor",
    "TruncationPolicy",
    "qr",
    "svd_split",
    "orthogonal_complement",
    "chain_sum",
    "mpo_matrix",
    "ket_step",
    "mpo_step",
    "close",
    "close_right",
    "transfer_left",
    "transfer_right",
    "apply_window",
    "env_step_left",
    "env_step_right",
    "fold_left",
    "fold_right",
    "tensor_blob",
    "read_tensor_blob",
]

# Degenerate singular values within this relative window of the truncation
# boundary are kept together (gauge-stable truncation).
DEGENERACY_WINDOW = 1e-12

TENSOR_MAGIC = b"KDMPSTEN"


@dataclass(frozen=True)
class Tensor:
    """Dense float64 array with uniquely named legs.

    Immutable after construction: the underlying array is marked read-only,
    so values are safe to share.
    """

    data: np.ndarray
    legs: tuple[str, ...]

    def __init__(self, data: np.ndarray, legs: Sequence[str]) -> None:
        arr = np.asarray(data, dtype=np.float64, order="C")
        legs = tuple(legs)
        if arr.ndim != len(legs):
            raise ValueError(f"got {len(legs)} legs for a rank-{arr.ndim} array")
        if len(set(legs)) != len(legs):
            raise ValueError(f"leg labels must be unique, got {legs}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "legs", legs)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


@dataclass(frozen=True)
class TruncationPolicy:
    """How many singular values survive an SVD split.

    The kept set always extends across a degenerate boundary: values within
    DEGENERACY_WINDOW (relative) of the last kept one are kept with it.

    Attributes:
        max_rank:   Keep at most this many values (None = unlimited).
        rel_cutoff: Drop values below ``rel_cutoff * s[0]``. Must be < 1.
    """

    max_rank: int | None = None
    rel_cutoff: float = 0.0

    def __post_init__(self) -> None:
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be positive or None")
        if not 0.0 <= self.rel_cutoff < 1.0:
            raise ValueError("rel_cutoff must satisfy 0 <= rel_cutoff < 1")

    def kept_count(self, s: np.ndarray) -> int:
        """Number of singular values kept from the nonincreasing sequence ``s``."""
        n = len(s)
        if n == 0:
            return 0
        keep = n
        if self.rel_cutoff > 0.0:
            # values strictly below rel_cutoff * s[0] are dropped
            keep = int(np.searchsorted(-s, -self.rel_cutoff * s[0], side="right"))
        if self.max_rank is not None:
            keep = min(keep, self.max_rank)
        if keep == 0:
            raise ValueError("truncation policy removed every singular value")
        boundary = s[keep - 1]
        while keep < n and s[keep] >= boundary * (1.0 - DEGENERACY_WINDOW):
            keep += 1
        return keep


NO_TRUNCATION = TruncationPolicy()


# ---------- gauge moves ----------


def _fix_signs(u: np.ndarray, vh: np.ndarray | None = None) -> None:
    """The one sign rule: make the largest-magnitude entry of each column of
    ``u`` positive, flipping the matching rows of ``vh`` with it (in place)."""
    if not u.shape[1]:
        return
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(peak < 0.0, -1.0, 1.0)
    u *= signs
    if vh is not None:
        vh *= signs[:, None]


def qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR ``m = q @ r``, each column of ``q`` with its largest-magnitude
    entry positive (the rows of ``r`` flip with it).

    The sign rule makes the factorization deterministic, so gauges built
    from it are reproducible. For the mirrored (RQ) move factor ``m.T``.
    """
    q, r = np.linalg.qr(m)
    _fix_signs(q, r)
    return q, r


def svd_split(
    m: np.ndarray, policy: TruncationPolicy = NO_TRUNCATION
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Truncated thin SVD ``m ~ u @ diag(s) @ vh``.

    ``u`` has orthonormal columns, ``vh`` orthonormal rows, ``s`` holds the
    nonincreasing kept singular values, and the returned discarded weight
    is the sum of squares of the dropped ones (= squared reconstruction
    error). Exact zero singular values carry no content and are dropped, so
    a zero matrix yields rank 0 with zero weight. Each left singular vector
    has its largest-magnitude entry positive.
    """
    if not np.any(m):
        return np.zeros((m.shape[0], 0)), np.zeros(0), np.zeros((0, m.shape[1])), 0.0
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; the transposed problem
        # usually succeeds and gives the same factorization.
        vt, s, ut = np.linalg.svd(m.T, full_matrices=False)
        u, vh = ut.T, vt.T
    keep = min(policy.kept_count(s), int(np.sum(s > 0.0)))
    discarded = float(np.sum(s[keep:] ** 2))
    u, s, vh = u[:, :keep].copy(), s[:keep].copy(), vh[:keep, :].copy()
    _fix_signs(u, vh)
    return u, s, vh, discarded


ISOMETRY_TOL = 1e-12


def orthogonal_complement(iso: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of an isometry's column space.

    ``iso`` must be an m x k matrix with orthonormal columns (m >= k,
    checked to 1e-12). The result is m x (m-k), with orthonormal columns
    orthogonal to the input ones, so stacking both gives an m x m orthogonal
    matrix. Computed from the full QR factorization (the Q columns beyond
    the input's span), never by forming the m x m projector; m == k yields
    an empty m x 0 matrix. Each column has its largest-magnitude entry
    positive.
    """
    m, k = iso.shape
    if m < k:
        raise ValueError(f"isometry must be tall, got {m}x{k}")
    gram = iso.T @ iso
    if not np.allclose(gram, np.eye(k), rtol=0.0, atol=ISOMETRY_TOL):
        dev = float(np.max(np.abs(gram - np.eye(k)))) if k else 0.0
        raise ValueError(f"input is not an isometry (max |A†A - 1| = {dev:.3e})")
    if m == k:
        return np.zeros((m, 0))
    comp = np.linalg.qr(iso, mode="complete")[0][:, k:].copy()
    _fix_signs(comp)
    return comp


# ---------- direct sums ----------


def chain_sum(chains: Sequence[Sequence[np.ndarray]], coeffs: Sequence[float] | None = None) -> list[np.ndarray]:
    """The chain of ``sum_k coeffs[k] * chains[k]`` by block-diagonal embedding.

    Every chain is a run of site arrays of equal length whose bonds are the
    first and last axis (MPS sites, MPO sites, excitation window slots);
    the axes between must agree site by site. The first sites are stacked
    along the last axis, each multiplied by its coefficient (none when
    ``coeffs`` is None), the last sites along axis 0, and the interior sites
    go block-diagonally in input order, so interior bond extents add. A
    one-site chain has no bond to stack on: its arrays are added.
    """
    if not chains:
        raise ValueError("empty chain list")
    sites = list(zip(*chains, strict=True))  # sites[i]: the i-th arrays of all chains
    firsts = sites[0] if coeffs is None else [k * a for k, a in zip(coeffs, sites[0], strict=True)]
    if len(sites) == 1:
        return [reduce(np.add, firsts)]
    out = [np.concatenate(firsts, axis=-1)]
    for blocks in sites[1:-1]:
        block = np.zeros((sum(b.shape[0] for b in blocks), *blocks[0].shape[1:-1], sum(b.shape[-1] for b in blocks)))
        lo_l = lo_r = 0
        for b in blocks:
            block[lo_l : lo_l + b.shape[0], ..., lo_r : lo_r + b.shape[-1]] = b
            lo_l, lo_r = lo_l + b.shape[0], lo_r + b.shape[-1]
        out.append(block)
    return out + [np.concatenate(sites[-1], axis=0)]


# ---------- transfers and (bra, MPO, ket) networks ----------
#
# Every network here grows an open environment in the C-contiguous axis order
# (bra bond, output legs..., MPO bond, ket legs..., ket bond), so each step is
# one matrix product on reshaped views, without the transposed copies a
# general tensordot makes. A network read right to left is the same steps on
# mirrored arrays: site arrays with every axis reversed (``a.T``) and MPO
# sites with their bonds swapped (``w.transpose(3, 1, 2, 0)``).


def mpo_matrix(w: np.ndarray) -> np.ndarray:
    """An MPO site (w, p, q, w') as the read-only (p w', w q) matrix
    :func:`mpo_step` applies (cached per operator as :attr:`kdmps.mpo.Mpo.ops`)."""
    m = w.transpose(1, 3, 0, 2).reshape(w.shape[1] * w.shape[3], -1)
    m.flags.writeable = False
    return m


def _into(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """The leading entries of the flat float64 buffer ``out`` as an array of
    ``shape`` for a matmul to write into (None stays None: a fresh result)."""
    if out is None:
        return None
    size = math.prod(shape)
    if out.size < size:
        raise ValueError(f"the buffer holds {out.size} entries, the result needs {size}")
    return out[:size].reshape(shape)


def ket_step(env: np.ndarray, ket: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Contract the left bond of ``ket`` against the last axis of ``env``;
    the ket's other axes go last. With a flat float64 ``out`` buffer the
    result is written to its leading entries and returned as a view."""
    k = ket.shape[0]
    m, kt = env.reshape(-1, k), ket.reshape(k, -1)
    y = np.matmul(m, kt, out=_into(out, (len(m), kt.shape[1])))
    return y.reshape(*env.shape[:-1], *ket.shape[1:])


def mpo_step(z: np.ndarray, op: np.ndarray, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an MPO site matrix (:func:`mpo_matrix`) to an open environment
    with ``j`` output legs: its MPO bond and next ket leg are contracted, and
    the new output leg goes after the others. Physical legs are square.
    ``out`` is a flat buffer for the result, as in :func:`ket_step`."""
    lead, d = z.shape[: j + 1], z.shape[j + 2]
    x = z.reshape(math.prod(lead), op.shape[1], -1)
    y = np.matmul(op, x, out=_into(out, (len(x), len(op), x.shape[2])))
    return y.reshape(*lead, d, op.shape[0] // d, *z.shape[j + 3 :])


def close(bra: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Contract a bra's left bond and physical legs against the leading axes
    of ``y``; the bra's right bond goes first."""
    k = bra.shape[-1]
    rows = bra.size // k
    return (bra.reshape(rows, k).T @ y.reshape(rows, -1)).reshape(k, *y.shape[bra.ndim - 1 :])


def close_right(y: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Contract the trailing (MPO bond, ket bond) axes of ``y`` against a
    right environment; its bra bond goes last."""
    out = y.reshape(-1, right[0].size) @ right.reshape(len(right), -1).T
    return out.reshape(*y.shape[:-2], len(right))


def transfer_left(env: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Grow a left (bra bond, ket bond) overlap environment by one site;
    ``bra`` and ``ket`` are (left, physical..., right) arrays, or MPO sites."""
    return close(bra, ket_step(env, ket))


def transfer_right(env: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Grow a right (bra bond, ket bond) overlap environment by one site:
    the left transfer on mirrored arrays."""
    return transfer_left(env, bra.T, ket.T)


def apply_window(
    left: np.ndarray, ws: Sequence[np.ndarray], kets: Sequence[np.ndarray], right: np.ndarray
) -> np.ndarray:
    """Apply an MPO window between two environments, leaving bra legs open.

    ``left``/``right`` are (bra, MPO, ket) environments flanking the window;
    ``left`` may carry open output legs after its bra bond (grown by
    :func:`ket_step` and :func:`mpo_step`; with no ``kets`` the call is
    :func:`close_right`). Each of ``kets`` is (left, physical..., right) and
    spans as many sites as it has physical legs (none for a bond matrix).
    ``ws`` holds one MPO matrix (:func:`mpo_matrix`) per physical leg.
    Returns (left bra bond, output physical legs..., right bra bond).
    """
    ops = iter(ws)
    z, j = left, left.ndim - 3
    for ket in kets:
        z = ket_step(z, ket)
        for _ in range(ket.ndim - 2):
            z = mpo_step(z, next(ops), j)
            j += 1
    return close_right(z, right)


def env_step_left(env: np.ndarray, bra: np.ndarray, op: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Grow a left (bra, MPO, ket) environment by one site. ``op`` is the
    site's MPO matrix (:func:`mpo_matrix`, cached as :attr:`kdmps.mpo.Mpo.ops`)."""
    return close(bra, mpo_step(ket_step(env, ket), op, 0))


def env_step_right(env: np.ndarray, bra: np.ndarray, op: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Grow a right (bra, MPO, ket) environment by one site: the left step
    on mirrored arrays. ``op`` is the site's mirrored MPO matrix
    (:attr:`kdmps.mpo.Mpo.mirrored_ops`)."""
    return env_step_left(env, bra.T, op, ket.T)


def fold_left(left: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A left (bra, MPO, ket) environment times the MPO site (w, p, q, w')
    after it, as the (bra p w', ket q) matrix."""
    m = np.tensordot(left, w, axes=(1, 0))  # (bra, ket, p, q, w')
    return m.transpose(0, 2, 4, 1, 3).reshape(left.shape[0] * w.shape[1] * w.shape[3], -1)


def fold_right(w: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The MPO site (w, p, q, w') times the right (bra, MPO, ket) environment
    after it, as the (w q ket, p bra) matrix. With ``lw = fold_left(left,
    w1)`` and ``wr = fold_right(w2, right)``, a two-site ket x (ket, q1, q2,
    ket') maps to its (bra p1, p2 bra') image by two matrix products:
    ``(lw @ x.reshape(lw.shape[1], -1)).reshape(-1, len(wr)) @ wr``."""
    m = np.tensordot(w, right, axes=(3, 1))  # (w, p, q, bra, ket)
    return m.transpose(0, 2, 4, 1, 3).reshape(w.shape[0] * w.shape[2] * right.shape[2], -1)


# ---------- binary blob format ----------
#
# magic "KDMPSTEN" | u32 rank | rank x u64 extents | row-major f64 payload,
# all little-endian. Leg names are not stored.


def tensor_blob(a: np.ndarray) -> bytes:
    """An array in the binary blob format."""
    header = struct.pack(f"<I{a.ndim}Q", a.ndim, *a.shape)
    return TENSOR_MAGIC + header + np.ascontiguousarray(a, dtype="<f8").tobytes()


def read_tensor_blob(path, shape: tuple[int, ...]) -> np.ndarray:
    """The array of ``shape`` in a blob file. The magic, the header's extents
    and the file's size (the header plus 8 bytes per entry) are checked
    before the payload is read (ValueError), so no read outruns the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(TENSOR_MAGIC))
        if magic != TENSOR_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        rank = int.from_bytes(fh.read(4), "little")
        start = len(TENSOR_MAGIC) + 4 + 8 * rank  # above size for a file cut inside the rank
        if size < start:
            raise ValueError(f"{path}: the blob is truncated")
        got = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        if got != tuple(shape):
            raise ValueError(f"{path} has shape {got}, but the manifest gives {tuple(shape)}")
        end = start + 8 * math.prod(got)
        if size < end:
            raise ValueError(f"{path}: the blob is truncated")
        if size > end:
            raise ValueError(f"{path}: the blob runs {size - end} bytes past its payload")
        return np.frombuffer(fh.read(end - start), dtype="<f8").reshape(got)
