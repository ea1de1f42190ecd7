"""Kept/discarded isometries and the n-site projector algebra.

Any MPS has one set of kept and discarded spaces. :func:`build_bases`
builds them, here and nowhere else, as one :class:`KeptBases`: left
isometries A_l, right isometries B_l and bond matrices C_l of the
normalized state, such that for every bond l the chain
``A_1..A_l C_l B_{l+1}..B_L`` rebuilds it exactly, and their orthogonal
complements Abar_l, Bbar_l.

A projector is its list of sector-pair terms: ``(coeff, (x, xbar, l,
lbar))`` stands for coeff times the projector with a kept (K) or
discarded (D) sector x on the left anchor l, identity on the sites in
between, and a K or D sector xbar on the right anchor lbar. Every
``expand_*`` builder returns such a list for a chain of length L:

* local n-site projectors (a KK pair with n free sites),
* their one-sided orthogonalized versions (DK / KD pairs),
* global n-site projectors (sum over positions, any anchor choice),
* irreducible n-site projectors (DK row for n=1, DD row for n>=2),

plus the alternative forms the identity suite checks. A single sector
pair is the one-term list ``[(1.0, pair)]``. :func:`dense_projector`
takes any list and rejects malformed pairs.

Projecting a window to the discarded space (the variance windows, the
excitation gauge) never materializes ``Abar Abar^T``; it applies
``1 - A A^T`` or ``1 - B^T B`` on the parent legs.
The explicit complements are plain arrays built lazily, on the first read
of ``KeptBases.discarded_left``/``discarded_right``, so only dense
materialization pays for them.
:func:`dense_sector_pair` and :func:`dense_projector` build their frames
with the dense oracle's one chain fold (:func:`kdmps.ed.fold_chain`) and
check the dense guard before they allocate anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ed import fold_chain, guard_dims
from .mps import Mps, _right_normalize, canonicalize, site_tensors
from .tensor import Tensor, orthogonal_complement, svd_split

__all__ = [
    "KeptBases",
    "build_bases",
    "expand_local",
    "expand_local_ortho",
    "expand_global",
    "expand_global_overlapping",
    "expand_irreducible",
    "expand_irreducible_right",
    "expand_irreducible_overlapping",
    "expand_tangent_mixed",
    "convert_kd_dk",
    "dense_projector",
    "subspace_dimension",
]


# ---------- bases ----------


@dataclass(frozen=True)
class KeptBases:
    """The fixed gauge of a normalized reference state: its kept isometries
    and bond matrices, and their discarded complements.

    Attributes:
        reference: the unit-norm reference MPS (site-canonical at 1).
        left:      A_1..A_L, left-normalized, legs ("v{l-1}", "p{l}", "v{l}").
        right:     B_1..B_L, right-normalized, same leg names.
        bond:      bond matrices C_0..C_L (numpy, shape D_l x D_l); for every
                   bond, A_1..A_l C_l B_{l+1}..B_L equals the reference.

    The complements ``discarded_left`` and ``discarded_right`` are built on
    first read, one complete QR per site, so only callers that read them
    pay for them.
    """

    reference: Mps
    left: tuple[Tensor, ...]
    right: tuple[Tensor, ...]
    bond: tuple[np.ndarray, ...]

    @property
    def L(self) -> int:
        return len(self.left)

    @property
    def d(self) -> int:
        return self.left[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        """Kept bond dimensions D_0..D_L."""
        return tuple([1] + [t.shape[2] for t in self.left])

    def center_site(self, l: int) -> np.ndarray:
        """The 1-site center C_l = C_{l-1} B_l, shaped (D_{l-1}, d, D_l)."""
        return np.tensordot(self.bond[l - 1], self.right[l - 1].data, axes=(1, 0))

    @cached_property
    def discarded_left(self) -> tuple[np.ndarray, ...]:
        """Abar_1..Abar_L: ``[l-1]`` is a (D_{l-1}, d, D_{l-1} d - D_l) array
        orthonormal to A_l (empty where D_{l-1} d = D_l)."""
        comps = [orthogonal_complement(t.data.reshape(-1, t.shape[2])) for t in self.left]
        return tuple(c.reshape(*t.shape[:2], -1) for c, t in zip(comps, self.left))

    @cached_property
    def discarded_right(self) -> tuple[np.ndarray, ...]:
        """Bbar_1..Bbar_L, the mirror of :attr:`discarded_left` on the first axis."""
        comps = [orthogonal_complement(t.data.reshape(t.shape[0], -1).T).T for t in self.right]
        return tuple(c.reshape(-1, *t.shape[1:]) for c, t in zip(comps, self.right))


def build_bases(psi: Mps) -> KeptBases:
    """The fixed gauge of ``psi``, normalized.

    B_l come from right-canonicalizing at site 1 (site 1 too: its residual
    is the 1x1 norm). A left-to-right SVD sweep over C_{l-1} B_l then gives
    A_l and C_l = s vh, so every bond matrix is the Schmidt weights times a
    residual right rotation: not diagonal in general, but exact, and no
    small Schmidt value is divided by. The final 1x1 bond matrix is +-1;
    its sign goes into A_L.
    """
    right, _ = canonicalize(psi, 1)
    b_set = [t.data for t in right.sites]
    center = _right_normalize(b_set, 1)
    a_set: list[np.ndarray] = []
    bonds = [center]
    for l in range(1, psi.L + 1):
        work = np.tensordot(center, b_set[l - 1], axes=(1, 0))
        dl, d, dr = work.shape
        u, s, vh, _ = svd_split(work.reshape(dl * d, dr))
        a_set.append(u.reshape(dl, d, len(s)))
        center = s[:, None] * vh
        bonds.append(center)
    if bonds[-1][0, 0] < 0.0:
        a_set[-1] = -a_set[-1]
        bonds[-1] = -bonds[-1]
    reference = Mps(site_tensors([b_set[0] * bonds[0][0, 0]] + b_set[1:]), form="site", center=1)
    return KeptBases(reference=reference, left=site_tensors(a_set), right=site_tensors(b_set), bond=tuple(bonds))


# ---------- sector-pair term lists ----------

Pair = tuple[str, str, int, int]
Terms = list[tuple[float, Pair]]


def _check_pair(pair: Pair, L: int) -> bool:
    """Validate a pair; True when it is zero (a boundary discarded sector is empty)."""
    x, xbar, l, lbar = pair
    if x not in ("K", "D") or xbar not in ("K", "D"):
        raise ValueError(f"sectors ({x!r}, {xbar!r}) must be 'K' or 'D'")
    if not 0 <= l < lbar <= L + 1:
        raise ValueError(f"anchors ({l}, {lbar}) outside 0 <= l < lbar <= {L + 1}")
    return (x == "D" and l == 0) or (xbar == "D" and lbar == L + 1)


def _local_pair(n: int, l: int, L: int) -> Pair:
    if n < 0 or not 1 <= l <= L + 1 - n:
        raise ValueError(f"local projector site {l} outside [1, {L + 1 - n}] for n={n}")
    return ("K", "K", l - 1, l + n)


def expand_local(n: int, l: int, L: int) -> Terms:
    """Local n-site projector on sites l..l+n-1: one KK pair (l-1, l+n)."""
    return [(1.0, _local_pair(n, l, L))]


def expand_local_ortho(n: int, l: int, side: str, L: int) -> Terms:
    """One-sided orthogonalized local projector: the DK pair (l, l+n) for
    side "<", the KD pair (l-1, l-1+n) for side ">".
    """
    if side not in ("<", ">"):
        raise ValueError("side must be '<' or '>'")
    if n < 1 or not 1 <= l <= L + 1 - n:
        raise ValueError(f"orthogonalized local projector needs n >= 1, site in [1, {L + 1 - n}]")
    return [(1.0, ("D", "K", l, l + n) if side == "<" else ("K", "D", l - 1, l - 1 + n))]


def expand_global(n: int, L: int, anchor: int | None = None) -> Terms:
    """Global n-site projector as DK terms left of an anchor, the local
    projector at the anchor (in [1, L+1-n], default L+1-n), and KD terms
    right of it (mutually orthogonal).
    """
    if not 0 <= n <= L:
        raise ValueError(f"n must lie in [0, {L}]")
    if n == 0:
        return [(1.0, ("K", "K", L, L + 1))]
    if anchor is None:
        anchor = L + 1 - n
    local = _local_pair(n, anchor, L)  # validates the anchor before the loops use it
    terms: Terms = [(1.0, ("D", "K", l, l + n)) for l in range(1, anchor)]
    terms.append((1.0, local))
    terms += [(1.0, ("K", "D", l - 1, l - 1 + n)) for l in range(anchor + 1, L + 2 - n)]
    return terms


def expand_global_overlapping(n: int, L: int) -> Terms:
    """Anchor-free form: all local n-site projectors minus the overlaps
    (local (n-1)-site projectors on the shared windows).
    """
    if not 1 <= n <= L:
        raise ValueError(f"n must lie in [1, {L}]")
    terms: Terms = [(1.0, _local_pair(n, l, L)) for l in range(1, L + 2 - n)]
    terms += [(-1.0, _local_pair(n - 1, l + 1, L)) for l in range(1, L + 1 - n)]
    return terms


def expand_irreducible(n: int, L: int) -> Terms:
    """Irreducible n-site projector: rank-1 KK for n=0, the DK row for n=1,
    the DD row (n-2 free sites between two discarded sectors) for n >= 2.
    """
    if not 0 <= n <= L:
        raise ValueError(f"n must lie in [0, {L}]")
    if n == 0:
        return [(1.0, ("K", "K", L, L + 1))]
    if n == 1:
        return [(1.0, ("D", "K", l, l + 1)) for l in range(1, L + 1)]
    return [(1.0, ("D", "D", l, l + n - 1)) for l in range(1, L + 2 - n)]


def expand_irreducible_right(L: int) -> Terms:
    """Gauge-reflected form of the n=1 irreducible projector (KD row)."""
    return [(1.0, ("K", "D", l - 1, l)) for l in range(1, L + 1)]


def expand_irreducible_overlapping(n: int, L: int) -> Terms:
    """Irreducible projector written purely through local K-sector projectors."""
    if not 1 <= n <= L:
        raise ValueError(f"n must lie in [1, {L}]")
    terms: Terms = []
    if n == 1:
        for l in range(1, L + 1):
            terms.append((1.0, _local_pair(1, l, L)))
            terms.append((-1.0, ("K", "K", l - 1, l)))  # bond projector at l-1
        return terms
    for l in range(1, L + 2 - n):
        terms.append((1.0, _local_pair(n, l, L)))
        terms.append((-1.0, _local_pair(n - 1, l + 1, L)))
        terms.append((-1.0, _local_pair(n - 1, l, L)))
        terms.append((1.0, _local_pair(n - 2, l + 1, L)))
    return terms


def expand_tangent_mixed(L: int, anchor: int) -> Terms:
    """n=1 irreducible projector as the global 1-site projector at this
    anchor minus the rank-1 reference projector.
    """
    return expand_global(1, L, anchor) + [(-1.0, ("K", "K", L, L + 1))]


def convert_kd_dk(L: int, n: int, lbar: int, lprime: int) -> tuple[Terms, Terms]:
    """Two equivalent sector-pair sums for a window of DK projectors.

    The left list is sum_{l=lbar..lprime} DK(l, l+n); the right list is the
    telescoped conversion: the local (n-1)-site projector at lbar, plus the
    matching KD terms, minus the local (n-1)-site projector at lprime+1.
    Their dense materializations agree.
    """
    if n < 1:
        raise ValueError("conversion needs n >= 1")
    if not 1 <= lbar <= lprime <= L + 1 - n:
        raise ValueError(f"window [{lbar}, {lprime}] outside [1, {L + 1 - n}]")
    lhs: Terms = [(1.0, ("D", "K", l, l + n)) for l in range(lbar, lprime + 1)]
    rhs: Terms = [(1.0, _local_pair(n - 1, lbar, L))]
    rhs += [(1.0, ("K", "D", l - 1, l - 1 + n)) for l in range(lbar, lprime + 1)]
    rhs.append((-1.0, _local_pair(n - 1, lprime + 1, L)))
    return lhs, rhs


# ---------- discarded-space projections ----------


def _project_out_left(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(1 - A A^T) on the fused (left bond, physical) legs of ``m``, into a
    new array: the excitation solver projects views of Lanczos's Krylov rows,
    which must stay as they are."""
    mm = m.reshape(-1, m.shape[2])
    am = a.reshape(-1, a.shape[2])
    return (mm - am @ (am.T @ mm)).reshape(m.shape)


# ---------- dense materialization ----------


def dense_sector_pair(bases: KeptBases, pair: Pair) -> np.ndarray:
    """Exact d^L x d^L matrix of one sector-pair projector."""
    x, xbar, l, lbar = pair
    L, d = bases.L, bases.d
    guard_dims(d, L)
    if _check_pair(pair, L):
        return np.zeros((d**L, d**L))

    A = [t.data for t in bases.left]
    B = [t.data for t in bases.right]
    v = fold_chain(A[:l] if x == "K" else A[: l - 1] + [bases.discarded_left[l - 1]])[0]
    w = fold_chain(B[lbar - 1 :] if xbar == "K" else [bases.discarded_right[lbar - 1]] + B[lbar:])[:, :, 0].T
    mid = d ** (lbar - l - 1)
    return np.kron(np.kron(v @ v.T, np.eye(mid)), w @ w.T)


def dense_projector(terms: Terms, bases: KeptBases) -> np.ndarray:
    """Exact dense matrix of a sector-pair term list (within the dense guard)."""
    d, L = bases.d, bases.L
    guard_dims(d, L)
    out = np.zeros((d**L, d**L))
    for coeff, pair in terms:
        out += coeff * dense_sector_pair(bases, pair)
    return out


# ---------- bookkeeping ----------


def subspace_dimension(bases: KeptBases, n: int) -> int:
    """Dimension of the irreducible n-site variation space.

    1 for n=0; sum_l Dbar^A_l D_l for n=1; sum_l Dbar^A_l d^{n-2}
    Dbar^B_{l+n-1} for n >= 2.
    """
    L, d = bases.L, bases.d
    if not 0 <= n <= L:
        raise ValueError(f"n must lie in [0, {L}]")
    if n == 0:
        return 1
    dims = bases.dims
    dbar_a = [dims[l - 1] * d - dims[l] for l in range(1, L + 1)]
    dbar_b = [dims[l] * d - dims[l - 1] for l in range(1, L + 1)]
    if n == 1:
        return int(sum(dbar_a[l - 1] * dims[l] for l in range(1, L + 1)))
    return int(sum(dbar_a[l - 1] * d ** (n - 2) * dbar_b[l + n - 2] for l in range(1, L + 2 - n)))
