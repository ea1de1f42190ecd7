"""Finite matrix product states: canonical forms, overlaps, archives.

An :class:`Mps` is an ordered chain of 3-leg tensors with dummy outer bonds
of extent one. Site ``l`` (1-based) carries legs ``("v{l-1}", "p{l}", "v{l}")``.

Canonical-form metadata travels with the value:

* ``form="raw"``     -- no gauge guarantees;
* ``form="site"``    -- sites left of ``center`` are left-normalized
  (A†A = 1), sites right of it right-normalized (BB† = 1).

Canonicalization rescales to unit norm and reports the original norm, since
the projector formulas downstream assume a normalized reference state. The
fixed gauge built on it (both isometry families and the bond matrices
between them, at every bond at once) is :func:`kdmps.projectors.build_bases`.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor, qr, read_tensor_blob, tensor_blob, transfer_left

__all__ = [
    "Mps",
    "random_mps",
    "product_mps",
    "canonicalize",
    "canonical_defect",
    "overlap",
    "mps_norm",
    "save_mps",
    "load_mps",
]

FORM_TOL = 1e-10  # gauge checks (isometry conditions) must hold to this


def virt(bond: int) -> str:
    """Virtual leg name at bond ``bond`` (0..L)."""
    return f"v{bond}"


def phys(site: int) -> str:
    """Physical leg name at site ``site`` (1..L)."""
    return f"p{site}"


def site_tensors(arrays: Sequence[np.ndarray], first: int = 1) -> tuple[Tensor, ...]:
    """Wrap (left, physical, right) arrays as the site tensors of sites
    ``first``, ``first`` + 1, ..."""
    return tuple(Tensor(a, (virt(l - 1), phys(l), virt(l))) for l, a in enumerate(arrays, start=first))


@dataclass(frozen=True)
class Mps:
    """Open-boundary MPS with canonical-form metadata.

    Attributes:
        sites:  L site tensors, legs ("v{l-1}", "p{l}", "v{l}"), with
                extent-1 dummy bonds at both ends.
        form:   "raw" or "site" (orthogonality center at site ``center``).
        center: site index in [1, L] for "site"; 0 for "raw".
    """

    sites: tuple[Tensor, ...]
    form: str = "raw"
    center: int = 0

    def __post_init__(self) -> None:
        L = len(self.sites)
        if L == 0:
            raise ValueError("an MPS needs at least one site")
        d = self.sites[0].shape[1]
        for l, t in enumerate(self.sites, start=1):
            want = (virt(l - 1), phys(l), virt(l))
            if t.legs != want:
                raise ValueError(f"site {l} legs {t.legs}, expected {want}")
            if t.shape[1] != d:
                raise ValueError("physical dimension must be uniform")
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[2] != 1:
            raise ValueError("outer dummy bonds must have extent 1")
        for l in range(1, L):
            if self.sites[l - 1].shape[2] != self.sites[l].shape[0]:
                raise ValueError(f"virtual extents disagree at bond {l}")
        if self.form not in ("raw", "site"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.form == "site" and not 1 <= self.center <= L:
            raise ValueError("site-canonical center out of range")

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.sites[0].shape[1]

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Extents of bonds 0..L (outer dummies included)."""
        return tuple([self.sites[0].shape[0]] + [t.shape[2] for t in self.sites])

    def plain_sites(self) -> list[Tensor]:
        """The site tensors as a list; the benchmark (``perfbench``) reads them
        through this name."""
        return list(self.sites)


# ---------- construction ----------


def random_mps(L: int, d: int, bond_cap: int | None = None, seed: int = 0) -> Mps:
    """Seeded random MPS, site-canonical at site 1 with unit norm.

    Bond l has extent min(bond_cap, d^min(l, L-l)); ``bond_cap`` is a
    positive int or None (no cap). Identical seeds give bit-identical
    tensors.
    """
    if L < 1 or d < 2:
        raise ValueError("need L >= 1 and d >= 2")
    if bond_cap is not None and not (isinstance(bond_cap, numbers.Integral) and bond_cap >= 1):
        raise ValueError(f"bond_cap must be a positive int or None, got {bond_cap!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = [d ** min(l, L - l) if bond_cap is None else min(bond_cap, d ** min(l, L - l)) for l in range(L + 1)]
    sites = [rng.standard_normal((dims[l - 1], d, dims[l])) for l in range(1, L + 1)]
    psi, _ = canonicalize(Mps(site_tensors(sites)), 1)
    return psi


def product_mps(L: int, d: int, local_states: list[np.ndarray] | None = None) -> Mps:
    """Product state with the given local vectors (default all |0>)."""
    sites = []
    for l in range(1, L + 1):
        vec = np.zeros(d)
        if local_states is None:
            vec[0] = 1.0
        else:
            vec = np.asarray(local_states[l - 1], dtype=np.float64)
        sites.append(vec.reshape(1, d, 1))
    return Mps(site_tensors(sites), form="site", center=1)


# ---------- canonicalization ----------


def _left_normalize(sites: list[np.ndarray], l: int) -> None:
    """Left-normalize site l by QR and absorb R into site l+1."""
    dl, d, dr = sites[l - 1].shape
    q, r = qr(sites[l - 1].reshape(dl * d, dr))
    sites[l - 1] = q.reshape(dl, d, q.shape[1])
    sites[l] = np.tensordot(r, sites[l], axes=(1, 0))


def _right_normalize(sites: list[np.ndarray], l: int) -> np.ndarray:
    """Right-normalize site l by RQ and absorb R into site l-1 (if any).

    Returns R; at site 1 it is the 1x1 residual, whose sign the QR sign
    rule does not fix (:func:`kdmps.projectors.build_bases` carries it
    into the reference).
    """
    dl, d, dr = sites[l - 1].shape
    q, r = qr(sites[l - 1].reshape(dl, d * dr).T)
    sites[l - 1] = q.T.reshape(q.shape[1], d, dr)
    # a C-ordered R keeps the BLAS path of the contraction below, and so its
    # rounding, the same as for any stored site array
    r = np.ascontiguousarray(r.T)
    if l > 1:
        sites[l - 2] = np.tensordot(sites[l - 2], r, axes=(2, 0))
    return r


def canonicalize(psi: Mps, center: int) -> tuple[Mps, float]:
    """Bring ``psi`` to site-canonical form at ``center``.

    Returns (state, norm): the state is rescaled to unit norm, ``norm`` is
    the original 2-norm. The represented ray is unchanged; gauge moves are
    exact (QR without truncation).

    Raises:
        ValueError: center out of range, or the state has zero norm.
    """
    L = psi.L
    if not 1 <= center <= L:
        raise ValueError(f"site center {center} outside [1, {L}]")
    sites = [t.data for t in psi.sites]
    for l in range(1, center):
        _left_normalize(sites, l)
    for l in range(L, center, -1):
        _right_normalize(sites, l)
    norm = float(np.linalg.norm(sites[center - 1]))
    if norm == 0.0:
        raise ValueError("cannot canonicalize a zero state")
    sites[center - 1] = sites[center - 1] * (1.0 / norm)
    return Mps(site_tensors(sites), form="site", center=center), norm


# ---------- contractions ----------


def canonical_defect(psi: Mps) -> float:
    """Largest violation of the gauge conditions the form metadata claims.

    Zero-ish (below FORM_TOL) for healthy site-canonical states; raw states
    report 0 by definition.
    """
    if psi.form == "raw":
        return 0.0
    dev = 0.0
    for l in range(1, psi.L + 1):
        t = psi.sites[l - 1].data
        if l < psi.center:
            m = t.reshape(-1, t.shape[2])
            dev = max(dev, float(np.max(np.abs(m.T @ m - np.eye(m.shape[1])))))
        elif l > psi.center:
            m = t.reshape(t.shape[0], -1)
            dev = max(dev, float(np.max(np.abs(m @ m.T - np.eye(m.shape[0])))))
    return dev


def overlap(a: Mps, b: Mps) -> float:
    """Inner product <a|b> by left-to-right transfer contraction."""
    if a.L != b.L or a.d != b.d:
        raise ValueError("overlap requires equal length and physical dimension")
    env = np.ones((1, 1))  # (bra virtual, ket virtual) at the current bond
    for ta, tb in zip(a.sites, b.sites):
        env = transfer_left(env, ta.data, tb.data)
    return float(env[0, 0])


def mps_norm(psi: Mps) -> float:
    return float(np.sqrt(max(overlap(psi, psi), 0.0)))


# ---------- archives ----------


def save_mps(psi: Mps, path) -> None:
    """Write an MPS archive: manifest.json plus one blob per site tensor."""
    manifest = {
        "format_version": 1,
        "kind": "mps",
        "L": psi.L,
        "d": psi.d,
        "bond_dims": list(psi.bond_dims),
        "form": {"kind": psi.form, "index": psi.center},
        "norm": mps_norm(psi),
    }
    blobs = {f"site_{l}.ten": tensor_blob(t.data) for l, t in enumerate(psi.sites, start=1)}
    write_archive(Path(path), manifest, blobs)


def write_archive(path: Path, manifest: dict, blobs: dict[str, bytes]) -> None:
    """Write an archive directory: the blobs (file name -> bytes), then
    ``manifest`` as manifest.json. The manifest is serialized before
    anything touches the disk, and an old manifest.json is removed before
    the first blob, so a write that fails part-way leaves no manifest
    beside the blobs it changed. Other ``*.ten`` files go with it (blobs of
    a larger earlier archive); no other file is touched."""
    text = json.dumps(manifest, indent=2)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").unlink(missing_ok=True)
    for stale in path.glob("*.ten"):
        if stale.name not in blobs:
            stale.unlink()
    for name, blob in blobs.items():
        (path / name).write_bytes(blob)
    (path / "manifest.json").write_text(text)


def _manifest_field(path: Path, manifest: dict, key: str, kind: type):
    """The archive manifest's entry ``key`` ("form.kind" reads a nested
    entry), checked to be a ``kind`` (never a bool); a ValueError names the
    key when it is missing or of another type."""
    *outer, last = key.split(".")
    parent = _manifest_field(path, manifest, ".".join(outer), dict) if outer else manifest
    if last not in parent:
        raise ValueError(f"{path}: the manifest lacks {last}" + (f" in {'.'.join(outer)}" if outer else ""))
    value = parent[last]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{path}: the manifest's {key} should be of type {kind.__name__}, not {value!r}")
    return value


def read_manifest(path: Path, kind: str, version: int) -> dict:
    """The archive's manifest.json; a ValueError when it is not a JSON
    object of ``kind`` at format_version ``version``."""
    manifest = json.loads((path / "manifest.json").read_text())
    if not isinstance(manifest, dict) or manifest.get("kind") != kind:
        raise ValueError(f"{path}: not an {kind} archive")
    found = manifest.get("format_version")
    if type(found) is not int or found != version:
        raise ValueError(f"{path}: the manifest claims format {found!r}; only format {version} is read")
    return manifest


def load_mps(path) -> Mps:
    """Read an MPS archive written by :func:`save_mps`.

    Only format 1 is read. Raises ValueError for another format_version,
    when the manifest lacks a key or holds a value of the wrong type, when
    it claims a form other than "raw" or "site" (earlier versions also
    wrote a "bond" form), when a blob is not exactly one array of the
    manifest's shape, or when the state violates the claimed canonical form
    by more than FORM_TOL.
    """
    path = Path(path)
    manifest = read_manifest(path, "mps", 1)
    form = _manifest_field(path, manifest, "form.kind", str)
    center = _manifest_field(path, manifest, "form.index", int)
    L, d = (_manifest_field(path, manifest, k, int) for k in ("L", "d"))
    dims = _manifest_field(path, manifest, "bond_dims", list)
    if form not in ("raw", "site"):
        raise ValueError(f"{path}: the manifest claims {form!r} form; only 'raw' and 'site' archives are read")
    if len(dims) != L + 1:
        raise ValueError(f"{path}: manifest lists {len(dims)} bond_dims for L = {L}")
    sites = [read_tensor_blob(path / f"site_{l}.ten", (dims[l - 1], d, dims[l])) for l in range(1, L + 1)]
    psi = Mps(site_tensors(sites), form=form, center=center)
    defect = canonical_defect(psi)
    if not defect <= FORM_TOL:
        raise ValueError(f"{path}: the manifest claims {form} form at {center}, but the gauge defect is {defect:.3g}")
    return psi
