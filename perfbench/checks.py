"""Correctness checks computed apart from kdmps.

Everything here works on plain numpy arrays: site tensors with axes
(left bond, physical, right bond) and MPO tensors with axes (left bond,
output physical, input physical, right bond). The references are written
out independently of the package: the pair sum of the model couplings on
product and dimer states, a transfer contraction for <H> and a two-layer
transfer for <H^2>, dense vectors contracted from the chains, the
projector onto the excitation space built from the reference's
isometries, and the closed-form Haldane-Shastry energies. Nothing compares against a stored snapshot of earlier output.

Each ``check_*`` function returns a list of failure messages; an empty
list means the check passed. ``selfcheck.py`` shows that every check
rejects a deliberately perturbed value.
"""

from __future__ import annotations

import math

import numpy as np

# Two-layer transfers cancel terms of size E^2 down to a variance that can
# be far smaller, so their comparisons carry an absolute term in E^2.
TRANSFER_RTOL = 1e-9
TRANSFER_ATOL_PER_E2 = 2e-14  # 10x the floor seen on Heisenberg L=20, D=64
ZERO_TOL = 1e-16  # pieces that vanish identically come out near 1e-31
ARCHIVE_TOL = 0.0  # blobs hold raw f64, so a round trip is bit-exact


# ---------- references ----------


def hs_ground_energy(L: int) -> float:
    """Exact Haldane-Shastry ground energy -pi^2 (L + 5/L) / 24 (even L)."""
    return -math.pi**2 * (L + 5.0 / L) / 24.0


def hs_first_excited_energy(L: int) -> float:
    """Exact lowest triplet energy -pi^2 (L - 7/L) / 24 (even L)."""
    return -math.pi**2 * (L - 7.0 / L) / 24.0


def pair_couplings(model: str, L: int) -> list[tuple[int, int, float]]:
    """(i, j, J_ij) for i < j, sites counted from 0."""
    if model == "heisenberg":
        return [(i, i + 1, 1.0) for i in range(L - 1)]
    if model == "haldane_shastry":
        return [
            (i, j, math.pi**2 / (L**2 * math.sin(math.pi * (j - i) / L) ** 2))
            for i in range(L)
            for j in range(i + 1, L)
        ]
    raise ValueError(f"unknown model {model!r}")


def product_pair_energy(couplings, vecs: list[np.ndarray]) -> float:
    """sum_ij J_ij <S_i>.<S_j> for a product of real local states (up, down).

    For a real state (a, b): <Sx> = a b, <Sy> = 0, <Sz> = (a^2 - b^2) / 2.
    """
    spins = [(v[0] * v[1], 0.5 * (v[0] ** 2 - v[1] ** 2)) for v in (u / np.linalg.norm(u) for u in vecs)]
    return float(sum(c * (spins[i][0] * spins[j][0] + spins[i][1] * spins[j][1]) for i, j, c in couplings))


def dimer_pair_energy(couplings, L: int, amps: list[tuple[float, float]]) -> float:
    """sum_ij J_ij <S_i.S_j> for a product of dimers a|up down> + b|down up>.

    Dimer k covers sites (2k, 2k+1) with a^2 + b^2 = 1; an odd last site is
    left |up>. Inside a dimer <Sx Sx> = <Sy Sy> = ab/2 and <Sz Sz> = -1/4;
    across dimers the spins are uncorrelated, <Sx> = <Sy> = 0 and
    <Sz> = +-(a^2 - b^2)/2. The Sy Sy part is what real product states
    cannot see.
    """
    sz = [0.5] * L
    within = {}
    for k, (a, b) in enumerate(amps):
        sz[2 * k], sz[2 * k + 1] = 0.5 * (a * a - b * b), -0.5 * (a * a - b * b)
        within[(2 * k, 2 * k + 1)] = a * b - 0.25
    return float(sum(c * within.get((i, j), sz[i] * sz[j]) for i, j, c in couplings))


def dimer_chain(L: int, amps: list[tuple[float, float]]) -> list[np.ndarray]:
    """Site tensors (bond dimension 2 inside each dimer) of that state."""
    chain = []
    for a, b in amps:
        first = np.zeros((1, 2, 2))
        first[0, 0, 0] = first[0, 1, 1] = 1.0
        second = np.zeros((2, 2, 1))
        second[0, 1, 0], second[1, 0, 0] = a, b
        chain += [first, second]
    if L % 2:
        chain.append(np.array([1.0, 0.0]).reshape(1, 2, 1))
    return chain


def _norm_step(nrm: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.tensordot(np.tensordot(nrm, a, axes=(0, 0)), a, axes=((0, 1), (0, 1)))


def transfer_expectation(kets: list[np.ndarray], ws: list[np.ndarray]) -> float:
    """<psi|H|psi> / <psi|psi> by a left-to-right transfer contraction."""
    env = np.ones((1, 1, 1))  # (bra, mpo, ket)
    nrm = np.ones((1, 1))
    for a, w in zip(kets, ws):
        env = np.tensordot(env, a, axes=(0, 0))  # (mpo, ket, p, bra')
        env = np.tensordot(env, w, axes=((0, 2), (0, 1)))  # (ket, bra', q, mpo')
        env = np.tensordot(env, a, axes=((0, 2), (0, 1)))  # (bra', mpo', ket')
        nrm = _norm_step(nrm, a)
    return float(env.item() / nrm.item())


def transfer_second_moment(kets: list[np.ndarray], ws: list[np.ndarray]) -> float:
    """<psi|H^2|psi> / <psi|psi> by a two-layer MPO transfer contraction."""
    env = np.ones((1, 1, 1, 1))  # (bra, upper mpo, lower mpo, ket)
    nrm = np.ones((1, 1))
    for a, w in zip(kets, ws):
        env = np.tensordot(env, a, axes=(0, 0))  # (u, v, ket, p, bra')
        env = np.tensordot(env, w, axes=((0, 3), (0, 1)))  # (v, ket, bra', q, u')
        env = np.tensordot(env, w, axes=((0, 3), (0, 1)))  # (ket, bra', u', r, v')
        env = np.tensordot(env, a, axes=((0, 3), (0, 1)))  # (bra', u', v', ket')
        nrm = _norm_step(nrm, a)
    return float(env.item() / nrm.item())


def dense_vector(chain: list[np.ndarray]) -> np.ndarray:
    """Amplitudes of an open chain (outer bonds of extent one), site 1 slowest."""
    cur = np.ones((1, 1))
    for a in chain:
        cur = np.tensordot(cur, a, axes=(1, 0)).reshape(-1, a.shape[2])
    return cur.reshape(-1)


def dense_apply_mpo(ws: list[np.ndarray], vec: np.ndarray) -> np.ndarray:
    """H applied to a dense vector, one MPO site at a time."""
    L = len(ws)
    v = vec.reshape((1,) + (ws[0].shape[2],) * L)
    for l, w in enumerate(ws):
        v = np.tensordot(w, v, axes=((0, 2), (0, l + 1)))  # (p, w', other sites)
        v = np.moveaxis(v, (0, 1), (l + 1, 0))
    return v.reshape(-1)


def excitation_vector(left: list[np.ndarray], right: list[np.ndarray], windows: list[list[np.ndarray]]) -> np.ndarray:
    """Dense sum over branches: A_1..A_{l-1} T^l_1..T^l_n B_{l+n}..B_L."""
    n = len(windows[0])
    return sum(
        dense_vector(left[: l - 1] + chain + right[l + n - 1 :]) for l, chain in enumerate(windows, start=1)
    )


def _left_isometry(chain: list[np.ndarray]) -> np.ndarray:
    """The chain contracted to a (d^k, right bond) matrix."""
    cur = np.ones((1, 1))
    for a in chain:
        cur = np.tensordot(cur, a, axes=(1, 0)).reshape(-1, a.shape[2])
    return cur


def _right_isometry(chain: list[np.ndarray]) -> np.ndarray:
    """The chain contracted to a (left bond, d^k) matrix."""
    cur = np.ones((1, 1))
    for b in reversed(chain):
        cur = np.tensordot(b, cur, axes=(2, 0)).reshape(b.shape[0], -1)
    return cur


def project_excitation_space(left: list[np.ndarray], right: list[np.ndarray], n: int, gs_vec: np.ndarray,
                             y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a dense vector onto the n-site excitation space.

    Branch l spans A_1..A_{l-1} W B_{l+n}..B_L for any window W on sites
    l..l+n-1 whose first slot is orthogonal to A_l, except the last
    (anchor) branch, whose window is free. The branches are mutually
    orthogonal, so the projector is the sum of the branch projectors; the
    reference ``gs_vec`` (normalized, inside the anchor branch) is removed.
    """
    L = len(left)
    d = left[0].shape[1]
    out = np.zeros_like(y)
    for l in range(1, L - n + 2):
        lam = _left_isometry(left[: l - 1])
        rho = _right_isometry(right[l + n - 1 :])
        w = np.einsum("ia,ijk,bk->ajb", lam, y.reshape(lam.shape[0], d**n, rho.shape[1]), rho)
        if l < L - n + 1:
            a = left[l - 1].reshape(-1, left[l - 1].shape[2])
            wm = w.reshape(a.shape[0], -1)
            w = (wm - a @ (a.T @ wm)).reshape(w.shape)
        out += np.einsum("ia,ajb,bk->ijk", lam, w, rho).reshape(-1)
    return out - (gs_vec @ y) * gs_vec


def excitation_residual(left, right, n: int, gs_vec: np.ndarray, x: np.ndarray, hx: np.ndarray) -> float:
    """||P H x - E x|| / ||x|| with P the projector onto the excitation space
    and E the Rayleigh quotient; ``hx`` is H x."""
    energy = float(x @ hx) / float(x @ x)
    return float(np.linalg.norm(project_excitation_space(left, right, n, gs_vec, hx) - energy * x) / np.linalg.norm(x))


def transfer_tol(energy: float) -> float:
    return TRANSFER_ATOL_PER_E2 * max(1.0, energy * energy)


# ---------- checks ----------


def _close(label: str, got: float, want: float, atol: float, rtol: float = 0.0) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{label}: got {got!r}, expected {want!r} within {atol:.1e} + {rtol:.1e} relative"]


def check_hs_energy(energy: float, L: int, gap: float) -> list[str]:
    """Variational bound E >= E_exact - 1e-10, and E - E_exact <= gap."""
    exact = hs_ground_energy(L)
    out = []
    if not energy >= exact - 1e-10:
        out.append(f"HS energy {energy!r} lies below the exact {exact!r}")
    if not energy - exact <= gap:
        out.append(f"HS energy {energy!r} lies more than {gap:.1e} above the exact {exact!r}")
    return out


def check_energy_transfer(energy: float, transfer: float) -> list[str]:
    """The reported energy equals <psi|H|psi> from the transfer contraction."""
    return _close("energy vs transfer <H>", energy, transfer, 1e-12 * max(1.0, abs(transfer)))


def check_mpo_states(pairs: list[tuple[float, float]]) -> list[str]:
    """expectation(state) equals the pair sum, for each sampled state."""
    out = []
    for k, (got, want) in enumerate(pairs):
        out += _close(f"MPO on reference state {k}", got, want, 1e-12 * max(1.0, abs(want)), 1e-10)
    return out


def check_variance(
    values: np.ndarray,
    energy: float,
    var_transfer: float,
    kind: str,
    total_dense: float | None = None,
    ceiling: float = math.inf,
) -> list[str]:
    """Variance pieces against the two-layer transfer <H^2> - E^2.

    ``kind`` is "nearest" (nearest-neighbour H: Delta_1 + Delta_2 is the
    whole variance and every Delta_{n>=3} vanishes), "complete" (n_max
    reaches every piece that can be nonzero, so the sum is the whole
    variance; ``total_dense`` must agree too) or "partial" (the running sum
    stays at or below the whole variance).
    """
    values = np.asarray(values, dtype=float)
    tol = transfer_tol(energy) + TRANSFER_RTOL * abs(var_transfer)
    out = []
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        out.append(f"negative or non-finite variance piece in {values.tolist()}")
    if kind == "nearest":
        out += _close("Delta_1 + Delta_2 vs <H^2> - E^2", float(values[0] + values[1]), var_transfer, tol)
        if values.size > 2 and float(np.max(np.abs(values[2:]))) > ZERO_TOL:
            out.append(f"Delta_n for n >= 3 does not vanish: {values[2:].tolist()}")
    elif kind == "complete":
        out += _close("sum Delta_n vs <H^2> - E^2", float(values.sum()), var_transfer, tol)
        if total_dense is None:
            out.append("no dense total reported below the dense guard")
        else:
            out += _close("sum Delta_n vs total_dense", float(values.sum()), total_dense, 1e-13, 1e-8)
    elif kind == "partial":
        running = np.cumsum(values)
        if not float(running[-1]) <= var_transfer + tol:
            out.append(f"running sum {running[-1]!r} exceeds <H^2> - E^2 = {var_transfer!r}")
    else:
        raise ValueError(f"unknown variance check {kind!r}")
    if not float(values.sum()) <= ceiling:
        out.append(f"variance {values.sum()!r} above the stated ceiling {ceiling!r}")
    return out


def check_excitation(
    *,
    L: int,
    energy: float,
    rayleigh: float,
    converged: bool,
    residual: float,
    tol: float,
    gauge_defect: float,
    overlap: float,
    gap: float,
) -> list[str]:
    """Solver flags, gauge, orthogonality to the reference, and the energy.

    ``rayleigh`` is <x|H|x>/<x|x> from the dense contraction of the
    returned branches, ``residual`` is :func:`excitation_residual` of the
    same vector, ``overlap`` is |<gs|x>|/|x|.
    """
    out = []
    if not converged:
        out.append("excitation solver reports converged=False")
    if not residual <= tol:
        out.append(f"excitation residual {residual!r} above tol {tol!r}")
    if not gauge_defect <= 1e-10:
        out.append(f"gauge defect {gauge_defect!r} above 1e-10")
    if not overlap <= 1e-8:
        out.append(f"excitation overlaps the reference: {overlap!r}")
    out += _close("E_ex vs dense Rayleigh quotient", energy, rayleigh, 1e-8 * max(1.0, abs(rayleigh)))
    exact = hs_first_excited_energy(L)
    if not abs(energy - exact) <= gap:
        out.append(f"E_ex {energy!r} lies more than {gap:.1e} from the exact {exact!r}")
    return out


def check_arrays_equal(label: str, saved: list[np.ndarray], loaded: list[np.ndarray]) -> list[str]:
    """An archive round trip returns the same arrays, bit for bit."""
    if len(saved) != len(loaded):
        return [f"{label}: {len(loaded)} tensors loaded, {len(saved)} saved"]
    for k, (a, b) in enumerate(zip(saved, loaded)):
        if a.shape != b.shape or float(np.max(np.abs(a - b), initial=0.0)) > ARCHIVE_TOL:
            return [f"{label}: tensor {k} differs after the round trip"]
    return []
