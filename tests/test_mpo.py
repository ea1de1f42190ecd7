"""Tests for MPO builders, compression, and expectation values."""

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.ed import dense_hamiltonian, dense_state, exact_spectrum
from kdmps.mpo import (
    HS_CUTOFF,
    expectation,
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_coupling,
    hs_first_excited_energy,
    hs_ground_energy,
    identity_mpo,
    mpo_frobenius,
    mpo_shift,
    mpo_sum_compress,
    s2_total_mpo,
    sz_total_mpo,
)
from kdmps.mps import Mps, product_mps, random_mps, site_tensors

HERMITICITY_TOL = 1e-12
DENSE_TOL = 1e-10

SZ = np.diag([0.5, -0.5])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])


def op_at(op: np.ndarray, site: int, L: int) -> np.ndarray:
    """Independent kron-product oracle for a single-site operator."""
    out = np.array([[1.0]])
    for k in range(1, L + 1):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def pair_exchange(L: int, i: int, j: int, c: float) -> np.ndarray:
    si, sj = op_at(SP, i, L), op_at(SP, j, L)
    zi, zj = op_at(SZ, i, L), op_at(SZ, j, L)
    return c * (0.5 * (si @ sj.T + si.T @ sj) + zi @ zj)


def heisenberg_dense_oracle(L: int, J: float) -> np.ndarray:
    return sum(pair_exchange(L, i, i + 1, J) for i in range(1, L))


def hs_dense_oracle(L: int) -> np.ndarray:
    return sum(
        pair_exchange(L, i, j, hs_coupling(L, i, j)) for i in range(1, L + 1) for j in range(i + 1, L + 1)
    )


# ---------- heisenberg ----------


def test_heisenberg_two_sites_singlet_triplet():
    vals = exact_spectrum(dense_hamiltonian(heisenberg_mpo(2, 1.0)))
    npt.assert_allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_heisenberg_zero_coupling_is_zero_operator():
    npt.assert_allclose(dense_hamiltonian(heisenberg_mpo(3, 0.0)), 0.0, atol=0)


def test_heisenberg_matches_kron_oracle():
    for L, J in ((4, 1.0), (5, -0.7)):
        got = dense_hamiltonian(heisenberg_mpo(L, J))
        npt.assert_allclose(got, heisenberg_dense_oracle(L, J), atol=1e-13)
    assert heisenberg_mpo(6).bond_dims[3] == 5


def test_heisenberg_ground_energy_matches_dense():
    h = heisenberg_mpo(4, 1.0)
    got = exact_spectrum(dense_hamiltonian(h), 1)[0]
    want = exact_spectrum(heisenberg_dense_oracle(4, 1.0), 1)[0]
    npt.assert_allclose(got, want, atol=1e-12)


# ---------- haldane-shastry ----------


def test_hs_two_sites_single_coupling():
    h = dense_hamiltonian(haldane_shastry_mpo(2))
    want = pair_exchange(2, 1, 2, np.pi**2 / 4.0)
    npt.assert_allclose(h, want, atol=1e-12)
    npt.assert_allclose(hs_coupling(2, 1, 2), 2.4674011002723395, atol=1e-12)


def test_hs_matches_pairwise_dense_sum():
    got = dense_hamiltonian(haldane_shastry_mpo(6))
    npt.assert_allclose(got, hs_dense_oracle(6), atol=DENSE_TOL)


def test_hs_exact_energies_at_l8():
    vals = exact_spectrum(dense_hamiltonian(haldane_shastry_mpo(8)), 2)
    npt.assert_allclose(vals[0], hs_ground_energy(8), atol=1e-9)
    npt.assert_allclose(vals[0], -3.546889082, atol=1e-8)
    npt.assert_allclose(vals[1], hs_first_excited_energy(8), atol=1e-9)


def sector_spectrum(h: np.ndarray, L: int) -> np.ndarray:
    """Every eigenvalue of a dense S^z-conserving H, one magnetization block at a time."""
    downs = np.array([bin(k).count("1") for k in range(2**L)])
    blocks = [h[np.ix_(downs == m, downs == m)] for m in range(L + 1)]
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))


@pytest.mark.parametrize("L", range(3, 12))
def test_hs_closed_forms_match_dense(L):
    vals = sector_spectrum(dense_hamiltonian(haldane_shastry_mpo(L)), L)
    # -pi^2 (L + 5/L) / 24 at even L, -pi^2 (L - 1/L) / 24 at odd L
    assert abs(vals[0] - hs_ground_energy(L)) <= 1e-12 * abs(vals[0])
    if L % 2:
        with pytest.raises(ValueError, match="even L"):
            hs_first_excited_energy(L)
    else:  # a singlet ground state, then the lowest triplet
        assert abs(vals[1] - hs_first_excited_energy(L)) <= 1e-12 * abs(vals[1])


def test_hs_coupling_recovery_per_pair():
    L = 8
    h = dense_hamiltonian(haldane_shastry_mpo(L))
    # the matrix element between |..down_i..up_j..> and |..up_i..down_j..|
    # isolates half the exchange coefficient of the pair (i, j)
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            bra = sum(2 ** (L - k) for k in (i,))  # down at i, ups elsewhere
            ket = sum(2 ** (L - k) for k in (j,))
            got = 2.0 * h[bra, ket]
            want = hs_coupling(L, i, j)
            assert abs(got - want) <= 1e-10 * want


def test_hs_hermitian_and_sz_symmetric():
    for L in (4, 6):
        h = dense_hamiltonian(haldane_shastry_mpo(L))
        npt.assert_allclose(np.max(np.abs(h - h.T)), 0.0, atol=HERMITICITY_TOL)
        sz = dense_hamiltonian(sz_total_mpo(L))
        npt.assert_allclose(np.max(np.abs(h @ sz - sz @ h)), 0.0, atol=1e-12)


def test_heisenberg_hermitian_and_sz_symmetric():
    h = dense_hamiltonian(heisenberg_mpo(6))
    npt.assert_allclose(np.max(np.abs(h - h.T)), 0.0, atol=HERMITICITY_TOL)
    sz = dense_hamiltonian(sz_total_mpo(6))
    npt.assert_allclose(np.max(np.abs(h @ sz - sz @ h)), 0.0, atol=1e-12)


@pytest.mark.parametrize("L", [64, 150])
def test_hs_pair_sums_without_oracle(L):
    """<H> on product and dimer states against closed-form sum J_ij <S_i.S_j>."""
    h = haldane_shastry_mpo(L)
    couplings = [(i, j, hs_coupling(L, i, j)) for i in range(L) for j in range(i + 1, L)]
    rng = np.random.default_rng(11)
    for _ in range(3):
        vecs = [v / np.linalg.norm(v) for v in rng.normal(size=(L, 2))]
        sx = [a * b for a, b in vecs]  # real local states: <S^y> = 0
        sz = [0.5 * (a * a - b * b) for a, b in vecs]
        want = sum(c * (sx[i] * sx[j] + sz[i] * sz[j]) for i, j, c in couplings)
        got = expectation(product_mps(L, 2, vecs), h)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    # dimers a|up down> + b|down up> on sites (2k, 2k+1): inside a dimer
    # <S.S> = ab - 1/4, across dimers only <S^z> = +-(a^2 - b^2)/2 survives
    chain, sz, within = [], [], {}
    for k, t in enumerate(rng.uniform(0.0, 2.0 * np.pi, L // 2)):
        a, b = np.cos(t), np.sin(t)
        first = np.zeros((1, 2, 2))
        first[0, 0, 0] = first[0, 1, 1] = 1.0
        second = np.zeros((2, 2, 1))
        second[0, 1, 0], second[1, 0, 0] = a, b
        chain += [first, second]
        sz += [0.5 * (a * a - b * b), -0.5 * (a * a - b * b)]
        within[(2 * k, 2 * k + 1)] = a * b - 0.25
    want = sum(c * within.get((i, j), sz[i] * sz[j]) for i, j, c in couplings)
    got = expectation(Mps(site_tensors(chain)), h)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# the bonds the former build (a bond-(2 + 3l) finite-state MPO, then one compression pass) gave
HS_BONDS_12 = (1, 4, 8, 11, 14, 17, 20, 17, 14, 11, 8, 4, 1)
HS_BONDS_14 = (1, 4, 8, 11, 14, 17, 20, 23, 20, 17, 14, 11, 8, 4, 1)
HS_MAX_BONDS = {24: 38, 32: 44, 48: 50, 64: 56}


def test_hs_bonds_match_the_compressed_build():
    assert haldane_shastry_mpo(12).bond_dims == HS_BONDS_12
    assert haldane_shastry_mpo(14).bond_dims == HS_BONDS_14
    got = {L: max(haldane_shastry_mpo(L).bond_dims) for L in HS_MAX_BONDS}
    # the block rank cutoff keeps one direction fewer than the compression pass did at L = 64
    assert got == {24: 38, 32: 44, 48: 50, 64: 53}
    assert all(got[L] <= HS_MAX_BONDS[L] for L in HS_MAX_BONDS)


@pytest.mark.parametrize("L", [8, 12, 24])
def test_hs_bonds_are_minimal(L):
    h = haldane_shastry_mpo(L)
    assert mpo_sum_compress([h], HS_CUTOFF).bond_dims == h.bond_dims


def test_hs_long_chain_builds_with_bounded_bonds():
    h = haldane_shastry_mpo(150)
    assert max(h.bond_dims) == 65  # the former compression pass gave 65 too
    assert h.bond_dims == h.bond_dims[::-1]


def coupling_dense_oracle(J: np.ndarray, onsite: np.ndarray | None = None) -> np.ndarray:
    """sum_i onsite + sum_{i<j} J[i, j] S_i . S_j from kron products (1-based sites)."""
    L = J.shape[0]
    out = np.zeros((2**L, 2**L))
    for i in range(1, L + 1):
        if onsite is not None:
            out += op_at(onsite, i, L)
        for j in range(i + 1, L + 1):
            if J[i - 1, j - 1] != 0.0:
                out += pair_exchange(L, i, j, J[i - 1, j - 1])
    return out


@pytest.mark.parametrize("L", range(1, 9))
def test_every_builder_equals_its_pairwise_sum(L):
    dense = {"sz": dense_hamiltonian(sz_total_mpo(L)), "s2": dense_hamiltonian(s2_total_mpo(L))}
    want = {
        "sz": coupling_dense_oracle(np.zeros((L, L)), SZ),
        "s2": coupling_dense_oracle(np.full((L, L), 2.0), 0.75 * np.eye(2)),
    }
    if L >= 2:
        dense["heis"] = dense_hamiltonian(heisenberg_mpo(L, -0.7))
        want["heis"] = coupling_dense_oracle(np.diag(np.full(L - 1, -0.7), 1))
        dense["hs"] = dense_hamiltonian(haldane_shastry_mpo(L))
        want["hs"] = hs_dense_oracle(L)
    for name, got in dense.items():
        assert np.linalg.norm(got - want[name]) <= 1e-12 * np.linalg.norm(want[name]), name


def test_builder_bonds_at_the_ends():
    assert heisenberg_mpo(6).bond_dims == (1, 4, 5, 5, 5, 4, 1)
    assert heisenberg_mpo(2).bond_dims == (1, 3, 1)
    assert sz_total_mpo(6).bond_dims == (1, 2, 2, 2, 2, 2, 1)
    assert s2_total_mpo(6).bond_dims == (1, 5, 5, 5, 5, 5, 1)
    assert heisenberg_mpo(4, 0.0).bond_dims == (1, 1, 1, 1, 1)


# ---------- compression ----------


def test_compress_single_term_identity():
    h = heisenberg_mpo(5)
    hc = mpo_sum_compress([h], 0.0)
    npt.assert_allclose(dense_hamiltonian(hc), dense_hamiltonian(h), atol=1e-12)


def test_compress_cancellation_collapses_to_bond_one():
    h = heisenberg_mpo(4)
    z = mpo_sum_compress([h, heisenberg_mpo(4, -1.0)], 0.0)
    assert z.bond_dims == (1, 1, 1, 1, 1)
    npt.assert_allclose(dense_hamiltonian(z), 0.0, atol=1e-12)
    assert mpo_frobenius(z) == 0.0


def test_compress_hs_pair_terms_match_builder():
    from kdmps.mpo import _coupling_mpo

    L = 6
    terms = []
    for i in range(L):
        for j in range(i + 1, L):
            J = np.zeros((L, L))
            J[i, j] = hs_coupling(L, i, j)
            terms.append(_coupling_mpo(J))
    summed = mpo_sum_compress(terms, 1e-12)
    npt.assert_allclose(dense_hamiltonian(summed), dense_hamiltonian(haldane_shastry_mpo(L)), atol=DENSE_TOL)


def test_compress_empty_terms_raises():
    with pytest.raises(ValueError, match="empty"):
        mpo_sum_compress([], 0.0)


def test_mpo_shift_adds_identity():
    h = heisenberg_mpo(4)
    got = dense_hamiltonian(mpo_shift(h, -2.5))
    npt.assert_allclose(got, dense_hamiltonian(h) - 2.5 * np.eye(16), atol=1e-13)


# ---------- expectation ----------


def test_expectation_ferromagnet_heisenberg():
    psi = product_mps(4, 2)  # all up
    npt.assert_allclose(expectation(psi, heisenberg_mpo(4, 1.0)), 0.75, atol=1e-13)


def test_expectation_zero_operator():
    psi = random_mps(4, 2, bond_cap=2, seed=0)
    npt.assert_allclose(expectation(psi, heisenberg_mpo(4, 0.0)), 0.0, atol=0)


def test_expectation_matches_dense():
    psi = random_mps(6, 2, bond_cap=3, seed=1)
    h = haldane_shastry_mpo(6)
    vec = dense_state(psi)
    npt.assert_allclose(expectation(psi, h), vec @ dense_hamiltonian(h) @ vec, atol=1e-12)


# ---------- spin totals ----------


def test_sz_total_matches_kron_oracle():
    L = 5
    want = sum(op_at(SZ, k, L) for k in range(1, L + 1))
    npt.assert_allclose(dense_hamiltonian(sz_total_mpo(L)), want, atol=1e-13)


def test_s2_total_matches_kron_oracle():
    L = 4
    szt = sum(op_at(SZ, k, L) for k in range(1, L + 1))
    spt = sum(op_at(SP, k, L) for k in range(1, L + 1))
    want = szt @ szt + 0.5 * (spt @ spt.T + spt.T @ spt)
    npt.assert_allclose(dense_hamiltonian(s2_total_mpo(L)), want, atol=1e-13)

