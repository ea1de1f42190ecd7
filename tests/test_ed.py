"""Tests for the dense brute-force reference module."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.ed import (
    DenseState,
    dense_apply,
    dense_hamiltonian,
    dense_rank,
    dense_state,
    exact_spectrum,
    verify_identity_suite,
)
from kdmps.mpo import (
    _mpo_from_arrays,
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_ground_energy,
    identity_mpo,
    mpo_shift,
    s2_total_mpo,
    sz_total_mpo,
)
from kdmps.mps import mps_add, overlap, product_mps, random_mps


def test_dense_state_product_up_up():
    psi = product_mps(2, 2)
    npt.assert_allclose(dense_state(psi).vec, [1.0, 0.0, 0.0, 0.0], atol=0)


def test_dense_state_is_linear_over_mps_add():
    a = random_mps(4, 2, bond_cap=2, seed=1)
    b = random_mps(4, 2, bond_cap=3, seed=2)
    both = dense_state(mps_add(a, b, 1.0, 1.0)).vec
    npt.assert_allclose(both, dense_state(a).vec + dense_state(b).vec, atol=1e-12)


def test_dense_state_norm_matches_overlap():
    psi = random_mps(6, 2, bond_cap=3, seed=3)
    npt.assert_allclose(dense_state(psi).norm() ** 2, overlap(psi, psi), atol=1e-12)


def test_dense_state_guard():
    with pytest.raises(ValueError, match="guard"):
        dense_state(random_mps(13, 2, bond_cap=2, seed=0))
    with pytest.raises(ValueError):
        DenseState(13, 2, np.zeros(2**13))


def test_dense_hamiltonian_identity():
    npt.assert_allclose(dense_hamiltonian(identity_mpo(3)), np.eye(8), atol=0)


def test_dense_hamiltonian_heisenberg_two_site_spectrum():
    vals = exact_spectrum(dense_hamiltonian(heisenberg_mpo(2)))
    npt.assert_allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: identity_mpo(3), id="identity3"),
        pytest.param(lambda: heisenberg_mpo(6), id="heisenberg_J1"),
        pytest.param(lambda: heisenberg_mpo(6, J=-0.7), id="heisenberg_J-0.7"),
        pytest.param(lambda: heisenberg_mpo(6, J=0.0), id="heisenberg_J0"),
        pytest.param(lambda: haldane_shastry_mpo(8), id="hs8"),
        pytest.param(lambda: haldane_shastry_mpo(12), id="hs12"),
        pytest.param(lambda: sz_total_mpo(5), id="sz_total5"),
        pytest.param(lambda: s2_total_mpo(5), id="s2_total5"),
        pytest.param(lambda: mpo_shift(haldane_shastry_mpo(6), -2.5), id="hs6_shifted"),
        pytest.param(lambda: sz_total_mpo(1), id="sz_total1"),
        pytest.param(lambda: identity_mpo(1, 3), id="qutrit_identity1"),
    ],
)
def test_dense_apply_matches_the_matrix(make):
    h = make()
    hmat = dense_hamiltonian(h)
    scale = max(1.0, float(np.linalg.norm(hmat, np.inf)))  # bounds the spectral norm
    rng = np.random.default_rng(h.L)
    for _ in range(2):
        v = rng.standard_normal(h.d**h.L)
        assert np.max(np.abs(dense_apply(h, v) - hmat @ v)) <= 1e-12 * scale


def test_dense_apply_keeps_output_and_input_legs_apart():
    # random non-symmetric sites on a qutrit chain: swapping the two
    # physical legs of any site, or the site order, changes the result
    rng = np.random.default_rng(4)
    bonds = [1, 3, 2, 1]
    h = _mpo_from_arrays([rng.standard_normal((bonds[l], 3, 3, bonds[l + 1])) for l in range(3)])
    v = rng.standard_normal(27)
    hmat = dense_hamiltonian(h)
    assert np.max(np.abs(hmat - hmat.T)) > 1e-2
    npt.assert_allclose(dense_apply(h, v), hmat @ v, atol=1e-12 * np.linalg.norm(hmat, np.inf))


def test_dense_apply_guard_and_shape():
    with pytest.raises(ValueError, match="guard"):
        dense_apply(heisenberg_mpo(13), np.zeros(2**13))
    with pytest.raises(ValueError, match="d\\^L"):
        dense_apply(heisenberg_mpo(4), np.zeros(8))


def test_exact_spectrum_sorts_and_slices():
    npt.assert_allclose(exact_spectrum(np.diag([3.0, 1.0, 2.0]), 2), [1.0, 2.0], atol=0)


def test_exact_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        exact_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exact_spectrum_hs_l8_formula():
    vals = exact_spectrum(dense_hamiltonian(haldane_shastry_mpo(8)), 1)
    npt.assert_allclose(vals[0], -3.5468891, atol=1e-6)
    npt.assert_allclose(vals[0], hs_ground_energy(8), atol=1e-9)


def test_dense_rank_thresholding():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert dense_rank(m) == 2
    assert dense_rank(np.zeros((3, 3))) == 0


# ---------- identity suite ----------


def test_identity_suite_random_state_passes():
    psi = random_mps(4, 2, bond_cap=2, seed=7)
    report = verify_identity_suite(psi, heisenberg_mpo(4))
    assert report.all_passed, f"failures:\n{report}"
    payload = json.loads(report.to_json())
    assert all(entry["pass"] for entry in payload.values())
    assert all("max_abs_deviation" in entry for entry in payload.values())


def test_identity_suite_product_state_exercises_empty_sectors():
    report = verify_identity_suite(product_mps(3, 2), heisenberg_mpo(3))
    assert report.all_passed, f"failures:\n{report}"


def test_identity_suite_maximal_bond_dimension():
    psi = random_mps(4, 2, bond_cap=None, seed=3)
    report = verify_identity_suite(psi, heisenberg_mpo(4))
    assert report.all_passed, f"failures:\n{report}"


def test_identity_suite_qutrit_chain():
    # the projector formalism carries no d=2 assumptions; drive it on a
    # qutrit chain with the identity operator (variance rows trivially zero)
    report = verify_identity_suite(random_mps(4, 3, bond_cap=3, seed=5), identity_mpo(4, 3))
    assert report.all_passed, f"failures:\n{report}"


def test_identity_suite_guard():
    with pytest.raises(ValueError, match="guard"):
        verify_identity_suite(random_mps(13, 2, bond_cap=2, seed=0), heisenberg_mpo(13))


def test_dimension_table_maximal_l4():
    from kdmps.projectors import ProjectorSpec, build_bases, dense_projector, subspace_dimension

    psi = random_mps(4, 2, bond_cap=None, seed=5)
    kept, disc = build_bases(psi)
    dims = [subspace_dimension(kept, n) for n in range(5)]
    assert dims == [1, 15, 0, 0, 0]
    ranks = [dense_rank(dense_projector(ProjectorSpec.irreducible(n), kept, disc)) for n in range(5)]
    assert ranks == dims
