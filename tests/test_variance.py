"""Tests for the n-site energy-variance decomposition."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.dmrg import DmrgOptions, build_env, dmrg_ground_state
from kdmps.ed import dense_hamiltonian, dense_state
from kdmps.mpo import haldane_shastry_mpo, heisenberg_mpo, mpo_shift
from kdmps.mps import Mps, random_mps, site_tensors
from kdmps.projectors import _project_out_left, build_bases, dense_projector, expand_irreducible
from kdmps.tensor import TruncationPolicy, apply_window
from kdmps.variance import nsite_variance, write_variance_csv

DECOMP_TOL = 1e-10


def _values_window_by_window(psi, h, n_max) -> np.ndarray:
    """The per-n pieces with every (n, l) window applied on its own: one
    apply_window from the left environment of site l over all n sites."""
    bases = build_bases(psi)
    env = build_env(bases, h)
    a = [t.data for t in bases.left]
    b = [t.data for t in bases.right]
    values = np.zeros(n_max)
    for n in range(1, n_max + 1):
        total = 0.0
        for l in range(1, bases.L + 2 - n):
            kets = [bases.center_site(l)] + b[l : l + n - 1]
            window = apply_window(env.lefts[l - 1], h.ops[l - 1 : l + n - 1], kets, env.rights[l + n - 1])
            shape = window.shape
            out = _project_out_left(window.reshape(shape[0], shape[1], -1), a[l - 1]).reshape(shape)
            if n >= 2:  # 1 - B^T B on the fused (last physical, right bond) legs
                bm = b[l + n - 2].reshape(len(b[l + n - 2]), -1)
                mm = out.reshape(-1, bm.shape[1])
                out = (mm - (mm @ bm.T) @ bm).reshape(shape)
            total += float(np.sum(out**2))
        values[n - 1] = total
    return values


@pytest.mark.parametrize("model", [heisenberg_mpo, haldane_shastry_mpo])
@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_shared_window_growth_is_bit_identical_to_separate_windows(model, n_max):
    """Growing the windows of one start site together runs the same kernel
    calls on the same arrays, and every piece still sums in ascending l."""
    L = 9
    h = model(L)
    for seed in (31, 32):
        psi = random_mps(L, 2, bond_cap=6, seed=seed)
        report = nsite_variance(psi, h, n_max)
        assert np.array_equal(report.values, _values_window_by_window(psi, h, n_max))


def _padded_product_state(L: int, seed: int):
    """A random product state written with bond 2 and zero padding: its B
    gauge keeps bond 2, its A gauge drops the padding to bond 1."""
    sites = []
    for l, t in enumerate(random_mps(L, 2, bond_cap=1, seed=seed).sites, start=1):
        pad = np.zeros((1 if l == 1 else 2, 2, 1 if l == L else 2))
        pad[:1, :, :1] = t.data
        sites.append(pad)
    return Mps(site_tensors(sites))


@pytest.mark.parametrize(
    "model, L, D, n_max",
    [(heisenberg_mpo, 10, 8, 10), (haldane_shastry_mpo, 10, 8, 10), (haldane_shastry_mpo, 14, 16, 8)],
)
def test_windows_grown_in_two_buffers_are_bit_identical_to_separate_windows(model, L, D, n_max):
    """nsite_variance grows every window through two reused buffers and
    projects it in place; the pieces match fresh, out-of-place windows."""
    h = model(L)
    psi = random_mps(L, 2, bond_cap=D, seed=L + D)
    assert np.array_equal(nsite_variance(psi, h, n_max).values, _values_window_by_window(psi, h, n_max))


def test_buffers_fit_windows_whose_left_and_right_bonds_differ():
    psi = _padded_product_state(6, seed=3)
    bases = build_bases(psi)
    assert bases.dims[3] == 1 and bases.right[2].shape[2] == 2
    h = haldane_shastry_mpo(6)
    assert np.array_equal(nsite_variance(psi, h, 6).values, _values_window_by_window(psi, h, 6))


def test_eigenstate_has_zero_variance():
    h = heisenberg_mpo(2)
    gs = dmrg_ground_state(random_mps(2, 2, seed=3), h, "2s", DmrgOptions(n_sweeps=3)).psi
    report = nsite_variance(gs, h, 2)
    assert np.all(report.values <= 1e-20)
    assert report.total_dense <= 1e-20


def test_total_matches_dense_for_random_states_both_models():
    L = 6
    for name, h in (("nn", heisenberg_mpo(L)), ("ring", haldane_shastry_mpo(L))):
        for seed in (21, 22):
            psi = random_mps(L, 2, bond_cap=3, seed=seed)
            report = nsite_variance(psi, h, L)
            scale = max(1.0, report.total_dense)
            assert abs(float(np.sum(report.values)) - report.total_dense) <= DECOMP_TOL * scale, name


def test_per_n_values_match_dense_projections():
    L = 6
    h = haldane_shastry_mpo(L)
    psi = random_mps(L, 2, bond_cap=2, seed=5)
    kept = build_bases(psi)
    report = nsite_variance(psi, h, L)
    hv = dense_hamiltonian(h) @ dense_state(kept.reference)
    for n in range(1, L + 1):
        p = dense_projector(expand_irreducible(n, L), kept)
        npt.assert_allclose(report.values[n - 1], float(hv @ p @ hv), atol=DECOMP_TOL)


def test_nearest_neighbor_kill_rule_converged_state():
    L = 10
    h = heisenberg_mpo(L)
    opts = DmrgOptions(n_sweeps=8, policy=TruncationPolicy(max_rank=16, rel_cutoff=1e-13))
    gs = dmrg_ground_state(random_mps(L, 2, bond_cap=8, seed=9), h, "2s", opts).psi
    report = nsite_variance(gs, h, 5)
    assert report.values[1] > 0.0
    for n in range(3, 6):
        assert report.values[n - 1] <= 1e-12 * report.values[1]


def _h2_by_transfer(psi, h) -> tuple[float, float]:
    """<psi|psi> and <psi|H H|psi> by (bra, ket) and (bra, W, W, ket) transfers."""
    norm = np.ones((1, 1))
    env = np.ones((1, 1, 1, 1))
    for t, w in zip(psi.plain_sites(), h.sites):
        m, w = t.data, w.data
        norm = np.tensordot(np.tensordot(norm, m, axes=(0, 0)), m, axes=((0, 1), (0, 1)))
        env = np.tensordot(env, m, axes=(0, 0))  # (w, w, k, p, b')
        env = np.tensordot(env, w, axes=((0, 3), (0, 1)))  # (w, k, b', q, w')
        env = np.tensordot(env, w, axes=((0, 3), (0, 1)))  # (k, b', w', r, w')
        env = np.tensordot(env, m, axes=((0, 3), (0, 1)))  # (b', w', w', k')
    return float(norm[0, 0]), float(env.reshape(()))


def test_nearest_neighbor_sum_rule_at_l64_without_oracle():
    """Delta_1 + Delta_2 = <H^2> - E^2 and Delta_3 = 0 for a nearest-neighbor H,
    on a random state far beyond the dense guard."""
    L = 64
    h = heisenberg_mpo(L)
    psi = random_mps(L, 2, bond_cap=16, seed=64)
    report = nsite_variance(psi, h, 3)
    assert report.total_dense is None
    norm, h2 = _h2_by_transfer(psi, h)
    variance = h2 / norm - report.energy**2
    assert variance > 1.0
    assert abs(report.values[0] + report.values[1] - variance) <= DECOMP_TOL * max(1.0, h2 / norm)
    assert abs(report.values[2]) <= 1e-12 * variance


def test_energy_shift_invariance():
    L = 6
    h = haldane_shastry_mpo(L)
    psi = random_mps(L, 2, bond_cap=3, seed=7)
    base = nsite_variance(psi, h, L)
    floor = 1e-12 * max(1.0, float(np.sum(base.values)))
    for c in (-10.0, 0.0, 10.0):
        shifted = nsite_variance(psi, mpo_shift(h, c), L)
        rel = np.abs(shifted.values - base.values) / np.maximum(base.values, floor)
        assert np.max(rel) <= 1e-10
        npt.assert_allclose(shifted.energy, base.energy + c, atol=1e-10)


def test_single_site_row_matches_explicit_complement_form():
    L = 5
    h = heisenberg_mpo(L)
    psi = random_mps(L, 2, bond_cap=2, seed=8)
    kept = build_bases(psi)
    report = nsite_variance(psi, h, 1)
    hv = dense_hamiltonian(h) @ dense_state(kept.reference)
    total = 0.0
    for l in range(1, L + 1):
        from kdmps.projectors import dense_sector_pair

        total += float(hv @ dense_sector_pair(kept, ("D", "K", l, l + 1)) @ hv)
    npt.assert_allclose(report.values[0], total, atol=1e-12)


def test_cumulative_prefix_sums():
    L = 4
    psi = random_mps(L, 2, bond_cap=2, seed=11)
    h = heisenberg_mpo(L)
    report = nsite_variance(psi, h, L)
    npt.assert_allclose(report.cumulative, np.cumsum(report.values), atol=0)
    npt.assert_allclose(report.cumulative[-1], report.total_dense, atol=DECOMP_TOL)
    two = type(report)(
        energy=0.0, n_max=2, values=np.array([3.0, 4.0]), cumulative=np.array([3.0, 7.0]), total_dense=None
    )
    npt.assert_allclose(two.cumulative, [3.0, 7.0], atol=0)


def test_window_peak_memory_stays_below_bound():
    # ket-first windows in their two buffers peak near 5 MiB here; contracting the MPO first
    # doubles the intermediates (13.5 MiB) and the memory traffic with them
    psi = random_mps(14, 2, 16, seed=0)
    h = haldane_shastry_mpo(14)
    tracemalloc.start()
    try:
        nsite_variance(psi, h, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_dense_oracle_peak_memory_stays_below_bound():
    # at L=12 the oracle runs: folding H over the vector peaks near 3 MiB,
    # where forming the 4096x4096 matrix peaked at 257 MiB
    psi = random_mps(12, 2, 32, seed=0)
    h = haldane_shastry_mpo(12)
    tracemalloc.start()
    try:
        report = nsite_variance(psi, h, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total_dense is not None
    assert peak < 8 * 2**20


def test_total_dense_equals_the_matrix_residual():
    L = 10
    h = haldane_shastry_mpo(L)
    psi = random_mps(L, 2, bond_cap=8, seed=17)
    report = nsite_variance(psi, h, 2)
    kept = build_bases(psi)
    vec = dense_state(kept.reference)
    resid = dense_hamiltonian(h) @ vec - report.energy * vec
    want = float(resid @ resid)
    assert abs(report.total_dense - want) <= 1e-12 * want


def test_n_max_validation():
    psi = random_mps(4, 2, bond_cap=2, seed=1)
    with pytest.raises(ValueError):
        nsite_variance(psi, heisenberg_mpo(4), 0)
    with pytest.raises(ValueError):
        nsite_variance(psi, heisenberg_mpo(4), 5)


def test_csv_output_layout_and_reproducibility(tmp_path):
    psi = random_mps(5, 2, bond_cap=2, seed=13)
    h = heisenberg_mpo(5)
    report = nsite_variance(psi, h, 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_variance_csv(report, p1)
    write_variance_csv(nsite_variance(psi, h, 3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "n,delta_n_perp,delta_ns_cumulative"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    npt.assert_allclose(float(first[1]), report.values[0], rtol=1e-11)
