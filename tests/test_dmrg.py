"""Tests for environments, effective Hamiltonians, Lanczos, and DMRG."""

import tracemalloc
from functools import cache

import numpy as np
import numpy.testing as npt
import pytest

import kdmps.dmrg as kdmrg
from kdmps.dmrg import (
    DmrgOptions,
    EffectiveHam,
    build_env,
    dmrg_ground_state,
    effective_ham,
    fixed_point_residuals,
    lanczos_lowest,
)
from kdmps.ed import dense_hamiltonian, dense_state, exact_spectrum, fold_chain
from kdmps.mpo import (
    expectation,
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_ground_energy,
    identity_mpo,
)
from kdmps.mps import FORM_TOL, canonical_defect, overlap, random_mps
from kdmps.projectors import build_bases
from kdmps.tensor import (
    TruncationPolicy,
    apply_window,
    env_step_left,
    env_step_right,
    fold_left,
    fold_right,
    mpo_matrix,
    orthogonal_complement,
)

SYM_TOL = 1e-10


# ---------- environments ----------


def test_env_singlet_energy():
    h = heisenberg_mpo(2)
    r = dmrg_ground_state(random_mps(2, 2, seed=1), h, "2s", DmrgOptions(n_sweeps=2))
    env = build_env(build_bases(r.psi), h)
    for bond in range(0, 3):
        npt.assert_allclose(env.energy_at_bond(bond), -0.75, atol=1e-10)


def test_env_zero_operator():
    psi = random_mps(4, 2, bond_cap=2, seed=2)
    env = build_env(build_bases(psi), heisenberg_mpo(4, 0.0))
    for bond in range(0, 5):
        npt.assert_allclose(env.energy_at_bond(bond), 0.0, atol=1e-13)


def test_env_energy_matches_dense_and_is_bond_independent():
    psi = random_mps(6, 2, bond_cap=3, seed=3)
    h = haldane_shastry_mpo(6)
    env = build_env(build_bases(psi), h)
    vec = dense_state(env.bases.reference)
    want = float(vec @ dense_hamiltonian(h) @ vec)
    energies = [env.energy_at_bond(bond) for bond in range(0, 7)]
    npt.assert_allclose(energies, want, atol=1e-10)
    npt.assert_allclose(max(energies) - min(energies), 0.0, atol=1e-10)


def test_env_recursion_consistency():
    psi = random_mps(5, 2, bond_cap=3, seed=4)
    h = heisenberg_mpo(5)
    env = build_env(build_bases(psi), h)
    a = [t.data for t in env.bases.left]
    b = [t.data for t in env.bases.right]
    w = [t.data for t in h.sites]
    for l in range(1, 6):
        rebuilt = env_step_left(env.lefts[l - 1], a[l - 1], mpo_matrix(w[l - 1]), a[l - 1])
        npt.assert_allclose(rebuilt, env.lefts[l], atol=1e-12)
        mirrored = mpo_matrix(w[l - 1].transpose(3, 1, 2, 0))
        rebuilt = env_step_right(env.rights[l], b[l - 1], mirrored, b[l - 1])
        npt.assert_allclose(rebuilt, env.rights[l - 1], atol=1e-12)


# ---------- effective Hamiltonians ----------


def test_apply_effective_identity_operator():
    psi = random_mps(4, 2, bond_cap=2, seed=5)
    env = build_env(build_bases(psi), identity_mpo(4))
    x = env.bases.center_site(2)
    out = effective_ham(env, "1s", 2).apply(x)
    npt.assert_allclose(out, x, atol=1e-12)


def test_apply_effective_matches_dense_restriction():
    psi = random_mps(6, 2, bond_cap=3, seed=6)
    h = haldane_shastry_mpo(6)
    kept = build_bases(psi)
    env = build_env(kept, h)
    hm = dense_hamiltonian(h)
    a = [t.data for t in kept.left]
    b = [t.data for t in kept.right]
    l = 3
    heff = effective_ham(env, "1s", l)
    frame = np.kron(np.kron(fold_chain(a[: l - 1])[0], np.eye(2)), fold_chain(b[l:])[:, :, 0].T)
    nloc = int(np.prod(heff.x_shape))
    mat = np.column_stack([heff.matvec(col) for col in np.eye(nloc)])
    npt.assert_allclose(mat, frame.T @ hm @ frame, atol=1e-10)


def test_apply_effective_symmetry_probes():
    psi = random_mps(5, 2, bond_cap=2, seed=7)
    h = heisenberg_mpo(5)
    env = build_env(build_bases(psi), h)
    rng = np.random.default_rng(0)
    for mode, site in (("bond", 2), ("1s", 3), ("2s", 2)):
        heff = effective_ham(env, mode, site)
        n = int(np.prod(heff.x_shape))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        npt.assert_allclose(x @ heff.matvec(y), y @ heff.matvec(x), atol=SYM_TOL)


# ---------- folded two-site windows ----------


@cache
def _mpo(model, L):
    return haldane_shastry_mpo(L) if model == "hs" else heisenberg_mpo(L)


def _random_window(model, L, dl, l, dr):
    """Random (bra, MPO, ket) environments of bonds dl and dr around the
    two-site window at sites l, l+1 of the model's MPO."""
    h = _mpo(model, L)
    rng = np.random.default_rng(l)
    ws = tuple(t.data for t in h.sites[l - 1 : l + 1])
    left = rng.standard_normal((dl, ws[0].shape[0], dl))
    right = rng.standard_normal((dr, ws[1].shape[3], dr))
    return left, ws, h.ops[l - 1 : l + 1], right


# (model, L, left bond, window position, right bond, folded by the rule)
FOLD_CASES = [
    ("hs", 14, 16, 7, 16, True),
    ("hs", 64, 32, 32, 32, True),
    ("hs", 24, 32, 12, 32, True),
    ("hs", 64, 64, 32, 64, True),
    ("hs", 12, 32, 6, 32, False),
    ("heisenberg", 20, 64, 10, 64, False),
    ("hs", 14, 1, 1, 4, True),  # the left edge window
    ("hs", 14, 4, 13, 1, True),  # the right edge window
]


@pytest.mark.parametrize("model, L, dl, l, dr", [case[:-1] for case in FOLD_CASES])
def test_folded_two_site_matvec_matches_the_ket_first_chain(model, L, dl, l, dr):
    left, ws, ops, right = _random_window(model, L, dl, l, dr)
    heff = EffectiveHam("2s", l, left, right, ws, ops, (fold_left(left, ws[0]), fold_right(ws[1], right)))
    x = np.random.default_rng(0).standard_normal(heff.x_shape)
    want = apply_window(left, ops, (x,), right)
    assert heff.apply(x).shape == want.shape
    got = heff.matvec(x.reshape(-1)).reshape(want.shape)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("model, L, dl, l, dr, folds", FOLD_CASES)
def test_fold_rule_folds_wide_mpo_windows_only(model, L, dl, l, dr, folds):
    left, ws, _, right = _random_window(model, L, dl, l, dr)
    assert kdmrg._folds(left, ws, right) == folds


def test_effective_ham_folds_two_site_windows_only():
    h = haldane_shastry_mpo(14)
    env = build_env(build_bases(random_mps(14, 2, bond_cap=16, seed=0)), h)
    lw, wr = effective_ham(env, "2s", 7).folded
    assert lw.shape == (16 * 2 * 23, 16 * 2) and wr.shape == (23 * 2 * 16, 2 * 16)
    assert effective_ham(env, "1s", 7).folded is None and effective_ham(env, "bond", 7).folded is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dmrg_with_folded_windows_matches_the_ket_first_chain(monkeypatch, seed):
    h = haldane_shastry_mpo(14)
    psi0 = random_mps(14, 2, bond_cap=16, seed=seed)
    opts = DmrgOptions(policy=TruncationPolicy(max_rank=16, rel_cutoff=1e-13))
    iters, folds = [], []
    lanczos, fold = kdmrg.lanczos_lowest, kdmrg.fold_left

    def counted(*args, **kwargs):
        res = lanczos(*args, **kwargs)
        iters.append(res.iterations)
        return res

    monkeypatch.setattr(kdmrg, "lanczos_lowest", counted)
    monkeypatch.setattr(kdmrg, "fold_left", lambda *args: folds.append(1) or fold(*args))
    folded = dmrg_ground_state(psi0, h, "2s", opts)
    folded_iters, folded_blocks = list(iters), len(folds)
    monkeypatch.setattr(kdmrg, "_folds", lambda *args: False)
    iters.clear()
    folds.clear()
    chain = dmrg_ground_state(psi0, h, "2s", opts)
    assert folded.n_sweeps == chain.n_sweeps and folded_iters == iters
    npt.assert_allclose(folded.sweep_energies, chain.sweep_energies, rtol=1e-12, atol=0.0)
    # the blocks are built at most once per local solve, never per matvec
    assert 0 < folded_blocks <= len(folded_iters) < sum(folded_iters) and not folds


def test_dmrg_passes_one_krylov_store_to_every_local_solve(monkeypatch):
    """The sweep owns one Krylov store for the whole search; dropping it for
    fresh per-solve storage changes no output bit."""
    h = haldane_shastry_mpo(8)
    psi0 = random_mps(8, 2, bond_cap=8, seed=4)
    opts = DmrgOptions(n_sweeps=3, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-13))
    stores, iters = [], []
    lanczos = kdmrg.lanczos_lowest

    def recorded(*args, **kwargs):
        stores.append(kwargs.get("store"))
        res = lanczos(*args, **kwargs)
        iters.append(res.iterations)
        return res

    monkeypatch.setattr(kdmrg, "lanczos_lowest", recorded)
    shared = dmrg_ground_state(psi0, h, "2s", opts)
    shared_iters = list(iters)
    assert len(stores) == 2 * 7 * shared.n_sweeps and stores[0]
    assert all(s is stores[0] for s in stores)

    monkeypatch.setattr(kdmrg, "lanczos_lowest", lambda *args, store, **kwargs: recorded(*args, **kwargs))
    iters.clear()
    fresh = dmrg_ground_state(psi0, h, "2s", opts)
    assert iters == shared_iters and fresh.local_energies == shared.local_energies
    assert all(np.array_equal(a.data, b.data) for a, b in zip(fresh.psi.sites, shared.psi.sites, strict=True))


# ---------- lanczos ----------


def test_lanczos_diagonal_matrix():
    m = np.diag([0.0, 1.0, 2.0])
    res = lanczos_lowest(lambda v: m @ v, np.ones(3))
    npt.assert_allclose(res.value, 0.0, atol=1e-12)
    npt.assert_allclose(np.abs(res.vector), [1.0, 0.0, 0.0], atol=1e-8)
    assert res.converged


def test_lanczos_identity_map():
    res = lanczos_lowest(lambda v: v, np.random.default_rng(0).standard_normal(7))
    npt.assert_allclose(res.value, 1.0, atol=1e-12)
    assert res.converged


def test_lanczos_random_symmetric_matches_dense():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((50, 50))
    m = (m + m.T) / 2.0
    res = lanczos_lowest(lambda v: m @ v, rng.standard_normal(50), max_iter=100, tol=1e-10)
    want = np.linalg.eigvalsh(m)[0]
    npt.assert_allclose(res.value, want, atol=1e-10)
    assert res.residual <= 1e-10 * max(1.0, abs(res.value))


def test_lanczos_relative_target_below_the_absolute_one_changes_nothing():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((50, 50))
    m = (m + m.T) / 2.0
    x0 = rng.standard_normal(50)
    ref = lanczos_lowest(lambda v: m @ v, x0, max_iter=100, tol=1e-10)
    for rel_tol in (0.0, 1e-300):
        res = lanczos_lowest(lambda v: m @ v, x0, max_iter=100, tol=1e-10, rel_tol=rel_tol)
        assert res.iterations == ref.iterations == 38
        assert np.array_equal(res.vector, ref.vector) and res.value == ref.value and res.converged


def test_lanczos_stops_at_the_relative_target():
    # a 300 x 300 random symmetric matrix needs 70 iterations to reach tol,
    # but its start residual drops 100-fold after 25
    rng = np.random.default_rng(4)
    m = rng.standard_normal((300, 300))
    m = (m + m.T) / 2.0
    x0 = rng.standard_normal(300)
    v = x0 / np.linalg.norm(x0)
    beta0 = float(np.linalg.norm(m @ v - (v @ m @ v) * v))
    res = lanczos_lowest(lambda v: m @ v, x0, rel_tol=1e-2)
    assert res.iterations == 25 and res.converged and not res.breakdown
    assert 1e-10 * abs(res.value) < res.residual <= 1e-2 * beta0
    npt.assert_allclose(res.residual, float(np.linalg.norm(m @ res.vector - res.value * res.vector)), rtol=1e-8)
    # one iteration short, the residual still sits above the target it was given
    short = lanczos_lowest(lambda v: m @ v, x0, max_iter=24, rel_tol=1e-2)
    assert short.residual > 1e-2 * beta0 and not short.converged
    assert lanczos_lowest(lambda v: m @ v, x0).iterations == 70


def test_lanczos_deflation_finds_second_state():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((40, 40))
    m = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    res = lanczos_lowest(lambda v: m @ v, rng.standard_normal(40), orth_against=(vecs[:, 0],))
    npt.assert_allclose(res.value, vals[1], atol=1e-9)
    npt.assert_allclose(abs(res.vector @ vecs[:, 0]), 0.0, atol=1e-10)


def test_lanczos_deflates_against_an_overlapping_set():
    # projecting off g1 and then g2 one after the other is not the projector
    # onto the complement of their span when they overlap
    rng = np.random.default_rng(3)
    m = rng.standard_normal((60, 60))
    m = (m + m.T) / 2.0
    g1 = rng.standard_normal(60)
    g2 = g1 + 0.5 * rng.standard_normal(60)
    res = lanczos_lowest(lambda v: m @ v, rng.standard_normal(60), orth_against=(g1, g2))
    comp = orthogonal_complement(np.linalg.qr(np.stack([g1, g2], axis=1))[0])
    vals, vecs = np.linalg.eigh(comp.T @ m @ comp)
    assert res.converged
    npt.assert_allclose(res.value, vals[0], atol=1e-10)
    npt.assert_allclose([res.vector @ g1, res.vector @ g2], 0.0, atol=1e-10)
    npt.assert_allclose(abs(res.vector @ comp @ vecs[:, 0]), 1.0, atol=1e-10)


def test_lanczos_storage_is_capped_by_the_vector_size():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    vals, vecs = np.linalg.eigh(m)
    tracemalloc.start()
    try:
        res = lanczos_lowest(lambda v: m @ v, np.ones(6), max_iter=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations <= 6
    npt.assert_allclose(res.value, vals[0], atol=1e-12)
    npt.assert_allclose(abs(res.vector @ vecs[:, 0]), 1.0, atol=1e-10)
    assert peak < 2**20


def test_lanczos_breakdown_returns_exact_pair():
    m = np.diag([1.0, 2.0, 3.0])
    init = np.array([1.0, 0.0, 0.0])  # exact eigenvector: Krylov space exhausts
    res = lanczos_lowest(lambda v: m @ v, init, max_iter=10)
    npt.assert_allclose(res.value, 1.0, atol=1e-12)
    assert res.converged


def test_lanczos_rejects_vanishing_start():
    with pytest.raises(ValueError, match="vanishes"):
        lanczos_lowest(lambda v: v, np.zeros(4))


def test_lanczos_flags_near_degenerate_stagnation():
    m = np.diag([0.0, 1e-12, 1.0, 2.0, 3.0])
    init = np.ones(5)
    res = lanczos_lowest(lambda v: m @ v, init, max_iter=5, tol=1e-30)
    assert not res.converged
    assert res.near_degenerate
    control = lanczos_lowest(lambda v: np.diag([0.0, 1.0, 2.0]) @ v, np.ones(3), max_iter=2, tol=1e-30)
    assert not control.near_degenerate


def test_lanczos_keeps_ghost_eigenvalues_out():
    # a well-separated lowest level converges early, and plain three-term
    # Lanczos then copies it into the Ritz values (a ghost); the tol-tied
    # reorthogonalization must keep the pair accurate and not degenerate
    n = 400
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    m = q @ np.diag(np.r_[-5.0, np.linspace(0.0, 1.0, n - 2), 50.0]) @ q.T
    res = lanczos_lowest(lambda v: m @ v, np.ones(n), max_iter=120, tol=1e-30)
    want = q[:, 0] * np.sign(res.vector @ q[:, 0])
    assert res.residual <= 1e-12
    assert np.linalg.norm(res.vector - want) <= 1e-12
    assert not res.near_degenerate


def _symmetric(n: int, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0, rng


@pytest.mark.parametrize("case", ["diagonal", "random", "deflated"])
def test_lanczos_calls_the_matvec_once_per_iteration_plus_the_residual(case):
    m, rng = _symmetric(80, 5)
    orth = (rng.standard_normal(80),) if case == "deflated" else ()
    if case == "diagonal":
        m = np.diag(np.arange(80.0))
    calls = []
    res = lanczos_lowest(lambda v: calls.append(1) or m @ v, rng.standard_normal(80), orth_against=orth)
    assert res.iterations > 1
    assert len(calls) == res.iterations + 1


def test_lanczos_long_deflated_run_stays_in_the_complement():
    # the excitation solver's path: many iterations against an overlapping set
    m, rng = _symmetric(300, 0)
    g1 = rng.standard_normal(300)
    g2 = g1 + 0.5 * rng.standard_normal(300)
    res = lanczos_lowest(lambda v: m @ v, rng.standard_normal(300), tol=1e-12, orth_against=(g1, g2))
    comp = orthogonal_complement(np.linalg.qr(np.stack([g1, g2], axis=1))[0])
    assert res.iterations >= 40
    npt.assert_allclose(res.value, np.linalg.eigvalsh(comp.T @ m @ comp)[0], atol=1e-10)
    npt.assert_allclose([res.vector @ g1, res.vector @ g2], 0.0, atol=1e-10)


def test_lanczos_on_a_reused_store_matches_a_fresh_solve():
    """A caller-owned store is widened, extended and read only where the
    current solve wrote it; stale rows (here NaN) never reach the result."""
    big, rng = _symmetric(200, 9)
    small, _ = _symmetric(60, 10)
    x_big, x_small = rng.standard_normal(200), rng.standard_normal(60)
    fresh_big = lanczos_lowest(lambda v: big @ v, x_big)
    fresh_small = lanczos_lowest(lambda v: small @ v, x_small)
    assert fresh_big.iterations > 16 and fresh_small.iterations > 16

    store: list[np.ndarray] = []
    runs = [lanczos_lowest(lambda v: small @ v, x_small, store=store)]
    runs.append(lanczos_lowest(lambda v: big @ v, x_big, store=store))  # wider vectors
    blocks = list(store)
    assert all(b.size >= 16 * 200 for b in blocks[:-1])
    for b in store:
        b[:] = np.nan
    runs.append(lanczos_lowest(lambda v: small @ v, x_small, store=store))  # a store wider than the vector
    assert all(b is c for b, c in zip(store, blocks, strict=True))
    for res, want in zip(runs, (fresh_small, fresh_big, fresh_small)):
        assert res.value == want.value and res.iterations == want.iterations
        assert np.array_equal(res.vector, want.vector)
        assert not any(np.shares_memory(res.vector, b) for b in store)


def test_lanczos_extends_a_store_from_a_shorter_solve():
    m, rng = _symmetric(120, 11)
    x0 = rng.standard_normal(120)
    store: list[np.ndarray] = []
    short = lanczos_lowest(lambda v: m @ v, x0, max_iter=5, store=store)
    assert len(store) == 1
    res = lanczos_lowest(lambda v: m @ v, x0, store=store)
    want = lanczos_lowest(lambda v: m @ v, x0)
    assert short.iterations == 5 and len(store) == -(-res.iterations // 16) > 1
    assert res.value == want.value and res.iterations == want.iterations
    assert np.array_equal(res.vector, want.vector)


def test_local_solve_never_raises_energy():
    # the optimized local energy is bounded by the starting Rayleigh quotient
    psi = random_mps(6, 2, bond_cap=4, seed=12)
    h = haldane_shastry_mpo(6)
    env = build_env(build_bases(psi), h)
    for mode, site in (("1s", 3), ("2s", 2)):
        heff = effective_ham(env, mode, site)
        x0 = np.random.default_rng(1).standard_normal(int(np.prod(heff.x_shape)))
        rayleigh = float(x0 @ heff.matvec(x0) / (x0 @ x0))
        res = lanczos_lowest(heff.matvec, x0, max_iter=40)
        assert res.value <= rayleigh + 1e-12


# ---------- dmrg ----------


def test_dmrg_two_site_chain_exact_in_one_sweep():
    r = dmrg_ground_state(random_mps(2, 2, seed=1), heisenberg_mpo(2), "2s", DmrgOptions(n_sweeps=1))
    npt.assert_allclose(r.energy, -0.75, atol=1e-12)


def test_dmrg_heisenberg_l8_matches_dense():
    h = heisenberg_mpo(8)
    opts = DmrgOptions(n_sweeps=10, policy=TruncationPolicy(max_rank=16, rel_cutoff=1e-13))
    r = dmrg_ground_state(random_mps(8, 2, bond_cap=8, seed=5), h, "2s", opts)
    want = exact_spectrum(dense_hamiltonian(h), 1)[0]
    npt.assert_allclose(r.energy, want, atol=1e-8)
    assert r.converged


def test_dmrg_hs_l8_matches_formula():
    h = haldane_shastry_mpo(8)
    opts = DmrgOptions(n_sweeps=12, policy=TruncationPolicy(max_rank=32, rel_cutoff=1e-13))
    r = dmrg_ground_state(random_mps(8, 2, bond_cap=8, seed=5), h, "2s", opts)
    npt.assert_allclose(r.energy, hs_ground_energy(8), atol=1e-6)
    npt.assert_allclose(r.energy, -3.5468891, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dmrg_heisenberg_l4_d2_reaches_the_exact_state_in_two_sweeps(seed):
    # a relaxed sweep back would lock onto an excited local eigenvector here
    # (-1.5362 after 12 sweeps), so only the first half-sweep is relaxed
    opts = DmrgOptions(policy=TruncationPolicy(max_rank=2, rel_cutoff=1e-13))
    r = dmrg_ground_state(random_mps(4, 2, bond_cap=2, seed=seed), heisenberg_mpo(4), "2s", opts)
    npt.assert_allclose(r.energy, -1.6160254037844, atol=1e-12)
    assert r.converged and r.n_sweeps == 2
    # the relaxed half-sweep's windows need more than two states; the last sweep's do not
    assert len(r.sweep_discarded) == 2 and r.sweep_discarded[-1] == 0.0
    assert r.max_discarded == max(r.sweep_discarded) > 1e-2


def test_dmrg_relaxed_first_half_sweep_saves_matvecs_at_the_same_energy(monkeypatch):
    h = heisenberg_mpo(20)
    psi0 = random_mps(20, 2, bond_cap=64, seed=0)
    opts = DmrgOptions(policy=TruncationPolicy(max_rank=64, rel_cutoff=1e-13))
    calls = []
    matvec = kdmrg.EffectiveHam.matvec
    monkeypatch.setattr(kdmrg.EffectiveHam, "matvec", lambda self, x: calls.append(1) or matvec(self, x))
    relaxed = dmrg_ground_state(psi0, h, "2s", opts)
    relaxed_calls = len(calls)
    monkeypatch.setattr(kdmrg, "WARMUP_REL_TOL", 0.0)
    calls.clear()
    full = dmrg_ground_state(psi0, h, "2s", opts)
    assert relaxed.converged and full.converged and relaxed.n_sweeps == full.n_sweeps
    npt.assert_allclose(relaxed.energy, full.energy, rtol=1e-12, atol=0.0)
    assert relaxed_calls < len(calls)


def test_dmrg_sweep_energies_variational():
    h = heisenberg_mpo(6)
    r = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=7), h, "2s", DmrgOptions(n_sweeps=6))
    e0 = exact_spectrum(dense_hamiltonian(h), 1)[0]
    assert all(e >= e0 - 1e-10 for e in r.local_energies)
    diffs = np.diff(r.sweep_energies)
    assert np.all(diffs <= 1e-12)


def test_dmrg_one_site_mode_refines():
    h = heisenberg_mpo(6)
    coarse = dmrg_ground_state(
        random_mps(6, 2, bond_cap=8, seed=8), h, "2s", DmrgOptions(n_sweeps=2, policy=TruncationPolicy(max_rank=8))
    )
    refined = dmrg_ground_state(coarse.psi, h, "1s", DmrgOptions(n_sweeps=4))
    want = exact_spectrum(dense_hamiltonian(h), 1)[0]
    assert refined.energy <= coarse.energy + 1e-12
    npt.assert_allclose(refined.energy, want, atol=1e-8)


def test_dmrg_gauge_checks_after_sweeps():
    r = dmrg_ground_state(
        random_mps(6, 2, bond_cap=4, seed=9), heisenberg_mpo(6), "2s", DmrgOptions(n_sweeps=3)
    )
    psi = r.psi
    for l in range(1, psi.center):
        m = psi.sites[l - 1].data.reshape(-1, psi.sites[l - 1].data.shape[2])
        npt.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-10)
    for l in range(psi.center + 1, psi.L + 1):
        m = psi.sites[l - 1].data.reshape(psi.sites[l - 1].data.shape[0], -1)
        npt.assert_allclose(m @ m.T, np.eye(m.shape[0]), atol=1e-10)


@pytest.mark.parametrize("mode, width", [("1s", 1), ("2s", 2)])
def test_dmrg_schedule_solves_every_window_there_and_back(mode, width):
    # conv_tol 0 never declares convergence, so every sweep runs
    L, n_sweeps = 6, 3
    opts = DmrgOptions(n_sweeps=n_sweeps, conv_tol=0.0)
    r = dmrg_ground_state(random_mps(L, 2, bond_cap=4, seed=3), heisenberg_mpo(L), mode, opts)
    per_sweep = 2 * (L + 1 - width)
    assert r.n_sweeps == n_sweeps and not r.converged
    assert len(r.local_energies) == per_sweep * n_sweeps
    assert r.sweep_energies == r.local_energies[per_sweep - 1 :: per_sweep]


@pytest.mark.parametrize("mode", ["1s", "2s"])
def test_dmrg_run_ends_site_canonical_at_site_one(mode):
    r = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=9), heisenberg_mpo(6), mode, DmrgOptions(n_sweeps=3))
    assert r.psi.form == "site" and r.psi.center == 1
    assert canonical_defect(r.psi) <= FORM_TOL


def test_dmrg_rejects_fewer_than_one_sweep():
    psi0 = random_mps(4, 2, bond_cap=2, seed=1)
    for mode in ("1s", "2s"):
        with pytest.raises(ValueError, match="at least one sweep"):
            dmrg_ground_state(psi0, heisenberg_mpo(4), mode, DmrgOptions(n_sweeps=0))


def test_dmrg_non_convergence_flagged():
    h = haldane_shastry_mpo(8)
    r = dmrg_ground_state(
        random_mps(8, 2, bond_cap=4, seed=10),
        h,
        "2s",
        DmrgOptions(n_sweeps=1, policy=TruncationPolicy(max_rank=4)),
    )
    assert not r.converged
    assert np.isfinite(r.energy)  # state still returned


def test_dmrg_rejects_an_operator_of_another_length():
    psi0 = random_mps(6, 2, bond_cap=4, seed=1)
    for L in (4, 8):
        with pytest.raises(ValueError, match="state and operator shapes disagree"):
            dmrg_ground_state(psi0, heisenberg_mpo(L))


def test_dmrg_orthogonal_sector_matches_first_excited():
    h = heisenberg_mpo(6)
    vals = exact_spectrum(dense_hamiltonian(h), 2)
    opts = DmrgOptions(n_sweeps=10, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-14))
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=2), h, "2s", opts)
    ex = dmrg_ground_state(
        random_mps(6, 2, bond_cap=4, seed=5),
        h,
        "2s",
        DmrgOptions(
            n_sweeps=12,
            policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-14),
            orthogonal_to=(gs.psi,),
        ),
    )
    npt.assert_allclose(gs.energy, vals[0], atol=1e-9)
    npt.assert_allclose(ex.energy, vals[1], atol=1e-8)
    npt.assert_allclose(overlap(gs.psi, ex.psi), 0.0, atol=1e-8)


def test_fixed_point_residual_hierarchy():
    h = haldane_shastry_mpo(8)
    opts = DmrgOptions(n_sweeps=12, policy=TruncationPolicy(max_rank=32, rel_cutoff=1e-13))
    r = dmrg_ground_state(random_mps(8, 2, bond_cap=8, seed=5), h, "2s", opts)
    env = build_env(build_bases(r.psi), h)
    for l in (2, 4, 6):
        assert effective_ham(env, "2s", l).folded is not None  # the two-site defect comes from folded windows
        res = fixed_point_residuals(r.psi, h, l)
        bound = 10.0 * res["two_site"] + 1e-12
        assert res["bond"] <= bound
        assert res["one_site_left"] <= bound
        assert res["one_site_right"] <= bound


def test_fixed_point_residuals_on_unconverged_state_still_ordered():
    h = heisenberg_mpo(6)
    psi = random_mps(6, 2, bond_cap=4, seed=11)
    res = fixed_point_residuals(psi, h, 3)
    bound = 10.0 * res["two_site"] + 1e-12
    assert res["bond"] <= bound
    assert res["one_site_left"] <= bound
    assert res["one_site_right"] <= bound
    npt.assert_allclose(res["energy"], expectation(build_bases(psi).reference, h), atol=1e-10)
