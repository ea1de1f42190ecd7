"""Tests for the window-form excitation states and their eigensolver."""

import json
import time

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.dmrg import DmrgOptions, dmrg_ground_state
from kdmps.ed import dense_hamiltonian, dense_state, exact_spectrum
from kdmps.excitation import (
    ExcitationOptions,
    apply_projected_h,
    branch_mps,
    build_exc_env,
    compress_windows,
    ex_axpy,
    ex_overlap,
    ex_scale,
    flatten,
    gauge_defect,
    gauge_fix_T1,
    ground_state_in_ansatz,
    init_excitation,
    load_excitation,
    materialize,
    save_excitation,
    solve_lowest_excitation,
    state_from_flat,
)
from kdmps.mpo import (
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_first_excited_energy,
    identity_mpo,
)
from kdmps.mps import load_mps, overlap, product_mps, random_mps, save_mps
from kdmps.projectors import ProjectorSpec, apply_projector, build_bases, dense_projector
from kdmps.tensor import Tensor, TruncationPolicy, env_step_left

DENSE_TOL = 1e-10


def bases_for(L, cap, seed):
    return build_bases(random_mps(L, 2, bond_cap=cap, seed=seed))[0]


# ---------- construction ----------


def test_init_smallest_case_product_reference():
    kept, _ = build_bases(product_mps(2, 2, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]))
    x = init_excitation(kept, 1, seed=0)
    assert x.n_branches == 2 and x.anchor == 2
    assert x.windows[0][0].shape == (1, 2, 1)
    assert x.windows[1][0].shape == (1, 2, 1)
    # non-anchor branch carries the discarded projection
    a1 = kept.left[0].data.reshape(2, 1)
    t1 = x.windows[0][0].data.reshape(2, 1)
    npt.assert_allclose(a1.T @ t1, 0.0, atol=1e-12)


def test_init_memory_layout_single_site_windows():
    kept = bases_for(6, 3, 1)
    x = init_excitation(kept, 1, seed=3)
    assert x.n_branches == 6  # one window tensor per site
    for l in range(1, 7):
        (t,) = x.windows[l - 1]
        assert t.shape == (kept.dims[l - 1], 2, kept.dims[l])


def test_init_deterministic_and_normalized():
    kept = bases_for(5, 2, 2)
    a = init_excitation(kept, 2, seed=9)
    b = init_excitation(kept, 2, seed=9)
    for ca, cb in zip(a.windows, b.windows):
        for ta, tb in zip(ca, cb):
            npt.assert_array_equal(ta.data, tb.data)
    npt.assert_allclose(ex_overlap(a, a), 1.0, atol=1e-12)


def test_init_range_validation():
    kept = bases_for(4, 2, 3)
    with pytest.raises(ValueError):
        init_excitation(kept, 0)
    with pytest.raises(ValueError):
        init_excitation(kept, 5)


# ---------- gauge fixing ----------


def test_gauge_fix_idempotent():
    kept = bases_for(5, 2, 4)
    x = init_excitation(kept, 1, seed=1)
    assert gauge_defect(x) <= 1e-12
    y = gauge_fix_T1(x)
    for cx, cy in zip(x.windows, y.windows):
        npt.assert_allclose(cx[0].data, cy[0].data, atol=1e-14)


def test_gauge_defect_detects_violations():
    kept = bases_for(5, 2, 4)
    x = init_excitation(kept, 1, seed=1)
    windows = list(x.windows)
    # plant pure kept-space content (the isometry itself) in branch 1
    windows[0] = (Tensor(kept.left[0].data, windows[0][0].legs),)
    violated = type(x)(bases=kept, n=1, windows=tuple(windows))
    assert gauge_defect(violated) > 1e-3
    assert gauge_defect(gauge_fix_T1(violated)) <= 1e-12


def test_gauge_fix_annihilates_kept_content():
    kept = bases_for(5, 2, 5)
    x = init_excitation(kept, 1, seed=2)
    # overwrite a non-anchor branch with pure kept-space content A_l * M
    l = 2
    rng = np.random.default_rng(0)
    m = rng.standard_normal((kept.dims[l], kept.dims[l]))
    t = np.tensordot(kept.left[l - 1].data, m, axes=(2, 0))
    windows = list(x.windows)
    chain = list(windows[l - 1])
    chain[0] = Tensor(t, chain[0].legs)
    windows[l - 1] = tuple(chain)
    corrupted = type(x)(bases=x.bases, n=x.n, windows=tuple(windows))
    fixed = gauge_fix_T1(corrupted)
    npt.assert_allclose(fixed.windows[l - 1][0].data, 0.0, atol=1e-12)


def test_gauge_fixed_branches_orthogonal_to_reference_and_each_other():
    kept = bases_for(5, 2, 6)
    x = init_excitation(kept, 1, seed=3)
    branches = [branch_mps(x, l) for l in range(1, x.n_branches + 1)]
    vec_ref = dense_state(kept.reference).vec
    for i, bi in enumerate(branches[:-1]):  # anchor branch may overlap the reference
        npt.assert_allclose(dense_state(bi).vec @ vec_ref, 0.0, atol=DENSE_TOL)
        for bj in branches[i + 1 :]:
            npt.assert_allclose(
                dense_state(bi).vec @ dense_state(bj).vec, 0.0, atol=DENSE_TOL
            )


# ---------- overlap / axpy ----------


def test_ex_overlap_normalization_and_zero():
    kept = bases_for(6, 2, 7)
    x = init_excitation(kept, 2, seed=4)
    npt.assert_allclose(ex_overlap(x, x), 1.0, atol=1e-12)
    zero = ex_scale(x, 0.0)
    npt.assert_allclose(ex_overlap(x, zero), 0.0, atol=0)


def test_ex_overlap_matches_dense_materialization():
    kept = bases_for(6, 2, 8)
    for n in (1, 2, 3):
        x = init_excitation(kept, n, seed=5)
        y = init_excitation(kept, n, seed=6)
        want = float(dense_state(materialize(x)).vec @ dense_state(materialize(y)).vec)
        npt.assert_allclose(ex_overlap(x, y), want, atol=DENSE_TOL)


def test_ex_overlap_mismatch_errors():
    kept = bases_for(4, 2, 9)
    x = init_excitation(kept, 1, seed=0)
    y = init_excitation(kept, 2, seed=0)
    with pytest.raises(ValueError, match="window size"):
        ex_overlap(x, y)
    other = bases_for(5, 2, 9)
    with pytest.raises(ValueError, match="reference"):
        ex_overlap(x, init_excitation(other, 1, seed=0))


def test_ex_axpy_trivial_and_cancellation():
    kept = bases_for(5, 2, 10)
    x = init_excitation(kept, 2, seed=7)
    y = init_excitation(kept, 2, seed=8)
    same = ex_axpy(x, 0.0, y)
    npt.assert_allclose(
        dense_state(materialize(same)).vec, dense_state(materialize(x)).vec, atol=1e-12
    )
    cancel = ex_axpy(x, -1.0, x)
    npt.assert_allclose(ex_overlap(cancel, cancel), 0.0, atol=1e-12)


def test_ex_axpy_dense_check_and_bond_growth():
    kept = bases_for(5, 2, 11)
    x = init_excitation(kept, 2, seed=9)
    y = init_excitation(kept, 2, seed=10)
    out = ex_axpy(x, 0.3, y)
    want = dense_state(materialize(x)).vec + 0.3 * dense_state(materialize(y)).vec
    npt.assert_allclose(dense_state(materialize(out)).vec, want, atol=DENSE_TOL)
    # interior window bonds add
    assert out.windows[0][0].shape[2] == x.windows[0][0].shape[2] + y.windows[0][0].shape[2]


def test_compress_windows_preserves_state():
    kept = bases_for(6, 2, 12)
    x = init_excitation(kept, 3, seed=11)
    y = init_excitation(kept, 3, seed=12)
    grown = ex_axpy(x, -0.4, y)
    packed = compress_windows(grown, 1e-12)
    npt.assert_allclose(
        dense_state(materialize(packed)).vec, dense_state(materialize(grown)).vec, atol=1e-10
    )
    assert packed.windows[2][0].shape[2] <= grown.windows[2][0].shape[2]
    # branches that vanish identically compress to zero-width interior bonds
    ref = ground_state_in_ansatz(kept, 3)
    packed = compress_windows(compress_windows(ref))
    npt.assert_allclose(dense_state(materialize(packed)).vec, dense_state(materialize(ref)).vec, atol=1e-12)
    assert packed.windows[0][0].shape[2] == 0


# ---------- the reference inside the window form ----------


def test_ground_state_in_ansatz_reproduces_reference():
    for n in (1, 2, 3):
        kept = bases_for(5, 2, 13)
        rep = ground_state_in_ansatz(kept, n)
        npt.assert_allclose(
            dense_state(materialize(rep)).vec, dense_state(kept.reference).vec, atol=1e-12
        )
        npt.assert_allclose(ex_overlap(rep, rep), 1.0, atol=1e-12)


def test_membership_of_gauge_fixed_states():
    kept = bases_for(5, 2, 14)
    for n in (1, 2):
        x = init_excitation(kept, n, seed=13)
        m = materialize(x)
        projected = apply_projector(ProjectorSpec.global_ns(n), kept, m).combine()
        npt.assert_allclose(dense_state(projected).vec, dense_state(m).vec, atol=DENSE_TOL)


# ---------- environments ----------


def test_exc_env_zero_windows_reduce_to_plain_environments():
    from kdmps.dmrg import build_env

    kept = bases_for(5, 2, 15)
    h = heisenberg_mpo(5)
    x = ex_scale(init_excitation(kept, 1, seed=1), 0.0)
    env = build_exc_env(x, h)
    plain = build_env(kept.reference, h, bases=kept)
    for l in range(0, 6):
        npt.assert_allclose(env.lefts[(0, l)], plain.lefts[l], atol=1e-13)
        if (1, l) in env.lefts:
            npt.assert_allclose(env.lefts[(1, l)], 0.0, atol=0)
    for l in range(1, 7):
        npt.assert_allclose(env.rights[(0, l)], plain.rights[l], atol=1e-13)
        if (1, l) in env.rights:
            npt.assert_allclose(env.rights[(1, l)], 0.0, atol=0)


def test_exc_env_identity_mpo_gives_partial_overlap_transfer():
    L = 4
    kept = bases_for(L, 2, 16)
    x = init_excitation(kept, 1, seed=2)
    env = build_exc_env(x, identity_mpo(L))
    a = [t.data for t in kept.left]
    t = [x.windows[l - 1][0].data for l in range(1, L + 1)]
    for l in range(1, L + 1):
        # oracle: direct contraction of sum_{l'<=l} (A-chain | branch l')
        acc = np.zeros((kept.dims[l], kept.dims[l]))
        for lp in range(1, l + 1):
            g = np.ones((1, 1))
            for s in range(1, l + 1):
                ket = t[lp - 1] if s == lp else (a[s - 1] if s < lp else kept.right[s - 1].data)
                tmp = np.tensordot(g, a[s - 1], axes=(0, 0))
                g = np.tensordot(tmp, ket, axes=((0, 1), (0, 1)))
            acc += g
        got = env.lefts[(1, l)][:, 0, :]
        npt.assert_allclose(got, acc, atol=1e-12)


def test_exc_env_recursions_rebuild():
    L, n = 5, 2
    kept = bases_for(L, 2, 17)
    h = heisenberg_mpo(L)
    x = init_excitation(kept, n, seed=3)
    env = build_exc_env(x, h)
    a = [t.data for t in kept.left]
    b = [t.data for t in kept.right]
    w = [t.data for t in h.sites]
    t = [[tt.data for tt in chain] for chain in x.windows]
    nb = L - n + 1
    for l in range(1, L + 1):
        branch = l - n + 1
        parts = []
        if (n, l - 1) in env.lefts:
            parts.append(env_step_left(env.lefts[(n, l - 1)], a[l - 1], w[l - 1], b[l - 1]))
        if 1 <= branch <= nb and (n - 1, l - 1) in env.lefts:
            parts.append(env_step_left(env.lefts[(n - 1, l - 1)], a[l - 1], w[l - 1], t[branch - 1][n - 1]))
        if parts:
            npt.assert_allclose(env.lefts[(n, l)], sum(parts[1:], parts[0]), atol=1e-12)


def test_exc_env_cached_reference_environments_match_rebuilt():
    from kdmps.dmrg import build_env

    kept = bases_for(6, 3, 23)
    h = haldane_shastry_mpo(6)
    base = build_env(kept.reference, h, bases=kept)
    for n in (1, 2, 3):
        x = init_excitation(kept, n, seed=n)
        cached = apply_projected_h(x, h, build_exc_env(x, h, base))
        rebuilt = apply_projected_h(x, h)
        for ca, cb in zip(cached.windows, rebuilt.windows):
            for ta, tb in zip(ca, cb):
                npt.assert_array_equal(ta.data, tb.data)
    with pytest.raises(ValueError, match="another operator"):
        build_exc_env(x, heisenberg_mpo(6), base)


def test_exc_env_stale_cache_rejected():
    kept = bases_for(4, 2, 18)
    h = heisenberg_mpo(4)
    x = init_excitation(kept, 1, seed=4)
    y = init_excitation(kept, 1, seed=5)
    env = build_exc_env(x, h)
    with pytest.raises(ValueError, match="stale"):
        apply_projected_h(y, h, env=env)


# ---------- projected Hamiltonian ----------


def test_apply_identity_operator_returns_state():
    kept = bases_for(5, 2, 19)
    for n in (1, 2):
        x = init_excitation(kept, n, seed=6)
        out = apply_projected_h(x, identity_mpo(5))
        npt.assert_allclose(
            dense_state(materialize(out)).vec, dense_state(materialize(x)).vec, atol=1e-12
        )


def test_apply_branch_windows_match_dense_frame_assembly():
    # each output window is the bra-frame component of H|x>, discarded-
    # projected on its first slot away from the anchor
    L, n = 5, 1
    kept, _ = build_bases(random_mps(L, 2, bond_cap=2, seed=23))
    h = heisenberg_mpo(L)
    hm = dense_hamiltonian(h)
    x = init_excitation(kept, n, seed=12)
    hx = hm @ dense_state(materialize(x)).vec
    out = apply_projected_h(x, h)
    from kdmps.projectors import _fold_left_chain, _fold_right_chain, _project_out_left

    a = [t.data for t in kept.left]
    b = [t.data for t in kept.right]
    for l in range(1, x.n_branches + 1):
        frame = np.kron(
            np.kron(_fold_left_chain(a[: l - 1]), np.eye(2**n)), _fold_right_chain(b[l + n - 1 :])
        )
        want = (frame.T @ hx).reshape(kept.dims[l - 1], 2, kept.dims[l])
        if l < x.anchor:
            want = _project_out_left(want, a[l - 1])
        got = out.windows[l - 1][0].data
        npt.assert_allclose(got, want, atol=1e-12)


def test_apply_matches_dense_projected_hamiltonian():
    L = 5
    kept, disc = build_bases(random_mps(L, 2, bond_cap=2, seed=20))
    for h in (heisenberg_mpo(L), haldane_shastry_mpo(L)):
        hm = dense_hamiltonian(h)
        for n in (1, 2, 3):
            p = dense_projector(ProjectorSpec.global_ns(n), kept, disc)
            x = init_excitation(kept, n, seed=7)
            got = dense_state(materialize(apply_projected_h(x, h))).vec
            want = p @ hm @ dense_state(materialize(x)).vec
            npt.assert_allclose(got, want, atol=DENSE_TOL)


def test_apply_with_maximal_profile_annihilated_branches():
    # at the maximal bond profile some branches have no discarded content at
    # all; the gauge zeroes them and the projected operator must still agree
    # with the dense restriction
    L = 4
    kept, disc = build_bases(random_mps(L, 2, bond_cap=None, seed=24))
    h = haldane_shastry_mpo(L)
    hm = dense_hamiltonian(h)
    x = init_excitation(kept, 1, seed=13)
    assert any(np.allclose(chain[0].data, 0.0) for chain in x.windows[:-1])
    p = dense_projector(ProjectorSpec.global_ns(1), kept, disc)
    got = dense_state(materialize(apply_projected_h(x, h))).vec
    want = p @ hm @ dense_state(materialize(x)).vec
    npt.assert_allclose(got, want, atol=1e-12)


def test_apply_symmetric_and_linear():
    kept = bases_for(6, 2, 21)
    h = haldane_shastry_mpo(6)
    for n in (1, 2):
        x = init_excitation(kept, n, seed=8)
        y = init_excitation(kept, n, seed=9)
        hx, hy = apply_projected_h(x, h), apply_projected_h(y, h)
        npt.assert_allclose(ex_overlap(y, hx), ex_overlap(x, hy), atol=DENSE_TOL)
        z = gauge_fix_T1(ex_axpy(x, 0.7, y))
        hz = apply_projected_h(compress_windows(z), h)
        want = dense_state(materialize(hx)).vec + 0.7 * dense_state(materialize(hy)).vec
        npt.assert_allclose(dense_state(materialize(hz)).vec, want, atol=DENSE_TOL)


def test_flat_roundtrip_preserves_state():
    kept = bases_for(5, 2, 22)
    for n in (1, 2, 3):
        x = init_excitation(kept, n, seed=10)
        back = state_from_flat(kept, n, flatten(x))
        npt.assert_allclose(ex_overlap(back, x), 1.0, atol=1e-12)
        npt.assert_allclose(flatten(back), flatten(x), atol=1e-12)


# ---------- eigensolver ----------


def test_solve_two_site_triplet_gap():
    h = heisenberg_mpo(2)
    gs = dmrg_ground_state(random_mps(2, 2, seed=1), h, "2s", DmrgOptions(n_sweeps=3))
    res = solve_lowest_excitation(gs.psi, h, 1)
    npt.assert_allclose(res.energy, 0.25, atol=1e-10)
    npt.assert_allclose(res.energy - gs.energy, 1.0, atol=1e-10)
    npt.assert_allclose(res.s2_total, 2.0, atol=1e-8)
    assert res.converged


def test_solve_converges_on_longer_heisenberg_chain():
    # kept-space round-off in the Krylov basis used to grow here, leaving
    # the solver unconverged at a residual near 2e-7
    h = heisenberg_mpo(16)
    opts = DmrgOptions(policy=TruncationPolicy(max_rank=16, rel_cutoff=1e-13))
    gs = dmrg_ground_state(random_mps(16, 2, bond_cap=16, seed=0), h, "2s", opts)
    res = solve_lowest_excitation(gs.psi, h, 1)
    assert res.converged
    assert res.residual <= 1e-10 * abs(res.energy)


def test_solve_hs_l6_matches_dense_first_excited():
    h = haldane_shastry_mpo(6)
    opts = DmrgOptions(n_sweeps=10, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-14))
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=2), h, "2s", opts)
    res = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(tol=1e-10))
    want = exact_spectrum(dense_hamiltonian(h), 2)[1]
    npt.assert_allclose(res.energy, want, atol=1e-6)
    npt.assert_allclose(res.energy, hs_first_excited_energy(6), atol=1e-6)
    assert res.residual <= 1e-9


def test_solve_result_orthogonal_to_reference():
    h = haldane_shastry_mpo(6)
    opts = DmrgOptions(n_sweeps=8, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-14))
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=3), h, "2s", opts)
    res = solve_lowest_excitation(gs.psi, h, 1)
    kept, _ = build_bases(gs.psi)
    ov = overlap(kept.reference, materialize(res.state))
    npt.assert_allclose(ov, 0.0, atol=1e-9)


def test_solve_window_nesting_improves_energy():
    h = haldane_shastry_mpo(6)
    opts = DmrgOptions(n_sweeps=8, policy=TruncationPolicy(max_rank=3, rel_cutoff=1e-14))
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=3, seed=2), h, "2s", opts)
    e1 = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(tol=1e-10)).energy
    e2 = solve_lowest_excitation(gs.psi, h, 2, ExcitationOptions(tol=1e-10)).energy
    assert e2 <= e1 + 1e-12


def test_apply_cost_grows_at_most_linearly_in_local_dimension():
    L = 10
    h = heisenberg_mpo(L)
    opts = DmrgOptions(n_sweeps=5, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-13))
    gs = dmrg_ground_state(random_mps(L, 2, bond_cap=8, seed=1), h, "2s", opts)
    bases, _ = build_bases(gs.psi)
    medians = []
    for n in (1, 2, 3):
        x = init_excitation(bases, n, seed=0)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            apply_projected_h(x, h)
            samples.append(time.perf_counter() - t0)
        medians.append(np.median(samples))
    for a, b in zip(medians, medians[1:]):
        assert b <= 2 * 2 * a  # ratio bound 2d between consecutive window sizes


# ---------- archives ----------


def test_excitation_archive_roundtrip(tmp_path):
    h = heisenberg_mpo(4)
    gs = dmrg_ground_state(random_mps(4, 2, bond_cap=4, seed=1), h, "2s", DmrgOptions(n_sweeps=4))
    save_mps(gs.psi, tmp_path / "gs")
    res = solve_lowest_excitation(gs.psi, h, 2, ExcitationOptions(seed=5))
    save_excitation(
        res.state,
        tmp_path / "exc",
        gs_path=str(tmp_path / "gs"),
        extra={"E_ex": res.energy, "residual": res.residual, "seed": 5},
    )
    back, manifest = load_excitation(tmp_path / "exc")
    assert manifest["n"] == 2 and manifest["L"] == 4
    assert manifest["seed"] == 5 and "E_ex" in manifest and "residual" in manifest
    npt.assert_allclose(ex_overlap(back, back), ex_overlap(res.state, res.state), atol=1e-10)
    npt.assert_allclose(
        dense_state(materialize(back)).vec,
        dense_state(materialize(res.state)).vec,
        atol=1e-9,
    )


def test_excitation_archive_rejects_a_changed_reference(tmp_path):
    h = heisenberg_mpo(4)
    gs = dmrg_ground_state(random_mps(4, 2, bond_cap=4, seed=1), h, "2s", DmrgOptions(n_sweeps=4))
    save_mps(gs.psi, tmp_path / "gs")
    res = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(seed=2))
    save_excitation(res.state, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    load_excitation(tmp_path / "exc")
    save_mps(random_mps(4, 2, bond_cap=4, seed=9), tmp_path / "gs")  # overwrite the reference
    with pytest.raises(ValueError, match="reference archive .* changed"):
        load_excitation(tmp_path / "exc")
    # a format-2 archive carries no hash; the windows' gauge condition
    # still exposes the changed reference, and the original one loads as before
    manifest_path = tmp_path / "exc" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["ground_state_sha256"]
    manifest["format_version"] = 2
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="gauge condition"):
        load_excitation(tmp_path / "exc")
    save_mps(gs.psi, tmp_path / "gs")
    back, _ = load_excitation(tmp_path / "exc")
    assert back.n == 1 and back.L == 4


def test_excitation_archive_reloads_from_another_directory(tmp_path, monkeypatch):
    h = heisenberg_mpo(4)
    gs = dmrg_ground_state(random_mps(4, 2, bond_cap=4, seed=1), h, "2s", DmrgOptions(n_sweeps=4))
    monkeypatch.chdir(tmp_path)
    save_mps(gs.psi, "gs")
    res = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(seed=2))
    save_excitation(res.state, "exc", gs_path="gs")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    back, manifest = load_excitation("../exc")
    assert manifest["format_version"] == 3 and manifest["ground_state"] == "../gs"
    for ca, cb in zip(back.windows, res.state.windows):
        for ta, tb in zip(ca, cb):
            npt.assert_array_equal(ta.data, tb.data)


def _saved_excitation(tmp_path):
    """A gauge-fixed n=1 excitation over a random L=10, D=8 reference, both
    saved, and checked to load before any test corrupts it."""
    save_mps(random_mps(10, 2, bond_cap=8, seed=3), tmp_path / "gs")
    bases, _ = build_bases(load_mps(tmp_path / "gs"))
    x = init_excitation(bases, 1, seed=4)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    load_excitation(tmp_path / "exc")
    return tmp_path / "exc"


def _swap_blobs(path, a: str, b: str) -> None:
    blob_a, blob_b = (path / f"{a}.ten").read_bytes(), (path / f"{b}.ten").read_bytes()
    (path / f"{a}.ten").write_bytes(blob_b)
    (path / f"{b}.ten").write_bytes(blob_a)


def test_excitation_archive_rejects_a_blob_of_the_wrong_shape(tmp_path):
    exc = _saved_excitation(tmp_path)
    _swap_blobs(exc, "t_2_1", "t_3_1")  # shapes (2, 2, 4) and (4, 2, 8)
    with pytest.raises(ValueError, match="t_2_1.ten has shape"):
        load_excitation(exc)


def test_excitation_archive_rejects_an_equal_shape_swap(tmp_path):
    exc = _saved_excitation(tmp_path)
    _swap_blobs(exc, "t_4_1", "t_5_1")  # both (8, 2, 8)
    with pytest.raises(ValueError, match="gauge condition"):
        load_excitation(exc)


def test_excitation_archive_rejects_a_wrong_manifest(tmp_path):
    exc = _saved_excitation(tmp_path)
    manifest_path = exc / "manifest.json"
    good = json.loads(manifest_path.read_text())
    for field, value, message in (
        ("n", 2, "n = 2 does not fit"),
        ("L", 12, "L = 12, d = 2, but the reference has L = 10"),
        ("d", 3, "d = 3, but the reference has L = 10, d = 2"),
        ("window_bonds", [[]] * 9, "n = 1 does not fit"),
    ):
        manifest_path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ValueError, match=message):
            load_excitation(exc)
