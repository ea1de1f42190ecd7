"""Tests for the window-form excitation states and their eigensolver."""

import json
import time

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.dmrg import DmrgOptions, dmrg_ground_state
from kdmps.ed import dense_hamiltonian, dense_state, exact_spectrum, fold_chain
from kdmps.excitation import (
    ExcitationOptions,
    _absorb,
    _chain_to_window,
    _join_flat,
    _reference_windows,
    apply_projected_h,
    build_exc_env,
    flatten,
    gauge_defect,
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
    s2_total_mpo,
)
from kdmps.mps import Mps, load_mps, overlap, product_mps, random_mps, save_mps, site_tensors
from kdmps.projectors import build_bases, dense_projector, expand_global
from kdmps.tensor import Tensor, TruncationPolicy, env_step_left, env_step_right, mpo_matrix, mpo_step
from state_helpers import INTERIOR_EMPTY_BONDS, mps_with_bonds, random_excitation

DENSE_TOL = 1e-10


def bases_for(L, cap, seed):
    return build_bases(random_mps(L, 2, bond_cap=cap, seed=seed))


# ---------- random states ----------


def test_init_smallest_case_product_reference():
    kept = build_bases(product_mps(2, 2, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]))
    x = random_excitation(kept, 1, seed=0)
    assert x.n_branches == 2
    assert x.windows[0][0].shape == (1, 2, 1)
    assert x.windows[1][0].shape == (1, 2, 1)
    # non-anchor branch carries the discarded projection
    a1 = kept.left[0].data.reshape(2, 1)
    t1 = x.windows[0][0].data.reshape(2, 1)
    npt.assert_allclose(a1.T @ t1, 0.0, atol=1e-12)


def test_init_memory_layout_single_site_windows():
    kept = bases_for(6, 3, 1)
    x = random_excitation(kept, 1, seed=3)
    assert x.n_branches == 6  # one window tensor per site
    for l in range(1, 7):
        (t,) = x.windows[l - 1]
        assert t.shape == (kept.dims[l - 1], 2, kept.dims[l])


def test_init_deterministic_and_normalized():
    kept = bases_for(5, 2, 2)
    a = random_excitation(kept, 2, seed=9)
    b = random_excitation(kept, 2, seed=9)
    for ca, cb in zip(a.windows, b.windows):
        for ta, tb in zip(ca, cb):
            npt.assert_array_equal(ta.data, tb.data)
    npt.assert_allclose(flatten(a) @ flatten(a), 1.0, atol=1e-12)


def test_init_range_validation():
    kept = bases_for(4, 2, 3)
    with pytest.raises(ValueError, match="n must lie in"):
        state_from_flat(kept, 0, np.zeros(1))
    with pytest.raises(ValueError, match="n must lie in"):
        state_from_flat(kept, 5, np.zeros(1))


# ---------- gauge fixing ----------


def test_gauge_fix_idempotent():
    kept = bases_for(5, 2, 4)
    x = random_excitation(kept, 1, seed=1)
    assert gauge_defect(x) <= 1e-12
    y = state_from_flat(kept, 1, flatten(x))
    for cx, cy in zip(x.windows, y.windows):
        npt.assert_allclose(cx[0].data, cy[0].data, atol=1e-14)


def test_gauge_defect_detects_violations():
    kept = bases_for(5, 2, 4)
    x = random_excitation(kept, 1, seed=1)
    windows = list(x.windows)
    # plant pure kept-space content (the isometry itself) in branch 1
    windows[0] = (Tensor(kept.left[0].data, windows[0][0].legs),)
    violated = type(x)(bases=kept, n=1, windows=tuple(windows))
    assert gauge_defect(violated) > 1e-3
    assert gauge_defect(state_from_flat(kept, 1, flatten(violated))) <= 1e-12


def test_gauge_fix_annihilates_kept_content():
    kept = bases_for(5, 2, 5)
    x = random_excitation(kept, 1, seed=2)
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
    fixed = state_from_flat(kept, 1, flatten(corrupted))
    npt.assert_allclose(fixed.windows[l - 1][0].data, 0.0, atol=1e-12)


def test_gauge_fixed_branches_orthogonal_to_reference_and_each_other():
    kept = bases_for(5, 2, 6)
    x = random_excitation(kept, 1, seed=3)
    branches = [Mps(kept.left[: l - 1] + x.windows[l - 1] + kept.right[l:]) for l in range(1, x.n_branches + 1)]
    vec_ref = dense_state(kept.reference)
    for i, bi in enumerate(branches[:-1]):  # anchor branch may overlap the reference
        npt.assert_allclose(dense_state(bi) @ vec_ref, 0.0, atol=DENSE_TOL)
        for bj in branches[i + 1 :]:
            npt.assert_allclose(
                dense_state(bi) @ dense_state(bj), 0.0, atol=DENSE_TOL
            )


# ---------- flat overlaps and sums ----------


def test_ex_overlap_normalization_and_zero():
    kept = bases_for(6, 2, 7)
    x = random_excitation(kept, 2, seed=4)
    npt.assert_allclose(flatten(x) @ flatten(x), 1.0, atol=1e-12)
    zero = state_from_flat(kept, 2, np.zeros_like(flatten(x)))
    npt.assert_allclose(flatten(x) @ flatten(zero), 0.0, atol=0)


def test_ex_overlap_matches_dense_materialization():
    kept = bases_for(6, 2, 8)
    for n in (1, 2, 3):
        x = random_excitation(kept, n, seed=5)
        y = random_excitation(kept, n, seed=6)
        want = float(dense_state(materialize(x)) @ dense_state(materialize(y)))
        npt.assert_allclose(flatten(x) @ flatten(y), want, atol=DENSE_TOL)


def test_states_on_different_references_do_not_mix():
    # equal bond dimensions, different reference states: the operator cache
    # of one gauge refuses a state of the other
    h = heisenberg_mpo(6)
    x = random_excitation(bases_for(6, 4, 1), 2, seed=0)
    y = random_excitation(bases_for(6, 4, 2), 2, seed=0)
    env = build_exc_env(x.bases, 2, h)
    with pytest.raises(ValueError, match="another gauge"):
        apply_projected_h(y, h, env)
    # the same reference rebuilt into a second bases object is accepted
    again = random_excitation(bases_for(6, 4, 1), 2, seed=3)
    assert again.bases is not x.bases
    apply_projected_h(again, h, env)
    want = float(dense_state(materialize(x)) @ dense_state(materialize(again)))
    npt.assert_allclose(flatten(x) @ flatten(again), want, atol=DENSE_TOL)
    summed = dense_state(materialize(state_from_flat(x.bases, 2, flatten(x) + 0.5 * flatten(again))))
    npt.assert_allclose(summed, dense_state(materialize(x)) + 0.5 * dense_state(materialize(again)), atol=DENSE_TOL)


def test_ex_axpy_trivial_and_cancellation():
    kept = bases_for(5, 2, 10)
    x = random_excitation(kept, 2, seed=7)
    y = random_excitation(kept, 2, seed=8)
    same = state_from_flat(kept, 2, flatten(x) + 0.0 * flatten(y))
    npt.assert_allclose(
        dense_state(materialize(same)), dense_state(materialize(x)), atol=1e-12
    )
    cancel = state_from_flat(kept, 2, flatten(x) - flatten(x))
    npt.assert_allclose(flatten(cancel) @ flatten(cancel), 0.0, atol=1e-12)


def test_ex_axpy_dense_check_and_bond_growth():
    kept = bases_for(5, 2, 11)
    x = random_excitation(kept, 2, seed=9)
    y = random_excitation(kept, 2, seed=10)
    out = state_from_flat(kept, 2, flatten(x) + 0.3 * flatten(y))
    want = dense_state(materialize(x)) + 0.3 * dense_state(materialize(y))
    npt.assert_allclose(dense_state(materialize(out)), want, atol=DENSE_TOL)
    # sums are split afresh, so chained sums keep the window bonds of a new state
    profile = [[t.shape for t in chain] for chain in x.windows]
    for _ in range(10):
        out = state_from_flat(kept, 2, flatten(out) + 0.3 * flatten(y))
    assert [[t.shape for t in chain] for chain in out.windows] == profile


# ---------- the reference inside the window form ----------


def test_ground_state_in_ansatz_reproduces_reference():
    for n in (1, 2, 3):
        kept = bases_for(5, 2, 13)
        rep = state_from_flat(kept, n, _join_flat(_reference_windows(kept, n)))
        npt.assert_allclose(
            dense_state(materialize(rep)), dense_state(kept.reference), atol=1e-12
        )
        npt.assert_allclose(flatten(rep) @ flatten(rep), 1.0, atol=1e-12)


def test_state_from_flat_gauge_fixes_rank_deficient_windows():
    # QR columns beyond a window's rank are arbitrary and may hold kept
    # content, so the gauge must be fixed after the split
    kept = bases_for(6, 4, 30)
    h = haldane_shastry_mpo(6)
    for n in (2, 3):
        windows = _reference_windows(kept, n)  # the zero branches have rank 0
        states = [state_from_flat(kept, n, _join_flat(windows))]
        rng = np.random.default_rng(n)
        for l, w in enumerate(windows[:-1], start=1):
            # a rank-1 gauge-fixed window: a discarded vector times any right factor
            a = kept.left[l - 1].data
            u = rng.standard_normal(w.shape[:2])
            u -= np.tensordot(a, np.tensordot(a, u, axes=((0, 1), (0, 1))), axes=(2, 0))
            windows[l - 1] = np.multiply.outer(u, rng.standard_normal(w.shape[2:]))
        x = random_excitation(kept, n, seed=n)
        states += [state_from_flat(kept, n, _join_flat(windows)), x, state_from_flat(kept, n, flatten(x) + 0.5 * flatten(x))]
        states.append(apply_projected_h(states[1], h))
        for state in states:
            assert gauge_defect(state) <= 1e-12 * max(1.0, np.sqrt(flatten(state) @ flatten(state)))


def test_membership_of_gauge_fixed_states():
    kept = bases_for(5, 2, 14)
    for n in (1, 2):
        x = random_excitation(kept, n, seed=13)
        v = dense_state(materialize(x))
        projected = dense_projector(expand_global(n, kept.L), kept) @ v
        npt.assert_allclose(projected, v, atol=DENSE_TOL)


# ---------- environments ----------


def _passes(x, h, env=None):
    """(out, F) pairs of the forward pass and of the pass over the mirrored
    chain, on the dense windows of ``x``. Either is None where the pass
    holds nothing there, which reads as zero (:func:`_zero`)."""
    env = env or build_exc_env(x.bases, x.n, h)
    windows = [_chain_to_window(x.branch_arrays(l)) for l in range(1, x.n_branches + 1)]
    forward = list(_absorb(env.forward, windows, x.n, diagonal=True))
    mirrored = [np.transpose(w) for w in reversed(windows)]
    return forward, list(_absorb(env.backward, mirrored, x.n, diagonal=False))


def _zero(a):
    """An (out, F) entry of :func:`_passes`, with None read as zero."""
    return 0.0 if a is None else a


def _branch_env(kept, h, x, branch, sites, right=False):
    """<A-chain | h | branch> over sites 1..sites (or, with ``right``, over
    sites..L against the B-chain), contracted directly."""
    L, n = kept.L, x.n
    ket = [t.data for t in kept.left[: branch - 1]] + x.branch_arrays(branch)
    ket += [t.data for t in kept.right[branch + n - 1 :]]
    w = [t.data for t in h.sites]
    env = np.ones((1, 1, 1))
    if right:
        for s in range(L, sites - 1, -1):
            env = env_step_right(env, kept.right[s - 1].data, mpo_matrix(w[s - 1].transpose(3, 1, 2, 0)), ket[s - 1])
    else:
        for s in range(1, sites + 1):
            env = env_step_left(env, kept.left[s - 1].data, mpo_matrix(w[s - 1]), ket[s - 1])
    return env


def test_exc_env_zero_windows_reduce_to_plain_environments():
    from kdmps.dmrg import build_env

    kept = bases_for(5, 2, 15)
    h = heisenberg_mpo(5)
    plain = build_env(kept, h)
    for n in (1, 2):
        x = state_from_flat(kept, n, np.zeros_like(flatten(random_excitation(kept, n, seed=1))))
        env = build_exc_env(kept, n, h)
        for k in range(0, 6):
            npt.assert_array_equal(env.forward.lefts[k], plain.lefts[k])
            npt.assert_array_equal(env.forward.rights[k], plain.rights[k])
            npt.assert_array_equal(env.backward.lefts[k], plain.rights[5 - k])
            npt.assert_array_equal(env.backward.rights[k], plain.lefts[5 - k])
        forward, backward = _passes(x, h, env)
        for out, f in forward + backward:
            npt.assert_array_equal(_zero(out), 0.0)
            npt.assert_array_equal(_zero(f), 0.0)


def test_exc_env_identity_mpo_gives_partial_overlap_transfer():
    L = 4
    kept = bases_for(L, 2, 16)
    x = random_excitation(kept, 1, seed=2)
    forward, _ = _passes(x, identity_mpo(L))
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
        f = forward[l - 1][1]
        got = 0.0 if f is None else f[:, 0, :]  # None: no live branch has reached bond l
        npt.assert_allclose(got, acc, atol=1e-12)


def test_exc_env_recursions_rebuild():
    # the F each window closes, at bond l + n - 2 (l for n = 1), sums the
    # branches ending at or before that bond absorbed whole, both ways.
    # Branch 1 has no discarded space, so the mirrored pass ends with the
    # output of branch 2 and closes no F after it
    L = 5
    kept = bases_for(L, 2, 17)
    assert kept.discarded_left_dims[:2] == (0, 2)
    h = heisenberg_mpo(L)
    for n in (1, 2, 3):
        x = random_excitation(kept, n, seed=3)
        forward, backward = _passes(x, h)
        assert (len(forward), len(backward)) == (x.n_branches, x.n_branches - 1)
        for l in range(1, x.n_branches + 1):
            bond = l if n == 1 else l + n - 2
            want = sum(_branch_env(kept, h, x, lp, bond) for lp in range(1, bond - n + 2))
            npt.assert_allclose(_zero(forward[l - 1][1]), want, atol=1e-12)
            if l > len(backward):
                continue
            # mirrored bond b is bond L - b: branches first..nb over sites first..L
            first = L - bond + 1
            want = sum(_branch_env(kept, h, x, lp, first, right=True) for lp in range(first, x.n_branches + 1))
            npt.assert_allclose(_zero(backward[l - 1][1]), want, atol=1e-12)


def test_exc_env_cached_reference_environments_match_rebuilt():
    from kdmps.dmrg import build_env

    kept = bases_for(6, 3, 23)
    h = haldane_shastry_mpo(6)
    base = build_env(kept, h)
    for n in (1, 2, 3):
        x = random_excitation(kept, n, seed=n)
        env = build_exc_env(kept, n, h)
        npt.assert_array_equal(env.forward.lefts[3], base.lefts[3])
        cached = apply_projected_h(x, h, env)
        rebuilt = apply_projected_h(x, h)
        for ca, cb in zip(cached.windows, rebuilt.windows):
            for ta, tb in zip(ca, cb):
                npt.assert_array_equal(ta.data, tb.data)
    with pytest.raises(ValueError, match="another gauge, operator"):
        apply_projected_h(x, heisenberg_mpo(6), env)


def test_exc_env_stale_cache_rejected():
    kept = bases_for(4, 2, 18)
    h = heisenberg_mpo(4)
    x = random_excitation(kept, 1, seed=4)
    env = build_exc_env(kept, 1, h)
    other_gauge = random_excitation(bases_for(4, 2, 19), 1, seed=4)
    for y, op in ((other_gauge, h), (x, heisenberg_mpo(4)), (random_excitation(kept, 2, seed=4), h)):
        with pytest.raises(ValueError, match="another gauge, operator or window size"):
            apply_projected_h(y, op, env=env)


def test_exc_env_cache_serves_every_state_of_its_gauge():
    kept = bases_for(6, 2, 18)
    h = haldane_shastry_mpo(6)
    for n in (1, 2):
        x = random_excitation(kept, n, seed=4)
        y = random_excitation(kept, n, seed=5)
        env = build_exc_env(kept, n, h)
        apply_projected_h(x, h, env)
        reused = apply_projected_h(y, h, env)
        fresh = apply_projected_h(y, h)
        for ca, cb in zip(reused.windows, fresh.windows):
            for ta, tb in zip(ca, cb):
                npt.assert_array_equal(ta.data, tb.data)


# ---------- projected Hamiltonian ----------


def test_apply_identity_operator_returns_state():
    kept = bases_for(5, 2, 19)
    for n in (1, 2):
        x = random_excitation(kept, n, seed=6)
        out = apply_projected_h(x, identity_mpo(5))
        npt.assert_allclose(
            dense_state(materialize(out)), dense_state(materialize(x)), atol=1e-12
        )


def test_apply_branch_windows_match_dense_frame_assembly():
    # each output window is the bra-frame component of H|x>, discarded-
    # projected on its first slot away from the anchor
    L, n = 5, 1
    kept = build_bases(random_mps(L, 2, bond_cap=2, seed=23))
    h = heisenberg_mpo(L)
    hm = dense_hamiltonian(h)
    x = random_excitation(kept, n, seed=12)
    hx = hm @ dense_state(materialize(x))
    out = apply_projected_h(x, h)
    from kdmps.projectors import _project_out_left

    a = [t.data for t in kept.left]
    b = [t.data for t in kept.right]
    for l in range(1, x.n_branches + 1):
        frame = np.kron(np.kron(fold_chain(a[: l - 1])[0], np.eye(2**n)), fold_chain(b[l + n - 1 :])[:, :, 0].T)
        want = (frame.T @ hx).reshape(kept.dims[l - 1], 2, kept.dims[l])
        if l < x.n_branches:
            want = _project_out_left(want, a[l - 1])
        got = out.windows[l - 1][0].data
        npt.assert_allclose(got, want, atol=1e-12)


def test_apply_matches_dense_projected_hamiltonian():
    # the second reference has empty branches at the edge and in the interior
    for psi in (random_mps(5, 2, bond_cap=2, seed=20), mps_with_bonds(INTERIOR_EMPTY_BONDS, seed=20)):
        L = psi.L
        kept = build_bases(psi)
        for h in (heisenberg_mpo(L), haldane_shastry_mpo(L)):
            hm = dense_hamiltonian(h)
            for n in (1, 2, 3, 4):
                p = dense_projector(expand_global(n, L), kept)
                x = random_excitation(kept, n, seed=7)
                got = dense_state(materialize(apply_projected_h(x, h)))
                want = p @ hm @ dense_state(materialize(x))
                npt.assert_allclose(got, want, atol=DENSE_TOL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_branches_without_a_discarded_space_are_exact_zeros(n):
    # branches 1 and 3 have Dbar^A = 0: the gauge, the projected operator
    # and the solver's returned state hold exact zeros there, not round-off
    psi = mps_with_bonds(INTERIOR_EMPTY_BONDS, seed=3)
    kept = build_bases(psi)
    h = haldane_shastry_mpo(kept.L)
    x = random_excitation(kept, n, seed=5)
    res = solve_lowest_excitation(psi, h, n)
    for state in (x, apply_projected_h(x, h), res.state):
        for l, chain in enumerate(state.windows[:-1], start=1):
            window = _chain_to_window([t.data for t in chain])
            assert np.all(window == 0.0) == (l in (1, 3)), l


def test_apply_with_maximal_profile_annihilated_branches():
    # at the maximal bond profile some branches have no discarded content at
    # all; the gauge zeroes them and the projected operator must still agree
    # with the dense restriction
    L = 4
    kept = build_bases(random_mps(L, 2, bond_cap=None, seed=24))
    h = haldane_shastry_mpo(L)
    hm = dense_hamiltonian(h)
    x = random_excitation(kept, 1, seed=13)
    assert any(np.allclose(chain[0].data, 0.0) for chain in x.windows[:-1])
    p = dense_projector(expand_global(1, L), kept)
    got = dense_state(materialize(apply_projected_h(x, h)))
    want = p @ hm @ dense_state(materialize(x))
    npt.assert_allclose(got, want, atol=1e-12)


def test_apply_symmetric_and_linear():
    kept = bases_for(6, 2, 21)
    h = haldane_shastry_mpo(6)
    for n in (1, 2, 3, 4):
        x = random_excitation(kept, n, seed=8)
        y = random_excitation(kept, n, seed=9)
        hx, hy = apply_projected_h(x, h), apply_projected_h(y, h)
        npt.assert_allclose(flatten(y) @ flatten(hx), flatten(x) @ flatten(hy), atol=DENSE_TOL)
        z = state_from_flat(kept, n, flatten(x) + 0.7 * flatten(y))
        hz = apply_projected_h(z, h)
        want = dense_state(materialize(hx)) + 0.7 * dense_state(materialize(hy))
        npt.assert_allclose(dense_state(materialize(hz)), want, atol=DENSE_TOL)


def _mpo_steps(monkeypatch, x, h):
    """The MPO steps one application of the projected operator takes, with
    the cache built beforehand."""
    import kdmps.excitation as kexc

    env = build_exc_env(x.bases, x.n, h)
    calls = []

    def counted(*args):
        calls.append(args)
        return mpo_step(*args)

    monkeypatch.setattr(kexc, "mpo_step", counted)
    apply_projected_h(x, h, env)
    return len(calls)


@pytest.mark.parametrize("n, steps", [(1, 18), (2, 38), (3, 59), (4, 72)])
def test_apply_mpo_step_count(monkeypatch, n, steps):
    # per window, the summed input takes the MPO steps of the first n - 1
    # window sites in each reading, the forward diagonal chain n and the
    # backward chain n - 1; for n = 1 one step per window and reading.
    # Bonds 1, 2, 4, 8 leave branches 1-3 dead (no discarded space), so
    # neither pass runs them and nothing reaches their windows: the readings
    # cover windows 4..L-n+1, the mirrored one ending with branch 4, and
    # window 4 takes no summed input in either. For n >= 2 that makes
    # (L - n - 2) * (4n - 3) - 2 (n - 1) steps
    L = 12
    kept = bases_for(L, 8, 25)
    assert kept.discarded_left_dims[:4] == (0, 0, 0, 8)
    x = random_excitation(kept, n, seed=1)
    assert _mpo_steps(monkeypatch, x, haldane_shastry_mpo(L)) == steps


@pytest.mark.parametrize("n, steps", [(1, 10), (2, 15), (3, 18)])
def test_apply_mpo_step_count_with_an_interior_dead_branch(monkeypatch, n, steps):
    # branches 1 and 3 are dead (Dbar^A = 0 away from the anchor): neither
    # pass runs them, and a window takes a summed input only where a live
    # branch has reached it. A live branch runs n MPO steps forward and
    # n - 1 backward, a reached window's summed input n - 1; for n = 1 the
    # window's one step serves both and runs where either is there. The
    # mirrored pass ends with branch 2, its last live one.
    # n = 1: forward windows 2-6, mirrored windows 6-2: 5 + 5.
    # n = 2: forward, branches 2, 4, 5 run 2 each and windows 3-5 are
    # reached, 6 + 3; mirrored, branches 5, 4, 2 run 1 each and windows
    # 4, 3, 2 are reached, 3 + 3.
    # n = 3: forward, branches 2, 4 run 3 each and windows 3, 4 are reached,
    # 6 + 4; mirrored, branches 4, 2 run 2 each and windows 3, 2 are
    # reached, 4 + 4.
    kept = build_bases(mps_with_bonds(INTERIOR_EMPTY_BONDS, seed=3))
    x = random_excitation(kept, n, seed=5)
    assert _mpo_steps(monkeypatch, x, haldane_shastry_mpo(kept.L)) == steps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_symmetric_and_solve_consistent_beyond_the_dense_guard(n):
    # d^L = 16384 > 4096: no dense oracle, so check the identities that
    # need none, <y|H x> = <x|H y> and the solver's Rayleigh quotient
    L = 14
    kept = bases_for(L, 8, 26)
    h = haldane_shastry_mpo(L)
    env = build_exc_env(kept, n, h)
    x = random_excitation(kept, n, seed=10)
    y = random_excitation(kept, n, seed=11)
    yhx = flatten(y) @ flatten(apply_projected_h(x, h, env))
    xhy = flatten(x) @ flatten(apply_projected_h(y, h, env))
    assert abs(yhx - xhy) <= 1e-12 * max(abs(yhx), abs(xhy))
    res = solve_lowest_excitation(random_mps(L, 2, bond_cap=8, seed=26), h, n)
    assert res.converged
    v = res.state
    rayleigh = (flatten(v) @ flatten(apply_projected_h(v, h))) / (flatten(v) @ flatten(v))
    assert abs(rayleigh - res.energy) <= 1e-12 * abs(res.energy)


def test_flat_roundtrip_preserves_state():
    kept = bases_for(5, 2, 22)
    for n in (1, 2, 3):
        x = random_excitation(kept, n, seed=10)
        back = state_from_flat(kept, n, flatten(x))
        npt.assert_allclose(flatten(back) @ flatten(x), 1.0, atol=1e-12)
        npt.assert_allclose(flatten(back), flatten(x), atol=1e-12)


# ---------- eigensolver ----------


def test_solve_two_site_triplet_gap():
    h = heisenberg_mpo(2)
    gs = dmrg_ground_state(random_mps(2, 2, seed=1), h, "2s", DmrgOptions(n_sweeps=3))
    res = solve_lowest_excitation(gs.psi, h, 1)
    npt.assert_allclose(res.energy, 0.25, atol=1e-10)
    npt.assert_allclose(res.energy - gs.energy, 1.0, atol=1e-10)
    x = res.state
    npt.assert_allclose(flatten(x) @ flatten(apply_projected_h(x, s2_total_mpo(2))), 2.0, atol=1e-8)
    assert res.converged


def test_solve_builds_one_operator_cache(monkeypatch):
    # the solve needs the cache of h alone; spin diagnostics are the caller's
    import kdmps.excitation as kexc

    calls = []
    real = kexc.build_exc_env

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kexc, "build_exc_env", counted)
    h = haldane_shastry_mpo(6)
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=2), h, "2s", DmrgOptions(n_sweeps=6)).psi
    for n in (1, 2):
        calls.clear()
        solve_lowest_excitation(gs, h, n)
        assert len(calls) == 1


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
    kept = build_bases(gs.psi)
    ov = overlap(kept.reference, materialize(res.state))
    npt.assert_allclose(ov, 0.0, atol=1e-9)


def test_solve_window_nesting_improves_energy():
    h = haldane_shastry_mpo(6)
    opts = DmrgOptions(n_sweeps=8, policy=TruncationPolicy(max_rank=3, rel_cutoff=1e-14))
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=3, seed=2), h, "2s", opts)
    e1 = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(tol=1e-10)).energy
    e2 = solve_lowest_excitation(gs.psi, h, 2, ExcitationOptions(tol=1e-10)).energy
    assert e2 <= e1 + 1e-12


class _Captured(Exception):
    pass


def _solver_matvec(monkeypatch, gs, h, n):
    """The flat matvec solve_lowest_excitation hands to Lanczos."""
    import kdmps.excitation as kexc

    def capture(matvec, *args, **kwargs):
        raise _Captured(matvec)

    monkeypatch.setattr(kexc, "lanczos_lowest", capture)
    with pytest.raises(_Captured) as caught:
        solve_lowest_excitation(gs, h, n)
    monkeypatch.undo()
    return caught.value.args[0]


@pytest.mark.parametrize("model, L, cap", [(heisenberg_mpo, 8, 8), (haldane_shastry_mpo, 10, 16)])
def test_solver_matvec_symmetric_on_the_whole_flat_space(monkeypatch, model, L, cap):
    # Lanczos needs <x, A y> = <y, A x> also off the gauge-fixed subspace
    gs = random_mps(L, 2, bond_cap=cap, seed=4)
    h = model(L)
    kept = build_bases(gs)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        matvec = _solver_matvec(monkeypatch, gs, h, n)
        size = flatten(random_excitation(kept, n)).size
        x, y = rng.standard_normal(size), rng.standard_normal(size)
        ax, ay = matvec(x), matvec(y)
        bound = 1e-12 * max(1.0, np.linalg.norm(x) * np.linalg.norm(ay))
        assert abs(x @ ay - y @ ax) <= bound


def test_solver_keeps_windows_dense_inside_lanczos(monkeypatch):
    # the matvec must not split windows into chains; only the result is split
    import kdmps.excitation as kexc

    def no_chains(*args, **kwargs):
        raise AssertionError("window split into a chain inside the Lanczos loop")

    real = kexc.lanczos_lowest

    def guarded(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(kexc, "_window_to_chain", no_chains)
            return real(*args, **kwargs)

    monkeypatch.setattr(kexc, "lanczos_lowest", guarded)
    h = haldane_shastry_mpo(6)
    gs = dmrg_ground_state(random_mps(6, 2, bond_cap=4, seed=2), h, "2s", DmrgOptions(n_sweeps=6)).psi
    for n in (1, 2):
        res = solve_lowest_excitation(gs, h, n)
        assert res.converged
        assert len(res.state.windows[0]) == n


def test_apply_peak_memory_stays_below_bound():
    # one pass keeps only the last n absorbed environments alive, not one
    # per bond; the peak was 5.2 MiB when this bound was set
    import tracemalloc

    kept = build_bases(random_mps(12, 2, 32, seed=0))
    h = haldane_shastry_mpo(12)
    x = random_excitation(kept, 2, seed=0)
    tracemalloc.start()
    try:
        apply_projected_h(x, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_apply_cost_grows_at_most_linearly_in_local_dimension():
    L = 10
    h = heisenberg_mpo(L)
    opts = DmrgOptions(n_sweeps=5, policy=TruncationPolicy(max_rank=8, rel_cutoff=1e-13))
    gs = dmrg_ground_state(random_mps(L, 2, bond_cap=8, seed=1), h, "2s", opts)
    bases = build_bases(gs.psi)
    medians = []
    for n in (1, 2, 3):
        x = random_excitation(bases, n, seed=0)
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
    npt.assert_allclose(flatten(back) @ flatten(back), flatten(res.state) @ flatten(res.state), atol=1e-10)
    npt.assert_allclose(
        dense_state(materialize(back)),
        dense_state(materialize(res.state)),
        atol=1e-9,
    )


def test_save_excitation_refuses_extra_keys_of_its_own_manifest(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    x = random_excitation(build_bases(load_mps(tmp_path / "gs")), 2, seed=4)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"), extra={"E_ex": 1.0})
    own = set(json.loads((tmp_path / "exc" / "manifest.json").read_text())) - {"E_ex"}
    assert "windows_sha256" in own and "kind" in own
    for key in sorted(own):
        target = tmp_path / f"exc_{key}"
        with pytest.raises(ValueError, match=f"own keys \\['{key}'\\]"):
            save_excitation(x, target, gs_path=str(tmp_path / "gs"), extra={"E_ex": 1.0, key: 2})
        assert not target.exists()  # refused before anything is written


def test_save_excitation_writes_nothing_when_the_manifest_cannot_be_encoded(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    bases = build_bases(load_mps(tmp_path / "gs"))
    x, y = random_excitation(bases, 2, seed=4), random_excitation(bases, 2, seed=5)
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_excitation(x, tmp_path / "new", gs_path=str(tmp_path / "gs"), extra={"seed": np.int64(5)})
    assert not (tmp_path / "new").exists()
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"), extra={"seed": 5})
    before = {p.name: p.read_bytes() for p in (tmp_path / "exc").iterdir()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_excitation(y, tmp_path / "exc", gs_path=str(tmp_path / "gs"), extra={"seed": np.int64(5)})
    assert {p.name: p.read_bytes() for p in (tmp_path / "exc").iterdir()} == before
    back, manifest = load_excitation(tmp_path / "exc")
    assert manifest["seed"] == 5
    npt.assert_array_equal(flatten(back), flatten(x))


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
    # editing the manifest does not switch the hash off: with the original
    # reference back, a manifest without the hash, or one that claims the
    # hash-free format 2, is rejected
    save_mps(gs.psi, tmp_path / "gs")
    manifest_path = tmp_path / "exc" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["ground_state_sha256"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="the manifest lacks ground_state_sha256"):
        load_excitation(tmp_path / "exc")
    manifest_path.write_text(json.dumps({**manifest, "format_version": 2}))
    with pytest.raises(ValueError, match="format 2; only format 4"):
        load_excitation(tmp_path / "exc")


def test_save_excitation_refuses_a_reference_the_state_was_not_built_on(tmp_path):
    psi = random_mps(6, 2, bond_cap=4, seed=3)
    save_mps(psi, tmp_path / "gs")
    x = random_excitation(build_bases(load_mps(tmp_path / "gs")), 1, seed=4)
    save_mps(random_mps(6, 2, bond_cap=4, seed=9), tmp_path / "other")
    save_mps(random_mps(5, 2, bond_cap=4, seed=3), tmp_path / "shorter")
    for ref in ("other", "shorter"):
        with pytest.raises(ValueError, match="does not hold the reference state the excitation was built on"):
            save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / ref))
        assert not (tmp_path / "exc").exists()  # refused before anything is written
    # the gauge, and so the windows' meaning, ignores the reference's norm and sign
    for k in (-1.0, 2.0):
        sites = [t.data * (k if l == 3 else 1.0) for l, t in enumerate(psi.sites, 1)]
        save_mps(Mps(site_tensors(sites)), tmp_path / "gs")
        save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
        back = load_excitation(tmp_path / "exc")[0]
        npt.assert_allclose(dense_state(materialize(back)), dense_state(materialize(x)), atol=1e-12)


def test_excitation_archive_hashes_are_the_sha256_of_the_blob_files(tmp_path):
    # a format pin: the stored sums are taken over the blob files' bytes, in
    # site order for the reference and (l, i) order for the windows
    import hashlib

    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    x = random_excitation(build_bases(load_mps(tmp_path / "gs")), 2, seed=4)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    manifest = json.loads((tmp_path / "exc" / "manifest.json").read_text())

    def sha256_of(paths):
        return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()

    assert manifest["ground_state_sha256"] == sha256_of(tmp_path / "gs" / f"site_{l}.ten" for l in range(1, 7))
    windows = [tmp_path / "exc" / f"t_{l}_{i}.ten" for l in range(1, 6) for i in (1, 2)]
    assert manifest["windows_sha256"] == sha256_of(windows)


def test_excitation_archive_rejects_a_reference_manifest_without_l(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    x = random_excitation(build_bases(load_mps(tmp_path / "gs")), 1, seed=4)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    manifest_path = tmp_path / "gs" / "manifest.json"
    manifest_path.write_text(json.dumps({k: v for k, v in json.loads(manifest_path.read_text()).items() if k != "L"}))
    with pytest.raises(ValueError, match="the manifest lacks L"):
        load_excitation(tmp_path / "exc")
    with pytest.raises(ValueError, match="the manifest lacks L"):
        save_excitation(x, tmp_path / "new", gs_path=str(tmp_path / "gs"))
    assert not (tmp_path / "new").exists()


def test_excitation_archive_rejects_bytes_past_a_window_payload(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    x = random_excitation(build_bases(load_mps(tmp_path / "gs")), 2, seed=4)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    blob = tmp_path / "exc" / "t_3_2.ten"
    blob.write_bytes(blob.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match=r"t_3_2\.ten: the blob runs 8 bytes past its payload"):
        load_excitation(tmp_path / "exc")


def test_excitation_archive_saved_over_a_longer_one_leaves_only_its_own_files(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=3), tmp_path / "gs")
    bases = build_bases(load_mps(tmp_path / "gs"))
    save_excitation(random_excitation(bases, 2, seed=4), tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    assert len(list((tmp_path / "exc").iterdir())) == 11
    x = random_excitation(bases, 1, seed=5)
    save_excitation(x, tmp_path / "exc", gs_path=str(tmp_path / "gs"))
    names = sorted(p.name for p in (tmp_path / "exc").iterdir())
    assert names == ["manifest.json"] + [f"t_{l}_1.ten" for l in range(1, 7)]
    npt.assert_array_equal(flatten(load_excitation(tmp_path / "exc")[0]), flatten(x))


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
    assert manifest["format_version"] == 4 and manifest["ground_state"] == "../gs"
    for ca, cb in zip(back.windows, res.state.windows):
        for ta, tb in zip(ca, cb):
            npt.assert_array_equal(ta.data, tb.data)


def _saved_excitation(tmp_path, n=1):
    """A gauge-fixed n-site excitation over a random L=10, D=8 reference,
    both saved, and checked to load before any test corrupts it."""
    save_mps(random_mps(10, 2, bond_cap=8, seed=3), tmp_path / "gs")
    bases = build_bases(load_mps(tmp_path / "gs"))
    x = random_excitation(bases, n, seed=4)
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


@pytest.mark.parametrize("a, b", [("t_4_2", "t_5_2"), ("t_9_1", "t_8_2")])
def test_excitation_archive_rejects_a_window_swap_the_gauge_allows(tmp_path, a, b):
    # neither blob is a gauge-conditioned first slot of a non-anchor branch
    exc = _saved_excitation(tmp_path, n=2)
    _swap_blobs(exc, a, b)
    with pytest.raises(ValueError, match="window blobs changed"):
        load_excitation(exc)
    # deleting the window hash, or claiming the hash-free format 3, does not
    # let the swap load
    manifest_path = exc / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["windows_sha256"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="the manifest lacks windows_sha256"):
        load_excitation(exc)
    manifest_path.write_text(json.dumps({**manifest, "format_version": 3}))
    with pytest.raises(ValueError, match="format 3; only format 4"):
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
        ("window_bonds", [0] * 10, "n = 1 does not fit"),
        ("n", "1", "the manifest's n should be of type int, not '1'"),
        ("ground_state", 7, "the manifest's ground_state should be of type str, not 7"),
        ("window_bonds", {}, "the manifest's window_bonds should be of type list"),
    ):
        manifest_path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ValueError, match=message):
            load_excitation(exc)


def test_excitation_archive_rejects_a_missing_key_or_a_truncated_blob(tmp_path):
    exc = _saved_excitation(tmp_path)
    manifest_path = exc / "manifest.json"
    good = json.loads(manifest_path.read_text())
    for key in ("ground_state", "n", "L", "d", "window_bonds"):
        manifest_path.write_text(json.dumps({k: v for k, v in good.items() if k != key}))
        with pytest.raises(ValueError, match=f"the manifest lacks {key}"):
            load_excitation(exc)
    manifest_path.write_text(json.dumps(good))
    blob = exc / "t_3_1.ten"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"t_3_1\.ten: the blob is truncated"):
        load_excitation(exc)
