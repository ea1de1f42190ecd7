"""Acceptance suite: one test per release criterion, at pinned tolerances.

Every test prints a single pass line on success (run with ``-s`` or ``-rA``
to see them); a failure surfaces through the assertion itself. Protocol
parameters (seeds, sweep counts, truncation policies) are pinned so the
whole suite is reproducible run to run.
"""

import time

import numpy as np
import numpy.testing as npt

from kdmps.dmrg import DmrgOptions, dmrg_ground_state
from kdmps.ed import (
    dense_hamiltonian,
    dense_rank,
    dense_state,
    exact_spectrum,
    verify_identity_suite,
)
from kdmps.excitation import (
    ExcitationOptions,
    apply_projected_h,
    flatten,
    materialize,
    solve_lowest_excitation,
    state_from_flat,
)
from kdmps.mpo import (
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_first_excited_energy,
    hs_ground_energy,
    mpo_shift,
)
from kdmps.mps import random_mps
from kdmps.projectors import build_bases, dense_projector, expand_global, expand_irreducible, subspace_dimension
from kdmps.tensor import TruncationPolicy
from kdmps.variance import nsite_variance
from state_helpers import random_excitation


def report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS - {text}", flush=True)


def converged_ground_state(h, L, D, seed, rel_cutoff=1e-13, sweeps=16, conv_tol=1e-12):
    opts = DmrgOptions(
        n_sweeps=sweeps,
        policy=TruncationPolicy(max_rank=D, rel_cutoff=rel_cutoff),
        conv_tol=conv_tol,
    )
    return dmrg_ground_state(random_mps(L, 2, bond_cap=min(D, 16), seed=seed), h, "2s", opts)


def test_criterion_01_identity_suite_randomized():
    """20 seed-listed random states, L in 3..6, D in 1..3: every identity
    holds densely to 1e-10, within 60 s."""
    cases = [
        (3, 1, 101), (3, 2, 102), (3, 2, 103), (3, 3, 104), (3, 3, 105),
        (4, 1, 106), (4, 2, 107), (4, 2, 108), (4, 3, 109), (4, 3, 110),
        (5, 1, 111), (5, 2, 112), (5, 2, 113), (5, 3, 114), (5, 3, 115),
        (6, 1, 116), (6, 2, 117), (6, 2, 118), (6, 3, 119), (6, 3, 120),
    ]
    t0 = time.time()
    worst = 0.0
    for i, (L, D, seed) in enumerate(cases):
        psi = random_mps(L, 2, bond_cap=D, seed=seed)
        h = heisenberg_mpo(L) if i % 2 == 0 else haldane_shastry_mpo(L)
        rep = verify_identity_suite(psi, h, tol=1e-10)
        assert rep.all_passed, f"(L={L}, D={D}, seed={seed}) failures:\n{rep}"
        worst = max(worst, max(rep.checks.values()))
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"identity sweep took {elapsed:.1f}s"
    report(1, f"20 states, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_irreducible_completeness():
    """The irreducible family sums to the identity and is pairwise
    orthogonal, densely, to 1e-10, for L up to 6."""
    worst = 0.0
    for L, D, seed in ((4, None, 7), (5, 2, 8), (6, 3, 9)):
        kept = build_bases(random_mps(L, 2, bond_cap=D, seed=seed))
        mats = [dense_projector(expand_irreducible(n, L), kept) for n in range(L + 1)]
        dev = float(np.max(np.abs(sum(mats) - np.eye(2**L))))
        for n in range(L + 1):
            for m in range(L + 1):
                want = mats[n] if n == m else 0.0
                dev = max(dev, float(np.max(np.abs(mats[n] @ mats[m] - want))))
        assert dev <= 1e-10, f"L={L}: deviation {dev:.2e}"
        worst = max(worst, dev)
    report(2, f"partition of unity + orthogonality, worst deviation {worst:.2e}")


def test_criterion_03_dimension_bookkeeping():
    """Closed-form subspace dimensions match dense projector ranks exactly,
    and total d^L, for the maximal and capped L=4 profiles."""
    kept = build_bases(random_mps(4, 2, bond_cap=None, seed=11))
    dims = [subspace_dimension(kept, n) for n in range(5)]
    assert dims == [1, 15, 0, 0, 0]
    ranks = [dense_rank(dense_projector(expand_irreducible(n, 4), kept)) for n in range(5)]
    assert ranks == dims and sum(dims) == 16

    kept = build_bases(random_mps(4, 2, bond_cap=2, seed=12))
    assert kept.dims == (1, 2, 2, 2, 1)
    dims = [subspace_dimension(kept, n) for n in range(5)]
    assert dims == [1, 11, 4, 0, 0]
    ranks = [dense_rank(dense_projector(expand_irreducible(n, 4), kept)) for n in range(5)]
    assert ranks == dims and sum(dims) == 16
    report(3, "dimension tables (1,15,0,0,0) and (1,11,4,0,0) match ranks exactly")


def test_criterion_04_variance_decomposition_and_shift():
    """Per-n defect pieces sum to the dense squared defect to 1e-10, and an
    energy shift c in {-10, 10} moves no piece by more than 1e-10 relative."""
    L = 6
    worst_sum = worst_shift = 0.0
    for model, h in (("nn", heisenberg_mpo(L)), ("ring", haldane_shastry_mpo(L))):
        for seed in (31, 32):
            psi = random_mps(L, 2, bond_cap=3, seed=seed)
            base = nsite_variance(psi, h, L)
            scale = max(1.0, base.total_dense)
            dev = abs(float(np.sum(base.values)) - base.total_dense) / scale
            assert dev <= 1e-10, f"{model} seed {seed}: sum deviation {dev:.2e}"
            worst_sum = max(worst_sum, dev)
            floor = 1e-12 * scale
            for c in (-10.0, 10.0):
                shifted = nsite_variance(psi, mpo_shift(h, c), L)
                rel = np.max(np.abs(shifted.values - base.values) / np.maximum(base.values, floor))
                assert rel <= 1e-10, f"{model} seed {seed} shift {c}: {rel:.2e}"
                worst_shift = max(worst_shift, rel)
    report(4, f"sum deviation {worst_sum:.2e}, shift sensitivity {worst_shift:.2e}")


def test_criterion_05_nearest_neighbor_kill_rule():
    """Converged nearest-neighbor ground state at L=12, D=32: every n > 2
    defect piece is below 1e-12 of the 2-site piece, within 5 minutes."""
    t0 = time.time()
    h = heisenberg_mpo(12)
    r = converged_ground_state(h, 12, 32, seed=3, sweeps=14)
    rep = nsite_variance(r.psi, h, 6)
    assert rep.values[1] > 0.0
    for n in range(3, 7):
        assert rep.values[n - 1] <= 1e-12 * rep.values[1], (
            f"n={n}: {rep.values[n - 1]:.2e} vs 1e-12 * {rep.values[1]:.2e}"
        )
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report(5, f"max n>2 piece {max(rep.values[2:]):.2e} vs 2-site {rep.values[1]:.2e}, {elapsed:.0f}s")


def test_criterion_06_ring_model_two_site_dominance():
    """Ring model at L=12, D in {16, 32, 64}: the 2-site piece dominates,
    every n > 2 piece sits at least an order of magnitude below it, and the
    dominance grows with D. Runs use a 3e-6 discard cutoff so the D=64
    point stays in the truncation-limited regime (at the maximal profile
    the n >= 2 spaces are empty by dimension counting); values below the
    1e-24 numerical floor count as converged zeros."""
    t0 = time.time()
    h = haldane_shastry_mpo(12)
    noise_floor = 1e-24
    ratios = []
    for D in (16, 32, 64):
        r = dmrg_ground_state(
            random_mps(12, 2, bond_cap=16, seed=1),
            h,
            "2s",
            DmrgOptions(n_sweeps=20, policy=TruncationPolicy(max_rank=D, rel_cutoff=3e-6), conv_tol=1e-13),
        )
        rep = nsite_variance(r.psi, h, 6)
        vals = np.where(rep.values < noise_floor, 0.0, rep.values)
        assert vals[1] > 0.0, f"D={D}: no 2-site signal"
        assert vals[1] == max(vals), f"D={D}: 2-site piece not dominant: {vals}"
        for n in range(3, 7):
            assert vals[n - 1] <= vals[1] / 10.0, f"D={D}, n={n}: {vals[n-1]:.2e} vs {vals[1]:.2e}"
        ratios.append(float(max(vals[2:]) / vals[1]))
    for earlier, later in zip(ratios, ratios[1:]):
        assert later <= earlier + 1e-15, f"dominance not growing with D: {ratios}"
    elapsed = time.time() - t0
    assert elapsed <= 900.0
    report(6, f"n>2 to 2-site ratios over D: {['%.1e' % r for r in ratios]}, {elapsed:.0f}s")


def test_criterion_07_exact_ring_energies():
    """Dense spectra at L=8 hit the closed-form energies to 1e-8; DMRG at
    D=32 reproduces the ground value to 1e-6."""
    h = haldane_shastry_mpo(8)
    vals = exact_spectrum(dense_hamiltonian(h), 2)
    npt.assert_allclose(vals[0], -3.546889082, atol=1e-8)
    npt.assert_allclose(vals[1], -2.930038810, atol=1e-8)
    npt.assert_allclose(vals[0], hs_ground_energy(8), atol=1e-8)
    npt.assert_allclose(vals[1], hs_first_excited_energy(8), atol=1e-8)
    r = converged_ground_state(h, 8, 32, seed=5)
    assert abs(r.energy - hs_ground_energy(8)) <= 1e-6
    report(7, f"dense E0/E1 match formulas; DMRG E0 off by {abs(r.energy - hs_ground_energy(8)):.2e}")


def test_criterion_08_excitation_solver_correctness():
    """The window eigensolver hits the dense first-excited energy to 1e-6
    at representation-complete D (L=6 and 8); the projected operator equals
    the dense restriction to 1e-10 on every window basis vector at L=5."""
    for L, D in ((6, 8), (8, 32)):
        h = haldane_shastry_mpo(L)
        gs = converged_ground_state(h, L, D, seed=2)
        res = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(tol=1e-9, seed=0))
        want = exact_spectrum(dense_hamiltonian(h), 2)[1]
        assert abs(res.energy - want) <= 1e-6, f"L={L}: {res.energy} vs {want}"

    L = 5
    kept = build_bases(random_mps(L, 2, bond_cap=2, seed=21))
    h = haldane_shastry_mpo(L)
    hm = dense_hamiltonian(h)
    worst = 0.0
    for n in (1, 2):
        proj = dense_projector(expand_global(n, L), kept)
        php = proj @ hm @ proj
        probe = random_excitation(kept, n, seed=0)
        total = flatten(probe).shape[0]
        for k in range(total):
            unit = np.zeros(total)
            unit[k] = 1.0
            basis_state = state_from_flat(kept, n, unit)
            got = dense_state(materialize(apply_projected_h(basis_state, h)))
            want = php @ dense_state(materialize(basis_state))
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-10, f"n={n}: operator mismatch {worst:.2e}"
    report(8, f"energies exact at L=6/8; operator matrix deviation {worst:.2e}")


def test_criterion_09_excitation_beats_constrained_dmrg():
    """Ring model at L=12: the 1-site window solver beats orthogonal-sector
    DMRG at every D in {8, 16, 32}, by at least one order of magnitude at
    one D point, and widening the window does not hurt. Pinned seeds."""
    t0 = time.time()
    h = haldane_shastry_mpo(12)
    e1 = hs_first_excited_energy(12)
    err_exc, err_dmrg = {}, {}
    gs_by_d = {}
    for D in (8, 16, 32):
        gs = converged_ground_state(h, 12, D, seed=1)
        gs_by_d[D] = gs
        exc = solve_lowest_excitation(gs.psi, h, 1, ExcitationOptions(tol=1e-9, seed=0))
        dmrg_ex = dmrg_ground_state(
            random_mps(12, 2, bond_cap=min(D, 16), seed=4),
            h,
            "2s",
            DmrgOptions(
                n_sweeps=16,
                policy=TruncationPolicy(max_rank=D, rel_cutoff=1e-13),
                conv_tol=1e-12,
                orthogonal_to=(gs.psi,),
            ),
        )
        err_exc[D] = abs(exc.energy - e1) / abs(e1)
        err_dmrg[D] = abs(dmrg_ex.energy - e1) / abs(e1)
        assert err_exc[D] < err_dmrg[D], f"D={D}: {err_exc[D]:.2e} vs {err_dmrg[D]:.2e}"
    best_ratio = max(err_dmrg[D] / err_exc[D] for D in (8, 16, 32))
    assert best_ratio >= 10.0, f"largest advantage {best_ratio:.1f} below one order of magnitude"

    gs32 = gs_by_d[32]
    e_n1 = solve_lowest_excitation(gs32.psi, h, 1, ExcitationOptions(tol=1e-9, seed=0)).energy
    e_n2 = solve_lowest_excitation(gs32.psi, h, 2, ExcitationOptions(tol=1e-9, seed=0)).energy
    err1 = abs(e_n1 - e1) / abs(e1)
    err2 = abs(e_n2 - e1) / abs(e1)
    assert err2 <= err1 + 1e-12, f"wider window worse: {err2:.2e} vs {err1:.2e}"
    elapsed = time.time() - t0
    assert elapsed <= 1800.0
    report(
        9,
        f"errors exc {['%.1e' % err_exc[D] for D in (8, 16, 32)]} vs dmrg "
        f"{['%.1e' % err_dmrg[D] for D in (8, 16, 32)]}, best ratio {best_ratio:.1f}, "
        f"n=2 error {err2:.1e}, {elapsed:.0f}s",
    )


def test_criterion_10_overlap_and_addition_algebra():
    """Window overlaps and sums agree with dense materialization to 1e-10
    on chains up to L=6 for windows of 1 to 3 sites."""
    worst = 0.0
    for L in (4, 5, 6):
        kept = build_bases(random_mps(L, 2, bond_cap=2, seed=40 + L))
        for n in (1, 2, 3):
            x = random_excitation(kept, n, seed=1)
            y = random_excitation(kept, n, seed=2)
            vx = dense_state(materialize(x))
            vy = dense_state(materialize(y))
            dev = abs(float(flatten(x) @ flatten(y)) - float(vx @ vy))
            z = state_from_flat(kept, n, flatten(x) - 0.6 * flatten(y))
            dev = max(dev, float(np.max(np.abs(dense_state(materialize(z)) - (vx - 0.6 * vy)))))
            assert dev <= 1e-10, f"L={L}, n={n}: {dev:.2e}"
            worst = max(worst, dev)
    report(10, f"overlap/addition vs dense, worst deviation {worst:.2e}")
