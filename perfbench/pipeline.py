"""The benchmark's workloads and one repetition of the kdmps pipeline.

A repetition runs ``kdmps gs -> variance [-> excite]`` the way the command
line would, in library calls: build the model MPO and a seeded random MPS,
find the ground state with the settings ``kdmps gs`` uses, write and read
the MPS archive, take the n-site variance of the loaded state and, on
``hs12-pipeline``, solve for the lowest n=1 and n=2 excitations, write each
to an excitation archive and read it back from another working directory.
Every kdmps function is looked up through its module at call time, so a
tracer that swaps module attributes sees the calls.

Correctness checks run after the timed part of each repetition and use
only ``checks.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import kdmps.dmrg as kdmrg
import kdmps.excitation as kexc
import kdmps.mpo as kmpo
import kdmps.mps as kmps
import kdmps.variance as kvar
from kdmps.tensor import Tensor, TruncationPolicy

import checks

# `kdmps gs` defaults: two-site sweeps, at most 12 of them, energy change
# below 1e-10 between sweeps, singular values kept down to 1e-13 relative.
GS_SWEEPS = 12
GS_CONV_TOL = 1e-10
GS_REL_CUTOFF = 1e-13
EXCITE_TOL = 1e-10  # `kdmps excite` passes --conv-tol, default 1e-10
PRODUCT_STATES = 3  # random product states per repetition for the MPO check (plus one dimer state)


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; the seed picks the random states.

    ``energy_gap``/``excite_gap`` bound how far the Haldane-Shastry ground
    and first excited energies may sit from the closed forms at this bond
    dimension; ``variance_check`` names the identity the variance pieces
    must satisfy (see :func:`checks.check_variance`).
    """

    name: str
    model: str
    L: int
    D: int
    n_max: int
    excite_ns: tuple[int, ...]
    variance_check: str
    variance_ceiling: float
    energy_gap: float | None = None
    excite_gap: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heis-dmrg", "heisenberg", L=20, D=64, n_max=4, excite_ns=(),
                 variance_check="nearest", variance_ceiling=1e-9),
        Workload("hs12-pipeline", "haldane_shastry", L=12, D=32, n_max=6, excite_ns=(1, 2),
                 variance_check="complete", variance_ceiling=1e-4, energy_gap=1e-5, excite_gap=1e-5),
        Workload("hs24-longrange", "haldane_shastry", L=14, D=16, n_max=8, excite_ns=(),
                 variance_check="partial", variance_ceiling=0.05, energy_gap=0.02),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """A per-repetition seed, so each run samples the same mix of inputs."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0] & 0x7FFFFFFF)


def build_mpo(wl: Workload):
    if wl.model == "heisenberg":
        return kmpo.heisenberg_mpo(wl.L)
    return kmpo.haldane_shastry_mpo(wl.L)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Ops:
    """Counts the operations a repetition attempts and the ones that fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def run_may_fail(self, expected: type[BaseException], fn, *args, **kwargs):
        """Run ``fn``; an ``expected`` exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except expected as exc:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None


def run_rep(wl: Workload, seed: int, workdir: Path, ops: Ops) -> tuple[dict, dict]:
    """One timed pipeline repetition in ``workdir`` (made the working
    directory while it runs, as for a command-line user).

    Returns the end-to-end timings and what the checks need.
    """
    times: dict[str, float] = {}
    out: dict = {}
    home = os.getcwd()
    os.chdir(workdir)
    try:
        t0 = perf_counter()
        h = ops.run(build_mpo, wl)
        psi0 = ops.run(kmps.random_mps, wl.L, 2, bond_cap=wl.D, seed=seed)
        t1 = perf_counter()
        opts = kdmrg.DmrgOptions(
            n_sweeps=GS_SWEEPS,
            policy=TruncationPolicy(max_rank=wl.D, rel_cutoff=GS_REL_CUTOFF),
            conv_tol=GS_CONV_TOL,
        )
        gs = ops.run(kdmrg.dmrg_ground_state, psi0, h, "2s", opts)
        t2 = perf_counter()
        ops.run(kmps.save_mps, gs.psi, "gs_mps")
        psi = ops.run(kmps.load_mps, "gs_mps")
        t3 = perf_counter()
        report = ops.run(kvar.nsite_variance, psi, h, wl.n_max)
        t4 = perf_counter()
        excitations = []
        for n in wl.excite_ns:
            res = ops.run(kexc.solve_lowest_excitation, psi, h, n, kexc.ExcitationOptions(seed=seed, tol=EXCITE_TOL))
            archive = Path(f"excitation_n{n}")
            ops.run(kexc.save_excitation, res.state, archive, gs_path="gs_mps", extra={"E_ex": res.energy})
            elsewhere = Path(f"elsewhere_n{n}")
            elsewhere.mkdir(exist_ok=True)
            os.chdir(elsewhere)
            try:
                loaded = ops.run_may_fail(FileNotFoundError, kexc.load_excitation, Path("..") / archive)
            finally:
                os.chdir(workdir)
            excitations.append((n, res, loaded, dir_bytes(archive)))
        t5 = perf_counter()
    finally:
        os.chdir(home)
    times.update(
        setup_s=t1 - t0,
        gs_s=t2 - t1,
        variance_s=t4 - t3,
        total_s=t5 - t0,
    )
    out.update(
        h=h,
        gs=gs,
        psi=psi,
        report=report,
        excitations=excitations,
        seed=seed,
        mpo_max_bond=max(h.bond_dims),
        mps_archive_bytes=dir_bytes(workdir / "gs_mps"),
    )
    return times, out


def check_rep(wl: Workload, out: dict) -> list[str]:
    """Every correctness check on one repetition's outputs."""
    h, gs, psi, report = out["h"], out["gs"], out["psi"], out["report"]
    ws = [t.data for t in h.sites]
    fails: list[str] = []

    rng = np.random.Generator(np.random.PCG64(out["seed"]))
    couplings = checks.pair_couplings(wl.model, wl.L)
    pairs = []
    for _ in range(PRODUCT_STATES):
        vecs = [v / np.linalg.norm(v) for v in rng.standard_normal((wl.L, 2))]
        pairs.append((kmpo.expectation(kmps.product_mps(wl.L, 2, vecs), h), checks.product_pair_energy(couplings, vecs)))
    angles = rng.uniform(0.0, 2.0 * np.pi, wl.L // 2)
    amps = [(float(np.cos(t)), float(np.sin(t))) for t in angles]
    pairs.append((kmpo.expectation(dimer_mps(wl.L, amps), h), checks.dimer_pair_energy(couplings, wl.L, amps)))
    fails += checks.check_mpo_states(pairs)

    if not gs.converged:
        fails.append(f"ground state not converged after {gs.n_sweeps} sweeps")
    kets = [t.data for t in psi.plain_sites()]
    e_transfer = checks.transfer_expectation(kets, ws)
    fails += checks.check_energy_transfer(gs.energy, e_transfer)
    fails += checks.check_energy_transfer(report.energy, e_transfer)
    if wl.energy_gap is not None:
        fails += checks.check_hs_energy(gs.energy, wl.L, wl.energy_gap)
    fails += checks.check_arrays_equal("MPS archive", [t.data for t in gs.psi.sites], [t.data for t in psi.sites])

    var_transfer = checks.transfer_second_moment(kets, ws) - e_transfer**2
    fails += checks.check_variance(
        report.values, e_transfer, var_transfer, wl.variance_check, report.total_dense, wl.variance_ceiling
    )

    if out["excitations"]:
        bases = out["excitations"][0][1].state.bases  # the gauge every excitation shares
        left = [t.data for t in bases.left]
        right = [t.data for t in bases.right]
        gs_vec = checks.dense_vector(kets)
        gs_vec /= np.linalg.norm(gs_vec)
    for n, res, loaded, _ in out["excitations"]:
        windows = [[t.data for t in chain] for chain in res.state.windows]
        x = checks.excitation_vector(left, right, windows)
        xn = float(np.linalg.norm(x))
        hx = checks.dense_apply_mpo(ws, x)
        fails += checks.check_excitation(
            L=wl.L,
            energy=res.energy,
            rayleigh=float(x @ hx) / xn**2,
            converged=res.converged,
            residual=checks.excitation_residual(left, right, n, gs_vec, x, hx),
            tol=EXCITE_TOL,
            gauge_defect=gauge_defect(left, windows),
            overlap=abs(float(gs_vec @ x)) / xn,
            gap=wl.excite_gap,
        )
        if loaded is not None:
            fails += checks.check_arrays_equal(
                f"excitation archive n={n}",
                [a for chain in windows for a in chain],
                [t.data for chain in loaded[0].windows for t in chain],
            )
    return fails


def dimer_mps(L: int, amps: list[tuple[float, float]]):
    """The dimer product state of :func:`checks.dimer_chain` as a kdmps Mps."""
    sites = [
        Tensor(a, (kmps.virt(l - 1), kmps.phys(l), kmps.virt(l)))
        for l, a in enumerate(checks.dimer_chain(L, amps), start=1)
    ]
    return kmps.Mps(tuple(sites))


def gauge_defect(left: list[np.ndarray], windows: list[list[np.ndarray]]) -> float:
    """Largest kept component A_l^T T^l_1 over the non-anchor branches."""
    dev = 0.0
    for l, chain in enumerate(windows[:-1], start=1):
        a, t1 = left[l - 1], chain[0]
        kept = a.reshape(-1, a.shape[2]).T @ t1.reshape(-1, t1.shape[2])
        if kept.size:
            dev = max(dev, float(np.max(np.abs(kept))))
    return dev
