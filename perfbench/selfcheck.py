"""Show that every correctness check passes on true values and rejects a perturbed one.

Usage, from the repository root (takes a few seconds)::

    python3 perfbench/selfcheck.py

Runs the benchmark pipeline on tiny Heisenberg and Haldane-Shastry chains,
feeds each check in ``checks.py`` the true values, then the same values
with one of them nudged. Exits 0 when every check accepts the first and
rejects the second, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import kdmps.mpo as kmpo  # noqa: E402
import kdmps.mps as kmps  # noqa: E402

import checks  # noqa: E402
import pipeline  # noqa: E402

HEIS = pipeline.Workload("tiny-heis", "heisenberg", L=8, D=4, n_max=4, excite_ns=(),
                         variance_check="nearest", variance_ceiling=1.0)
HS = pipeline.Workload("tiny-hs", "haldane_shastry", L=8, D=16, n_max=8, excite_ns=(1,),
                       variance_check="complete", variance_ceiling=1.0, energy_gap=1e-6, excite_gap=1e-6)
# D=4 leaves a variance well above round-off for the variance checks to bite on
HS_VAR = pipeline.Workload("tiny-hs-d4", "haldane_shastry", L=8, D=4, n_max=8, excite_ns=(),
                           variance_check="complete", variance_ceiling=1.0, energy_gap=0.1)


def tiny_rep(wl: pipeline.Workload) -> dict:
    workdir = HERE / "_work" / f"selfcheck-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _, out = pipeline.run_rep(wl, 7, workdir, pipeline.Ops())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def flipflop_mpo(L: int, sign: float) -> list[np.ndarray]:
    """Nearest-neighbour Sx Sx + sign Sy Sy + Sz Sz as real MPO arrays.

    With iSy = [[0, 1/2], [-1/2, 0]] real, Sy Sy = -(iSy)(iSy); sign = -1 gives
    the flip-flop part with the wrong sign.
    """
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    isy = np.array([[0.0, 0.5], [-0.5, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    w = np.zeros((5, 2, 2, 5))
    w[0, :, :, 0] = w[4, :, :, 4] = np.eye(2)
    w[4, :, :, 1], w[4, :, :, 2], w[4, :, :, 3] = sx, isy, sz
    w[1, :, :, 0], w[2, :, :, 0], w[3, :, :, 0] = sx, -sign * isy, sz
    return [w[4:5]] + [w] * (L - 2) + [w[:, :, :, 0:1]]


def variance_inputs(out: dict) -> dict:
    h, psi, report = out["h"], out["psi"], out["report"]
    ws = [t.data for t in h.sites]
    kets = [t.data for t in psi.plain_sites()]
    energy = checks.transfer_expectation(kets, ws)
    return {
        "values": report.values.copy(),
        "energy": energy,
        "var_transfer": checks.transfer_second_moment(kets, ws) - energy**2,
        "total_dense": report.total_dense,
    }


def bumped(values: np.ndarray, index: int, new: float) -> np.ndarray:
    out = values.copy()
    out[index] = new
    return out


def cases():
    heis, hs, hs_var = tiny_rep(HEIS), tiny_rep(HS), tiny_rep(HS_VAR)
    for wl, out, nudge in (
        (HEIS, heis, {"variance_ceiling": 0.0}),
        (HS, hs, {"excite_gap": 0.0}),
        (HS_VAR, hs_var, {"variance_ceiling": 0.0}),
    ):
        yield f"pipeline checks, {wl.name}", pipeline.check_rep(wl, out), pipeline.check_rep(replace(wl, **nudge), out)

    h = hs["h"]
    rng = np.random.Generator(np.random.PCG64(3))
    vecs = [v / np.linalg.norm(v) for v in rng.standard_normal((HS.L, 2))]
    got = kmpo.expectation(kmps.product_mps(HS.L, 2, vecs), h)
    want = checks.product_pair_energy(checks.pair_couplings(HS.model, HS.L), vecs)
    yield "MPO pair sum", checks.check_mpo_states([(got, want)]), checks.check_mpo_states([(got * (1 + 1e-8), want)])
    heis_on_hs = checks.product_pair_energy(checks.pair_couplings("heisenberg", HS.L), vecs)
    yield "MPO pair sum, wrong model", [], checks.check_mpo_states([(got, heis_on_hs)])

    amps = [(float(np.cos(t)), float(np.sin(t))) for t in rng.uniform(0.0, 2.0 * np.pi, HS.L // 2)]
    got = kmpo.expectation(pipeline.dimer_mps(HS.L, amps), h)
    want = checks.dimer_pair_energy(checks.pair_couplings(HS.model, HS.L), HS.L, amps)
    yield "MPO dimer state", checks.check_mpo_states([(got, want)]), checks.check_mpo_states([(got * (1 + 1e-8), want)])
    nn = checks.pair_couplings("heisenberg", HS.L)
    wrong = flipflop_mpo(HS.L, -1.0)
    yield "MPO with Sx Sx - Sy Sy: product states pass it, a dimer state does not", checks.check_mpo_states(
        [(checks.transfer_expectation([v.reshape(1, 2, 1) for v in vecs], wrong), checks.product_pair_energy(nn, vecs))]
    ), checks.check_mpo_states(
        [(checks.transfer_expectation(checks.dimer_chain(HS.L, amps), wrong), checks.dimer_pair_energy(nn, HS.L, amps))]
    )

    e = hs["gs"].energy
    yield "HS energy below exact", checks.check_hs_energy(e, HS.L, HS.energy_gap), checks.check_hs_energy(
        checks.hs_ground_energy(HS.L) - 1e-8, HS.L, HS.energy_gap
    )
    yield "HS energy gap", [], checks.check_hs_energy(e + 2 * HS.energy_gap, HS.L, HS.energy_gap)

    e_transfer = variance_inputs(hs)["energy"]
    yield "energy vs transfer", checks.check_energy_transfer(e, e_transfer), checks.check_energy_transfer(
        e + 1e-9, e_transfer
    )

    hv = variance_inputs(heis)

    def nearest(**kw):
        return checks.check_variance(kind="nearest", **{**hv, **kw})

    vals = hv["values"]
    yield "variance nearest: sum", nearest(), nearest(values=bumped(vals, 1, vals[1] * 1.01))
    yield "variance nearest: n>=3 vanishes", [], nearest(values=bumped(vals, 2, 1e-12))
    yield "variance nearest: no negative piece", [], nearest(values=bumped(vals, 3, -1e-20))

    v = variance_inputs(hs_var)

    def complete(**kw):
        return checks.check_variance(kind="complete", **{**v, **kw})

    yield "variance complete: transfer", complete(), complete(var_transfer=v["var_transfer"] * 1.001)
    yield "variance complete: dense total", [], complete(total_dense=v["total_dense"] * (1 + 1e-6))
    yield "variance ceiling", [], complete(ceiling=0.5 * float(v["values"].sum()))

    partial = {**v, "values": v["values"][:3]}
    yield "variance partial", checks.check_variance(kind="partial", **partial), checks.check_variance(
        kind="partial", **{**partial, "var_transfer": 0.5 * float(partial["values"].sum())}
    )

    _, res, _, _ = hs["excitations"][0]
    left = [t.data for t in res.state.bases.left]
    right = [t.data for t in res.state.bases.right]
    windows = [[t.data for t in chain] for chain in res.state.windows]
    ws = [t.data for t in h.sites]
    x = checks.excitation_vector(left, right, windows)
    gs_vec = checks.dense_vector([t.data for t in hs["psi"].plain_sites()])
    gs_vec /= np.linalg.norm(gs_vec)
    hx = checks.dense_apply_mpo(ws, x)
    true = dict(
        L=HS.L,
        energy=res.energy,
        rayleigh=float(x @ hx) / float(x @ x),
        converged=res.converged,
        residual=checks.excitation_residual(left, right, 1, gs_vec, x, hx),
        tol=pipeline.EXCITE_TOL,
        gauge_defect=pipeline.gauge_defect(left, windows),
        overlap=abs(float(gs_vec @ x)) / float(np.linalg.norm(x)),
        gap=HS.excite_gap,
    )
    yield "excitation", checks.check_excitation(**true), checks.check_excitation(**{**true, "converged": False})
    for key, value in (
        ("residual", 1e-6),
        ("gauge_defect", 1e-8),
        ("overlap", 1e-6),
        ("rayleigh", res.energy + 1e-6),
    ):
        yield f"excitation {key}", [], checks.check_excitation(**{**true, key: value})
    kick = checks.project_excitation_space(left, right, 1, gs_vec, np.random.Generator(np.random.PCG64(5)).standard_normal(x.size))
    x2 = x + 1e-6 * np.linalg.norm(x) / np.linalg.norm(kick) * kick
    yield "excitation residual of a nudged vector", [], checks.check_excitation(
        **{**true, "residual": checks.excitation_residual(left, right, 1, gs_vec, x2, checks.dense_apply_mpo(ws, x2))}
    )
    shifted = {**true, "energy": res.energy + 1e-3, "rayleigh": true["rayleigh"] + 1e-3}
    yield "excitation gap", [], checks.check_excitation(**shifted)
    tilted = [[a.copy() for a in chain] for chain in windows]
    tilted[0][0] += 1e-6 * left[0]  # n = 1: the first window slot has A_1's shape
    yield "gauge defect of a tilted branch", [], checks.check_excitation(
        **{**true, "gauge_defect": pipeline.gauge_defect(left, tilted)}
    )

    arrays = [t.data for t in hs["psi"].sites]
    nudged = [a.copy() for a in arrays]
    nudged[3].flat[0] = np.nextafter(nudged[3].flat[0], np.inf)
    yield "archive round trip", checks.check_arrays_equal("archive", arrays, [a.copy() for a in arrays]), (
        checks.check_arrays_equal("archive", arrays, nudged)
    )


def main() -> int:
    ok = True
    for label, accepted, rejected in cases():
        passes = accepted == []
        rejects = rejected != []
        ok &= passes and rejects
        status = "ok" if passes and rejects else "FAIL"
        print(f"{status:4s} {label}: true values {'accepted' if passes else accepted}; "
              f"perturbed {'rejected' if rejected else 'accepted'}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
