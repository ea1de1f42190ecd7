"""Command-line entry point: ground states, variance scans, excitations.

Subcommands::

    kdmps gs        optimize a ground state and write an MPS archive
    kdmps variance  n-site variance of a stored state, written as CSV
    kdmps excite    lowest window-form excitation above a stored state
    kdmps check     dense verification of the projector identity suite
    kdmps ed        dense spectrum of a model (small chains only)

Options may come from a JSON config file (--config) and/or flags; flags
take precedence over file values, which take precedence over defaults.
All runs echo their effective configuration into the output manifest, and
identical seeds reproduce identical outputs. Exit codes: 0 success,
2 usage/validation/guard error or a malformed archive, 3 numerical
non-convergence.

Floating-point output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .dmrg import DmrgOptions, dmrg_ground_state
from .ed import dense_hamiltonian, exact_spectrum, guard_dims, verify_identity_suite
from .excitation import ExcitationOptions, apply_projected_h, flatten, save_excitation, solve_lowest_excitation
from .mpo import (
    Mpo,
    haldane_shastry_mpo,
    heisenberg_mpo,
    hs_first_excited_energy,
    hs_ground_energy,
    s2_total_mpo,
    sz_total_mpo,
)
from .mps import Mps, load_mps, random_mps, save_mps
from .tensor import TruncationPolicy
from .variance import nsite_variance, write_variance_csv

MODELS = ("heisenberg", "haldane_shastry")
EXCITE_N_CAP = 4  # window cost grows as d^n; larger windows need other tools
VARIANCE_N_CAP = 10
EXCITE_HELP = (
    "Lowest window-form excitation above a stored state. sz_total and s2_total are the expectation "
    "values <S^z> and <S^2> of the returned vector; inside a degenerate level they are not sector labels."
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters (echoed verbatim into run manifests)."""

    model: str = "heisenberg"
    L: int = 8
    D_cap: int = 16
    seed: int = 0
    sweeps: int = 12
    conv_tol: float = 1e-10
    variance_n_max: int | None = None  # default: min(L, 6)
    excitation_n: int = 1
    output_dir: str = "runs"

    @property
    def effective_variance_n_max(self) -> int:
        if self.variance_n_max is not None:
            return self.variance_n_max
        return min(self.L, 6)

    def validate(self) -> None:
        for name in ("L", "D_cap", "seed", "sweeps", "excitation_n", "variance_n_max"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "variance_n_max" and value is None):  # bool is not int here
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if type(self.conv_tol) not in (int, float):  # bool is not a number here
            raise ValueError(f"conv_tol must be a real number, got {self.conv_tol!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.L < 2:
            raise ValueError("length must be at least 2")
        if self.D_cap < 1:
            raise ValueError("bond dimension cap must be positive")
        if self.sweeps < 1:
            raise ValueError("sweep count must be positive")
        if not 0.0 < self.conv_tol < 1.0:
            raise ValueError("convergence tolerance must lie in (0, 1)")
        if not 1 <= self.effective_variance_n_max <= min(self.L, VARIANCE_N_CAP):
            raise ValueError(f"variance n_max must lie in [1, {min(self.L, VARIANCE_N_CAP)}]")
        if not 1 <= self.excitation_n <= EXCITE_N_CAP:
            raise ValueError(f"excitation window must lie in [1, {EXCITE_N_CAP}]")


def build_model_mpo(config: RunConfig) -> Mpo:
    if config.model == "heisenberg":
        return heisenberg_mpo(config.L)
    return haldane_shastry_mpo(config.L)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: a config file holds one JSON object, not a {type(loaded).__name__}")
        values.update(loaded)
    overrides = {
        "model": args.model,
        "L": args.length,
        "D_cap": args.bond_dim,
        "seed": args.seed,
        "sweeps": getattr(args, "sweeps", None),
        "conv_tol": getattr(args, "conv_tol", None),
        "variance_n_max": getattr(args, "n_max", None),
        "excitation_n": getattr(args, "excite_n", None),
        "output_dir": args.out,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**values)
    config.validate()
    return config


def cmd_gs(config: RunConfig) -> int:
    h = build_model_mpo(config)
    psi0 = random_mps(config.L, h.d, bond_cap=config.D_cap, seed=config.seed)
    opts = DmrgOptions(
        n_sweeps=config.sweeps,
        policy=TruncationPolicy(max_rank=config.D_cap, rel_cutoff=1e-13),
        conv_tol=config.conv_tol,
    )
    result = dmrg_ground_state(psi0, h, "2s", opts)
    out = Path(config.output_dir)
    save_mps(result.psi, out / "gs_mps")
    manifest = {
        "config": asdict(config),
        "model": config.model,
        "L": config.L,
        "d": h.d,
        "D_cap": config.D_cap,
        "seed": config.seed,
        "sweeps": result.n_sweeps,
        "energies": list(result.sweep_energies),
        "final_energy": result.energy,
        "residuals": {
            "lanczos": result.residual,
            "max_discarded": result.max_discarded,
            "sweep_discarded": list(result.sweep_discarded),
        },
        "converged": result.converged,
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"energy = {_fmt(result.energy)}")
    if not result.converged:
        print("warning: energy not converged within the sweep budget", file=sys.stderr)
        return 3
    return 0


def _load_archive(config: RunConfig, path: Path) -> Mps:
    """The MPS archive at ``path``; a ValueError when there is none or its
    length is not the config's."""
    if not (path / "manifest.json").exists():
        raise ValueError(f"no MPS archive at {path}")
    psi = load_mps(path)
    if psi.L != config.L:
        raise ValueError(f"archive has L={psi.L}, config says L={config.L}")
    return psi


def cmd_variance(config: RunConfig, mps_path: str) -> int:
    psi = _load_archive(config, Path(mps_path))
    h = build_model_mpo(config)
    report = nsite_variance(psi, h, config.effective_variance_n_max)
    out = Path(config.output_dir)
    csv_path = out / f"variance_{config.model}_D{config.D_cap}.csv"
    write_variance_csv(report, csv_path)
    print(f"energy = {_fmt(report.energy)}")
    for i in range(report.n_max):
        print(f"n = {i + 1}  delta = {_fmt(report.values[i])}  cumulative = {_fmt(report.cumulative[i])}")
    print(f"csv written to {csv_path}")
    return 0


def cmd_excite(config: RunConfig, gs_path: str) -> int:
    path = Path(gs_path)
    gs = _load_archive(config, path)
    h = build_model_mpo(config)
    opts = ExcitationOptions(seed=config.seed, tol=config.conv_tol)
    result = solve_lowest_excitation(gs, h, config.excitation_n, opts)
    out = Path(config.output_dir)
    save_excitation(
        result.state,
        out / f"excitation_n{config.excitation_n}",
        gs_path=str(path),
        extra={"E_ex": result.energy, "residual": result.residual, "seed": config.seed},
    )
    print(f"E_ex = {_fmt(result.energy)}")
    print(f"residual = {_fmt(result.residual)}")
    x = result.state
    for name, op in (("sz_total", sz_total_mpo(config.L)), ("s2_total", s2_total_mpo(config.L))):
        print(f"{name} = {_fmt(float(flatten(x) @ flatten(apply_projected_h(x, op))))}")
    if config.model == "haldane_shastry" and config.L % 2 == 0:  # the closed form needs even L
        exact = hs_first_excited_energy(config.L)
        rel = abs(result.energy - exact) / abs(exact)
        print(f"exact = {_fmt(exact)}")
        print(f"relative_error = {_fmt(rel)}")
    if not result.converged:
        print("warning: eigensolver not converged", file=sys.stderr)
        return 3
    return 0


def cmd_check(config: RunConfig) -> int:
    guard_dims(2, config.L)  # d >= 2 for every chain: refuse a long one before building its MPO
    h = build_model_mpo(config)
    psi = random_mps(config.L, h.d, bond_cap=config.D_cap, seed=config.seed)
    report = verify_identity_suite(psi, h)
    print(report)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "identity_report.json").write_text(report.to_json())
    if not report.all_passed:
        print("identity suite FAILED", file=sys.stderr)
        return 3
    print("identity suite passed")
    return 0


def cmd_ed(config: RunConfig, k: int) -> int:
    guard_dims(2, config.L)  # d >= 2 for every chain: refuse a long one before building its MPO
    h = build_model_mpo(config)
    vals = exact_spectrum(dense_hamiltonian(h), k)
    for i, v in enumerate(vals):
        print(f"E_{i} = {_fmt(v)}")
    if config.model == "haldane_shastry":
        print(f"exact_ground = {_fmt(hs_ground_energy(config.L))}")
        if config.L % 2 == 0:  # the closed form needs even L
            print(f"exact_first_excited = {_fmt(hs_first_excited_energy(config.L))}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--length", type=int, help="chain length L")
    p.add_argument("--bond-dim", dest="bond_dim", type=int, help="bond dimension cap D")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdmps",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gs", help="DMRG ground-state search")
    _add_common(p)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--conv-tol", dest="conv_tol", type=float)

    p = sub.add_parser("variance", help="n-site variance of a stored state")
    _add_common(p)
    p.add_argument("--mps", required=True, help="MPS archive directory")
    p.add_argument("--n-max", dest="n_max", type=int)

    p = sub.add_parser("excite", help="lowest excitation above a stored state", description=EXCITE_HELP)
    _add_common(p)
    p.add_argument("--gs", required=True, help="ground-state MPS archive directory")
    p.add_argument("--excite-n", dest="excite_n", type=int)
    p.add_argument("--conv-tol", dest="conv_tol", type=float)

    p = sub.add_parser("check", help="dense projector identity suite")
    _add_common(p)

    p = sub.add_parser("ed", help="dense spectrum (guarded)")
    _add_common(p)
    p.add_argument("--k", type=int, default=4, help="number of lowest eigenvalues")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, TypeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "gs":
            return cmd_gs(config)
        if args.command == "variance":
            return cmd_variance(config, args.mps)
        if args.command == "excite":
            return cmd_excite(config, args.gs)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "ed":
            return cmd_ed(config, args.k)
    except (ValueError, FileNotFoundError) as exc:  # a missing blob is a malformed archive
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
