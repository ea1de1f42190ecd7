"""End-to-end tests of the command-line interface."""

import json

from kdmps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gs_two_site_heisenberg(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "gs", "--model", "heisenberg", "--length", "2", "--bond-dim", "4",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    assert "energy = -0.75" in out
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["model"] == "heisenberg" and manifest["L"] == 2 and manifest["d"] == 2
    assert manifest["config"]["seed"] == 1 and "d" not in manifest["config"]
    assert abs(manifest["final_energy"] + 0.75) < 1e-10
    residuals = manifest["residuals"]
    assert len(residuals["sweep_discarded"]) == manifest["sweeps"] == len(manifest["energies"])
    assert residuals["max_discarded"] == max(residuals["sweep_discarded"])
    assert (out_dir / "gs_mps" / "manifest.json").exists()


def test_gs_ring_model_l8_prints_known_energy(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "gs", "--model", "haldane_shastry", "--length", "8", "--bond-dim", "32",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    energy = float(out.split("=")[1].strip().splitlines()[0])
    assert abs(energy - (-3.546889)) < 1e-6


def test_check_product_state_config_passes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "check", "--model", "heisenberg", "--length", "3", "--bond-dim", "1",
        "--seed", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert "identity suite passed" in out


def test_gs_invalid_length_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gs", "--length", "0", "--out", str(tmp_path))
    assert code == 2
    assert "error" in err and "usage" in err


def test_gs_non_convergence_exits_3_but_writes_state(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys, "gs", "--model", "haldane_shastry", "--length", "8", "--bond-dim", "4",
        "--sweeps", "1", "--out", str(out_dir),
    )
    assert code == 3
    assert "not converged" in err
    assert "energy =" in out
    assert (out_dir / "gs_mps" / "manifest.json").exists()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["converged"] is False


def test_variance_of_eigenstate_near_zero(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "gs", "--model", "heisenberg", "--length", "2", "--out", str(out_dir))
    code, out, _ = run_cli(
        capsys, "variance", "--model", "heisenberg", "--length", "2", "--n-max", "2",
        "--mps", str(out_dir / "gs_mps"), "--out", str(out_dir),
    )
    assert code == 0
    csv_files = list(out_dir.glob("variance_*.csv"))
    assert len(csv_files) == 1
    rows = csv_files[0].read_text().strip().splitlines()
    assert rows[0] == "n,delta_n_perp,delta_ns_cumulative"
    for row in rows[1:]:
        assert float(row.split(",")[1]) <= 1e-18


def test_variance_missing_archive_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "variance", "--length", "4", "--mps", str(tmp_path / "nope"), "--out", str(tmp_path)
    )
    assert code == 2
    assert "no MPS archive" in err


def test_excite_two_site_gap(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "gs", "--model", "heisenberg", "--length", "2", "--out", str(out_dir))
    code, out, _ = run_cli(
        capsys, "excite", "--model", "heisenberg", "--length", "2",
        "--gs", str(out_dir / "gs_mps"), "--out", str(out_dir),
    )
    assert code == 0
    e_ex = float([line for line in out.splitlines() if line.startswith("E_ex")][0].split("=")[1])
    assert abs(e_ex - 0.25) < 1e-8  # gap 1.0 above the -0.75 reference
    assert (out_dir / "excitation_n1" / "manifest.json").exists()


def test_excite_window_cap_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "gs", "--model", "heisenberg", "--length", "2", "--out", str(out_dir))
    code, _, err = run_cli(
        capsys, "excite", "--length", "2", "--excite-n", "5",
        "--gs", str(out_dir / "gs_mps"), "--out", str(out_dir),
    )
    assert code == 2
    assert "excitation window" in err


def test_excite_reports_relative_error_for_ring_model(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(
        capsys, "gs", "--model", "haldane_shastry", "--length", "6", "--bond-dim", "8",
        "--out", str(out_dir),
    )
    code, out, _ = run_cli(
        capsys, "excite", "--model", "haldane_shastry", "--length", "6", "--bond-dim", "8",
        "--gs", str(out_dir / "gs_mps"), "--out", str(out_dir),
    )
    assert code == 0
    assert "relative_error" in out and "sz_total" in out and "s2_total" in out
    rel = float([line for line in out.splitlines() if line.startswith("relative_error")][0].split("=")[1])
    assert rel < 1e-5


def test_check_passes_small_config(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "check", "--model", "heisenberg", "--length", "4", "--bond-dim", "2",
        "--seed", "7", "--out", str(tmp_path),
    )
    assert code == 0
    assert "identity suite passed" in out
    report = json.loads((tmp_path / "identity_report.json").read_text())
    assert all(entry["pass"] for entry in report.values())


def test_check_guard_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "--length", "13", "--out", str(tmp_path))
    assert code == 2
    assert "guard" in err


def test_ed_prints_formula_references(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "ed", "--model", "haldane_shastry", "--length", "8", "--k", "2", "--out", str(tmp_path)
    )
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(lines["E_0"]) - float(lines["exact_ground"])) < 1e-8
    assert abs(float(lines["E_1"]) - float(lines["exact_first_excited"])) < 1e-8


def test_ed_rejects_k_below_one(tmp_path, capsys):
    for k in ("0", "-1"):
        code, out, err = run_cli(capsys, "ed", "--model", "heisenberg", "--length", "4", "--k", k, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "k must be at least 1" in err


def test_ed_odd_ring_prints_only_the_ground_formula(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "ed", "--model", "haldane_shastry", "--length", "7", "--k", "2", "--out", str(tmp_path)
    )
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert set(lines) == {"E_0", "E_1", "exact_ground"}  # no closed form above an odd ring's doublet
    assert abs(float(lines["E_0"]) - float(lines["exact_ground"])) < 1e-10
    assert abs(float(lines["exact_ground"]) + 2.819887) < 1e-6


def test_excite_odd_ring_prints_no_relative_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    model = ("--model", "haldane_shastry", "--length", "7", "--bond-dim", "8")
    run_cli(capsys, "gs", *model, "--out", str(out_dir))
    code, out, _ = run_cli(capsys, "excite", *model, "--gs", str(out_dir / "gs_mps"), "--out", str(out_dir))
    assert code == 0
    assert "E_ex" in out and "exact" not in out and "relative_error" not in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": "heisenberg", "L": 2, "D_cap": 4, "seed": 3}))
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "gs", "--config", str(cfg), "--seed", "9", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 9  # flag overrides file
    assert manifest["config"]["model"] == "heisenberg"  # file value survives


def test_config_file_non_integer_counts_exit_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for field, value in (("L", 8.0), ("sweeps", 2.5), ("D_cap", True), ("excitation_n", "1")):
        cfg.write_text(json.dumps({field: value}))
        code, _, err = run_cli(capsys, "gs", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{field} must be an integer" in err
    # a path, checked before the search runs; no --out here, which would override it
    cfg.write_text(json.dumps({"output_dir": 5, "L": 4, "D_cap": 2}))
    code, _, err = run_cli(capsys, "gs", "--config", str(cfg))
    assert code == 2
    assert "output_dir must be a string" in err


def test_config_file_that_sets_the_local_dimension_exits_2(tmp_path, capsys):
    # the local dimension comes from the model's operator; it is no setting
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 2}))
    code, _, err = run_cli(capsys, "gs", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "unexpected keyword argument 'd'" in err
    # settings come as one JSON object, not as pairs or any other top level
    for top in ([["L", 4], ["D_cap", 2], ["output_dir", "pairs"]], [1, 2]):
        cfg.write_text(json.dumps(top))
        code, _, err = run_cli(capsys, "gs", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{cfg}: a config file holds one JSON object, not a list" in err
    assert not (tmp_path / "run").exists()


def test_malformed_archives_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    model = ("--model", "heisenberg", "--length", "4", "--bond-dim", "2", "--out", str(out_dir))
    assert run_cli(capsys, "gs", *model)[0] == 0
    archive = out_dir / "gs_mps"
    manifest_path = archive / "manifest.json"
    good = manifest_path.read_text()
    manifest = json.loads(good)
    del manifest["bond_dims"]
    manifest_path.write_text(json.dumps(manifest))
    code, _, err = run_cli(capsys, "variance", *model, "--mps", str(archive))
    assert code == 2
    assert "the manifest lacks bond_dims" in err
    for key, value in (("form", "site"), ("L", "4")):
        manifest_path.write_text(json.dumps({**json.loads(good), key: value}))
        code, _, err = run_cli(capsys, "variance", *model, "--mps", str(archive))
        assert code == 2
        assert f"the manifest's {key} should be of type" in err
    manifest_path.write_text(good)
    blob = archive / "site_2.ten"
    blob.write_bytes(blob.read_bytes()[:10])
    code, _, err = run_cli(capsys, "excite", *model, "--gs", str(archive))
    assert code == 2
    assert "site_2.ten: the blob is truncated" in err
    blob.unlink()
    for command, flag in (("variance", "--mps"), ("excite", "--gs")):
        code, _, err = run_cli(capsys, command, *model, flag, str(archive))
        assert code == 2
        assert err.startswith("error: ") and "site_2.ten" in err


def test_runs_reproducible_from_seed(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        run_cli(
            capsys, "gs", "--model", "heisenberg", "--length", "6", "--bond-dim", "8",
            "--seed", "11", "--out", str(out_dir),
        )
        run_cli(
            capsys, "variance", "--model", "heisenberg", "--length", "6", "--n-max", "4",
            "--bond-dim", "8", "--mps", str(out_dir / "gs_mps"), "--out", str(out_dir),
        )
        outputs.append((out_dir / "variance_heisenberg_D8.csv").read_bytes())
    assert outputs[0] == outputs[1]
