"""Tests for MPS canonical forms, overlaps, sums, and archives."""

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.ed import dense_state
from kdmps.mps import (
    Mps,
    canonical_defect,
    canonicalize,
    load_mps,
    mps_norm,
    overlap,
    product_mps,
    random_mps,
    save_mps,
    site_tensors,
    phys,
    virt,
)
from kdmps.projectors import build_bases
from kdmps.tensor import Tensor, tensor_blob
from state_helpers import mps_sum

GAUGE_TOL = 1e-10
DENSE_TOL = 1e-12


def assert_site_canonical(psi: Mps):
    assert psi.form == "site"
    for l in range(1, psi.center):
        m = psi.sites[l - 1].data.reshape(-1, psi.sites[l - 1].data.shape[2])
        npt.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=GAUGE_TOL)
    for l in range(psi.center + 1, psi.L + 1):
        m = psi.sites[l - 1].data.reshape(psi.sites[l - 1].data.shape[0], -1)
        npt.assert_allclose(m @ m.T, np.eye(m.shape[0]), atol=GAUGE_TOL)


# ---------- random_mps ----------


def test_random_mps_single_site():
    psi = random_mps(1, 2, seed=0)
    assert psi.bond_dims == (1, 1)
    npt.assert_allclose(overlap(psi, psi), 1.0, atol=DENSE_TOL)


def test_random_mps_exponential_profile():
    psi = random_mps(4, 2, bond_cap=None, seed=0)
    assert psi.bond_dims == (1, 2, 4, 2, 1)
    psi = random_mps(6, 2, bond_cap=3, seed=0)
    assert psi.bond_dims == (1, 2, 3, 3, 3, 2, 1)


def test_random_mps_rejects_a_bond_cap_that_is_not_a_positive_int():
    for cap in (0, -3, 2.5, [1, 2, 3, 2, 1]):
        with pytest.raises(ValueError, match="bond_cap must be a positive int or None"):
            random_mps(4, 2, bond_cap=cap, seed=0)
    assert random_mps(4, 2, bond_cap=np.int64(1), seed=0).bond_dims == (1, 1, 1, 1, 1)


def test_random_mps_deterministic():
    a = random_mps(5, 2, bond_cap=3, seed=42)
    b = random_mps(5, 2, bond_cap=3, seed=42)
    for ta, tb in zip(a.sites, b.sites):
        npt.assert_array_equal(ta.data, tb.data)
    c = random_mps(5, 2, bond_cap=3, seed=43)
    assert any(not np.array_equal(ta.data, tc.data) for ta, tc in zip(a.sites, c.sites))


def test_random_mps_is_normalized_site_canonical():
    psi = random_mps(6, 2, bond_cap=4, seed=7)
    assert psi.center == 1
    assert_site_canonical(psi)
    npt.assert_allclose(overlap(psi, psi), 1.0, atol=DENSE_TOL)


# ---------- canonicalize ----------


def test_canonicalize_idempotent():
    psi = random_mps(5, 2, bond_cap=3, seed=1)
    out, norm = canonicalize(psi, 3)
    out2, norm2 = canonicalize(out, 3)
    npt.assert_allclose(norm2, 1.0, atol=DENSE_TOL)
    npt.assert_allclose(overlap(out, out2), 1.0, atol=DENSE_TOL)
    assert_site_canonical(out2)


def test_canonicalize_preserves_ray_dense_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    sites = tuple(
        Tensor(rng.standard_normal(shape), (virt(l), phys(l + 1), virt(l + 1)))
        for l, shape in enumerate([(1, 2, 2), (2, 2, 3), (3, 2, 3), (3, 2, 2), (2, 2, 1)])
    )
    raw = Mps(sites)  # unnormalized
    norm_in = mps_norm(raw)
    out, norm = canonicalize(raw, 2)
    npt.assert_allclose(norm, norm_in, atol=1e-12)
    npt.assert_allclose(overlap(out, raw), norm_in, atol=1e-10)  # <out|in> = |in||out|
    npt.assert_allclose(
        dense_state(out) * norm, dense_state(raw), atol=1e-10
    )


def test_gauge_invariance_between_centers():
    psi = random_mps(6, 2, bond_cap=3, seed=5)
    states = [canonicalize(psi, l)[0] for l in range(1, 7)]
    for a in states:
        assert_site_canonical(a)
        for b in states:
            npt.assert_allclose(overlap(a, b), 1.0, atol=DENSE_TOL)


def test_bond_canonical_product_state():
    # every bond matrix of the fixed gauge is the 1x1 unit Schmidt weight
    for c in build_bases(product_mps(4, 2)).bond:
        npt.assert_allclose(c, [[1.0]], atol=DENSE_TOL)


def test_bond_canonical_all_bonds_including_dummies():
    # the singular values of the bond matrix C_l are the Schmidt weights at
    # bond l, dummy bonds 0 and L included (there C_l = [[1]])
    psi = random_mps(5, 2, bond_cap=3, seed=9)
    bonds = build_bases(psi).bond
    vec = dense_state(psi)
    for bond in range(0, 6):
        c = bonds[bond]
        assert c.shape == (psi.bond_dims[bond],) * 2
        want = np.linalg.svd(vec.reshape(2**bond, -1), compute_uv=False)[: len(c)]
        npt.assert_allclose(np.linalg.svd(c, compute_uv=False), want, atol=DENSE_TOL)
    npt.assert_allclose(bonds[0], [[1.0]], atol=DENSE_TOL)
    npt.assert_allclose(bonds[5], [[1.0]], atol=DENSE_TOL)


def test_canonical_defect_reports_gauge_violations():
    psi = random_mps(5, 2, bond_cap=3, seed=14)
    assert canonical_defect(psi) <= GAUGE_TOL
    shifted, _ = canonicalize(psi, 2)
    assert canonical_defect(shifted) <= GAUGE_TOL
    # mislabeling the center must be detectable
    lying = Mps(shifted.sites, form="site", center=5)
    assert canonical_defect(lying) > 1e-3


def test_canonical_representations_agree_densely():
    # all centered forms materialize to the *same* vector, signs included
    psi = random_mps(6, 2, bond_cap=3, seed=12)
    ref = dense_state(canonicalize(psi, 1)[0])
    for l in range(1, 7):
        site_vec = dense_state(canonicalize(psi, l)[0])
        npt.assert_allclose(site_vec, ref, atol=DENSE_TOL)


def test_canonicalize_errors():
    psi = random_mps(3, 2, seed=0)
    with pytest.raises(ValueError):
        canonicalize(psi, 0)
    with pytest.raises(ValueError):
        canonicalize(psi, 4)
    zero = Mps(site_tensors([0.0 * psi.sites[0].data] + [t.data for t in psi.sites[1:]]))
    with pytest.raises(ValueError, match="zero state"):
        canonicalize(zero, 1)


# ---------- overlap / add ----------


def test_overlap_normalization_and_orthogonality():
    psi = random_mps(5, 2, bond_cap=3, seed=8)
    npt.assert_allclose(overlap(psi, psi), 1.0, atol=DENSE_TOL)
    up = product_mps(3, 2, [np.array([1.0, 0.0])] * 3)
    down = product_mps(3, 2, [np.array([0.0, 1.0])] * 3)
    assert overlap(up, down) == 0.0


def test_overlap_matches_dense_inner_product():
    a = random_mps(6, 2, bond_cap=3, seed=1)
    b = random_mps(6, 2, bond_cap=2, seed=2)
    want = float(dense_state(a) @ dense_state(b))
    npt.assert_allclose(overlap(a, b), want, atol=DENSE_TOL)


def test_mps_add_trivial_cases():
    a = random_mps(4, 2, bond_cap=2, seed=3)
    b = random_mps(4, 2, bond_cap=2, seed=4)
    plus_zero = mps_sum(a, b, 1.0, 0.0)
    npt.assert_allclose(overlap(plus_zero, a), 1.0, atol=DENSE_TOL)
    diff = mps_sum(a, a, 1.0, -1.0)
    npt.assert_allclose(mps_norm(diff), 0.0, atol=DENSE_TOL)


def test_mps_add_dense_linear_combination():
    a = random_mps(5, 2, bond_cap=3, seed=5)
    b = random_mps(5, 2, bond_cap=2, seed=6)
    out = mps_sum(a, b, 2.0, -1.0)
    want = 2.0 * dense_state(a) - dense_state(b)
    npt.assert_allclose(dense_state(out), want, atol=DENSE_TOL)
    assert out.bond_dims[2] == a.bond_dims[2] + b.bond_dims[2]


def test_mps_add_single_site():
    a = product_mps(1, 2, [np.array([1.0, 0.0])])
    b = product_mps(1, 2, [np.array([0.0, 1.0])])
    out = mps_sum(a, b, 1.0, 2.0)
    npt.assert_allclose(dense_state(out), [1.0, 2.0], atol=DENSE_TOL)


# ---------- fixed gauge family ----------


def test_build_bases_reconstruct_at_every_bond():
    # the state is scaled by 3; the gauge rebuilds it normalized
    psi = random_mps(6, 2, bond_cap=3, seed=11)
    scaled = Mps(site_tensors([3.0 * psi.sites[0].data] + [t.data for t in psi.sites[1:]]))
    bases = build_bases(scaled)
    a_set, b_set, bonds = [t.data for t in bases.left], [t.data for t in bases.right], bases.bond
    ref = dense_state(psi)
    for l in range(0, 7):
        arrs = a_set[:l] + [bonds[l][:, None, :]] + b_set[l:]
        cur = np.ones((1, 1))
        for arr in arrs:
            cur = np.tensordot(cur, arr, axes=(1, 0)).reshape(-1, arr.shape[-1])
        npt.assert_allclose(cur.reshape(-1), ref, atol=DENSE_TOL)
    for t in a_set:
        m = t.reshape(-1, t.shape[2])
        npt.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=GAUGE_TOL)
    for t in b_set:
        m = t.reshape(t.shape[0], -1)
        npt.assert_allclose(m @ m.T, np.eye(m.shape[0]), atol=GAUGE_TOL)


# ---------- archives ----------


def test_mps_archive_roundtrip(tmp_path):
    psi = random_mps(4, 2, bond_cap=3, seed=10)
    save_mps(psi, tmp_path / "state")
    back = load_mps(tmp_path / "state")
    assert back.L == psi.L and back.d == psi.d
    assert back.form == "site" and back.center == 1
    for ta, tb in zip(psi.sites, back.sites):
        npt.assert_array_equal(ta.data, tb.data)
    import json

    manifest = json.loads((tmp_path / "state" / "manifest.json").read_text())
    assert manifest["kind"] == "mps"
    assert manifest["L"] == 4 and manifest["bond_dims"] == [1, 2, 3, 2, 1]
    npt.assert_allclose(manifest["norm"], 1.0, atol=DENSE_TOL)


def test_mps_archive_rejects_a_swapped_site_blob(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=2), tmp_path / "state")
    a, b = tmp_path / "state" / "site_1.ten", tmp_path / "state" / "site_2.ten"
    first, second = a.read_bytes(), b.read_bytes()
    a.write_bytes(second)
    b.write_bytes(first)
    with pytest.raises(ValueError, match=r"site_1\.ten has shape \(2, 2, 4\), but the manifest gives \(1, 2, 2\)"):
        load_mps(tmp_path / "state")


def test_mps_archive_rejects_a_wrong_form(tmp_path):
    import json

    psi, _ = canonicalize(random_mps(6, 2, bond_cap=4, seed=4), 4)
    save_mps(psi, tmp_path / "state")
    load_mps(tmp_path / "state")
    manifest_path = tmp_path / "state" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["form"]["index"] = 2  # sites 3 and 4 are not right-normalized
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="claims site form at 2, but the gauge defect"):
        load_mps(tmp_path / "state")
    # swapping the equal-shape blobs of sites 3 and 4 keeps every shape but
    # moves the center tensor where a left-normalized one belongs
    manifest["form"]["index"] = 4
    manifest_path.write_text(json.dumps(manifest))
    a, b = tmp_path / "state" / "site_3.ten", tmp_path / "state" / "site_4.ten"
    first, second = a.read_bytes(), b.read_bytes()
    a.write_bytes(second)
    b.write_bytes(first)
    with pytest.raises(ValueError, match="claims site form at 4, but the gauge defect"):
        load_mps(tmp_path / "state")


def test_mps_archive_rejects_the_bond_form(tmp_path):
    import json

    # an archive as earlier versions wrote it: left-normalized sites up to
    # bond 2, the diagonal Schmidt weights of bond 2 in bond_weights.ten,
    # right-normalized sites after it
    bases = build_bases(random_mps(4, 2, bond_cap=2, seed=3))
    a_set, b_set, bonds = [t.data for t in bases.left], [t.data for t in bases.right], bases.bond
    u, weights, vh = np.linalg.svd(bonds[2])
    sites = [a_set[0], np.tensordot(a_set[1], u, axes=(2, 0)), np.tensordot(vh, b_set[2], axes=(1, 0)), b_set[3]]
    save_mps(Mps(site_tensors(sites)), tmp_path / "state")
    (tmp_path / "state" / "bond_weights.ten").write_bytes(tensor_blob(weights))
    manifest_path = tmp_path / "state" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["form"] = {"kind": "bond", "index": 2}
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="claims 'bond' form; only 'raw' and 'site' archives are read"):
        load_mps(tmp_path / "state")


def test_mps_archive_rejects_a_manifest_that_lacks_a_key(tmp_path):
    import json

    save_mps(random_mps(4, 2, bond_cap=2, seed=5), tmp_path / "state")
    manifest_path = tmp_path / "state" / "manifest.json"
    good = json.loads(manifest_path.read_text())
    for key in ("form", "L", "d", "bond_dims"):
        manifest_path.write_text(json.dumps({k: v for k, v in good.items() if k != key}))
        with pytest.raises(ValueError, match=f"the manifest lacks {key}"):
            load_mps(tmp_path / "state")
    manifest_path.write_text(json.dumps({**good, "form": {"kind": "site"}}))
    with pytest.raises(ValueError, match="the manifest lacks index"):
        load_mps(tmp_path / "state")


@pytest.mark.parametrize(
    "key, value",
    [("form", "site"), ("form", {"kind": "site", "index": "1"}), ("L", "4"), ("d", True), ("bond_dims", 3)],
)
def test_mps_archive_rejects_a_manifest_value_of_the_wrong_type(tmp_path, key, value):
    import json

    save_mps(random_mps(4, 2, bond_cap=2, seed=5), tmp_path / "state")
    manifest_path = tmp_path / "state" / "manifest.json"
    manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), key: value}))
    with pytest.raises(ValueError, match=f"the manifest's {key}[.a-z]* should be of type"):
        load_mps(tmp_path / "state")


def test_mps_archive_rejects_a_truncated_blob(tmp_path):
    save_mps(random_mps(4, 2, bond_cap=2, seed=5), tmp_path / "state")
    blob = tmp_path / "state" / "site_2.ten"
    blob.write_bytes(blob.read_bytes()[:10])
    with pytest.raises(ValueError, match=r"site_2\.ten: the blob is truncated"):
        load_mps(tmp_path / "state")


def test_mps_archive_rejects_bytes_past_a_blob_payload(tmp_path):
    save_mps(random_mps(6, 2, bond_cap=4, seed=5), tmp_path / "state")
    blob = tmp_path / "state" / "site_3.ten"
    blob.write_bytes(blob.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match=r"site_3\.ten: the blob runs 8 bytes past its payload"):
        load_mps(tmp_path / "state")


def test_mps_archive_reads_no_more_bytes_than_a_blob_holds(tmp_path):
    import json
    import struct
    import tracemalloc

    save_mps(random_mps(2, 2, seed=0), tmp_path / "state")
    manifest_path = tmp_path / "state" / "manifest.json"
    manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), "bond_dims": [1, 2**23, 1]}))
    # a 64-byte site_1 whose header claims the manifest's (1, 2, 2^23): 2^24 doubles, 128 MiB
    header = b"KDMPSTEN" + struct.pack("<I3Q", 3, 1, 2, 2**23)
    (tmp_path / "state" / "site_1.ten").write_bytes(header + bytes(64 - len(header)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"site_1\.ten: the blob is truncated"):
            load_mps(tmp_path / "state")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mps_archive_reads_format_1_only(tmp_path):
    import json

    save_mps(random_mps(4, 2, bond_cap=2, seed=5), tmp_path / "state")
    manifest_path = tmp_path / "state" / "manifest.json"
    good = json.loads(manifest_path.read_text())
    assert good["format_version"] == 1
    manifest_path.write_text(json.dumps({**good, "format_version": 2}))
    with pytest.raises(ValueError, match="claims format 2; only format 1 is read"):
        load_mps(tmp_path / "state")
    manifest_path.write_text(json.dumps({**good, "kind": "excitation"}))
    with pytest.raises(ValueError, match="not an mps archive"):
        load_mps(tmp_path / "state")


def test_mps_archive_saved_over_a_longer_one_leaves_only_its_own_files(tmp_path):
    path = tmp_path / "state"
    save_mps(random_mps(8, 2, bond_cap=4, seed=1), path)
    psi = random_mps(6, 2, bond_cap=4, seed=2)
    save_mps(psi, path)
    assert sorted(p.name for p in path.iterdir()) == ["manifest.json"] + [f"site_{l}.ten" for l in range(1, 7)]
    for ta, tb in zip(load_mps(path).sites, psi.sites):
        npt.assert_array_equal(ta.data, tb.data)


def test_mps_archive_save_deletes_no_file_but_stale_blobs(tmp_path):
    path = tmp_path / "state"
    save_mps(random_mps(8, 2, bond_cap=4, seed=1), path)
    (path / "notes.txt").write_text("kept")
    (path / "site_7.ten.bak").write_bytes((path / "site_7.ten").read_bytes())
    save_mps(random_mps(6, 2, bond_cap=4, seed=2), path)
    assert (path / "notes.txt").read_text() == "kept"
    assert (path / "site_7.ten.bak").exists() and not (path / "site_7.ten").exists()


def test_mps_archive_save_that_fails_part_way_leaves_no_manifest(tmp_path, monkeypatch):
    # over an archive of equal shapes, a mix of new and old site blobs passes
    # every check of load_mps, so only a missing manifest can reject it
    from pathlib import Path

    path = tmp_path / "state"
    save_mps(random_mps(6, 2, bond_cap=4, seed=1), path)
    write_bytes, written = Path.write_bytes, []

    def fail_on_the_third_blob(self, data):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(self.name)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", fail_on_the_third_blob)
    with pytest.raises(OSError, match="disk full"):
        save_mps(random_mps(6, 2, bond_cap=4, seed=2), path)
    monkeypatch.undo()
    assert written == ["site_1.ten", "site_2.ten"]
    assert not (path / "manifest.json").exists()
    with pytest.raises(FileNotFoundError):
        load_mps(path)
