"""Tests for kept/discarded bases and the sector-pair projector algebra."""

import numpy as np
import numpy.testing as npt
import pytest

import kdmps.projectors as kproj
from kdmps.ed import dense_rank, dense_state
from kdmps.mpo import haldane_shastry_mpo
from kdmps.mps import overlap, product_mps, random_mps
from kdmps.projectors import (
    _check_pair,
    build_bases,
    convert_kd_dk,
    dense_projector,
    dense_sector_pair,
    expand_global,
    expand_irreducible,
    expand_local,
    expand_local_ortho,
    expand_tangent_mixed,
    subspace_dimension,
)
from kdmps.tensor import orthogonal_complement
from kdmps.variance import nsite_variance

BLOCK_TOL = 1e-10
DENSE_TOL = 1e-10


# ---------- bases ----------


def discarded_dims(kept):
    """Discarded dimensions of Abar_1..Abar_L and of Bbar_1..Bbar_L."""
    return tuple(t.shape[2] for t in kept.discarded_left), tuple(t.shape[0] for t in kept.discarded_right)


def test_build_bases_product_state_dimensions():
    kept = build_bases(product_mps(3, 2))
    assert kept.dims == (1, 1, 1, 1)
    assert discarded_dims(kept) == ((1, 1, 1), (1, 1, 1))  # d - 1 discarded directions per site


def test_build_bases_maximal_profile_dimensions():
    kept = build_bases(random_mps(4, 2, bond_cap=None, seed=1))
    assert kept.dims == (1, 2, 4, 2, 1)
    assert discarded_dims(kept) == ((0, 0, 6, 3), (3, 6, 0, 0))


def test_lazy_complements_equal_eager_ones_bit_for_bit():
    for psi in (random_mps(4, 2, bond_cap=None, seed=1), random_mps(7, 2, bond_cap=3, seed=2), product_mps(3, 2)):
        kept = build_bases(psi)
        fresh = build_bases(psi)  # its isometries, complemented here eagerly
        for l, (ta, tb) in enumerate(zip(fresh.left, fresh.right)):
            dl, d, dr = ta.shape
            abar = orthogonal_complement(ta.data.reshape(dl * d, dr)).reshape(dl, d, -1)
            dl, d, dr = tb.shape
            bbar = orthogonal_complement(tb.data.reshape(dl, d * dr).T).T.reshape(-1, d, dr)
            assert kept.discarded_left[l].shape == abar.shape and np.array_equal(kept.discarded_left[l], abar)
            assert kept.discarded_right[l].shape == bbar.shape and np.array_equal(kept.discarded_right[l], bbar)


def test_complements_are_built_only_when_read(monkeypatch):
    calls = []

    def counting(iso):
        calls.append(iso.shape)
        return orthogonal_complement(iso)

    monkeypatch.setattr(kproj, "orthogonal_complement", counting)
    psi = random_mps(6, 2, bond_cap=3, seed=4)
    kept = build_bases(psi)
    nsite_variance(psi, haldane_shastry_mpo(6), 3)
    assert calls == []
    left = kept.discarded_left
    assert len(calls) == 6 and kept.discarded_left is left  # one QR per site, then cached
    assert len(kept.discarded_right) == 6 and len(calls) == 12
    assert kept.discarded_right is kept.discarded_right and len(calls) == 12


def test_build_bases_orthogonality_blocks():
    kept = build_bases(random_mps(6, 2, bond_cap=3, seed=4))
    d = kept.d
    for l in range(1, 7):
        a = kept.left[l - 1].data.reshape(kept.dims[l - 1] * d, kept.dims[l])
        ab = kept.discarded_left[l - 1].reshape(kept.dims[l - 1] * d, -1)
        b = kept.right[l - 1].data.reshape(kept.dims[l - 1], d * kept.dims[l])
        bb = kept.discarded_right[l - 1].reshape(-1, d * kept.dims[l])
        npt.assert_allclose(ab.T @ ab, np.eye(ab.shape[1]), atol=BLOCK_TOL)
        npt.assert_allclose(a.T @ ab, 0.0, atol=BLOCK_TOL)
        npt.assert_allclose(bb @ bb.T, np.eye(bb.shape[0]), atol=BLOCK_TOL)
        npt.assert_allclose(bb @ b.T, 0.0, atol=BLOCK_TOL)
        npt.assert_allclose(a @ a.T + ab @ ab.T, np.eye(a.shape[0]), atol=BLOCK_TOL)


def test_build_bases_reference_consistency():
    psi = random_mps(5, 2, bond_cap=3, seed=9)
    kept = build_bases(psi)
    npt.assert_allclose(overlap(kept.reference, psi), 1.0, atol=1e-12)
    ref = dense_state(kept.reference)
    for l in range(0, 6):
        arrs = (
            [t.data for t in kept.left[:l]]
            + [kept.bond[l][:, None, :]]
            + [t.data for t in kept.right[l:]]
        )
        cur = np.ones((1, 1))
        for arr in arrs:
            cur = np.tensordot(cur, arr, axes=(1, 0)).reshape(-1, arr.shape[-1])
        npt.assert_allclose(cur.reshape(-1), ref, atol=1e-12)


# ---------- term builders ----------


def test_spec_validation():
    with pytest.raises(ValueError):
        _check_pair(("K", "X", 0, 1), 4)
    with pytest.raises(ValueError):
        _check_pair(("K", "K", 2, 2), 4)
    with pytest.raises(ValueError):
        expand_local(2, 0, 4)
    with pytest.raises(ValueError):
        expand_local(2, 4, 4)
    with pytest.raises(ValueError):
        expand_global(5, 4)
    with pytest.raises(ValueError):
        expand_global(1, 4, anchor=5)
    with pytest.raises(ValueError):
        expand_irreducible(-1, 4)
    with pytest.raises(ValueError):
        expand_local_ortho(1, 2, "x", 4)


def test_bad_sector_letters_are_rejected():
    kept = build_bases(random_mps(4, 2, bond_cap=2, seed=2))
    with pytest.raises(ValueError, match="'K' or 'D'"):
        dense_sector_pair(kept, ("k", "D", 1, 3))
    with pytest.raises(ValueError, match="'K' or 'D'"):
        dense_projector([(1.0, ("K", "K", 0, 2)), (1.0, ("K", "X", 0, 3))], kept)
    with pytest.raises(ValueError, match="'K' or 'D'"):
        dense_projector([(1.0, ("k", "D", 1, 3))], kept)


def test_apply_rank_one_projector():
    kept = build_bases(random_mps(4, 2, bond_cap=2, seed=2))
    phi = random_mps(4, 2, bond_cap=3, seed=3)
    out = dense_projector(expand_irreducible(0, 4), kept) @ dense_state(phi)
    c = overlap(kept.reference, phi)
    npt.assert_allclose(out, c * dense_state(kept.reference), atol=1e-12)


def test_irreducible_annihilates_reference():
    kept = build_bases(random_mps(5, 2, bond_cap=2, seed=6))
    vref = dense_state(kept.reference)
    for n in range(1, 6):
        out = dense_projector(expand_irreducible(n, 5), kept) @ vref
        assert np.linalg.norm(out) <= 1e-12


def test_apply_projector_idempotent():
    psi = random_mps(5, 2, bond_cap=2, seed=13)
    kept = build_bases(psi)
    phi = random_mps(5, 2, bond_cap=2, seed=14)
    for terms in (expand_global(1, 5), expand_irreducible(2, 5)):
        p = dense_projector(terms, kept)
        once = p @ dense_state(phi)
        twice = p @ once
        npt.assert_allclose(twice, once, atol=BLOCK_TOL)


def test_empty_term_list_is_the_zero_projector():
    phi = random_mps(4, 2, bond_cap=2, seed=2)
    kept = build_bases(phi)
    vec = dense_state(phi)
    npt.assert_array_equal(dense_projector([], kept) @ vec, np.zeros_like(vec))


def test_apply_boundary_discarded_sector_is_zero():
    kept = build_bases(random_mps(3, 2, bond_cap=2, seed=1))
    assert np.linalg.norm(dense_sector_pair(kept, ("D", "K", 0, 2))) == 0.0
    assert np.linalg.norm(dense_sector_pair(kept, ("K", "D", 1, 4))) == 0.0


# ---------- dense materialization ----------


def test_dense_one_site_projector_trace():
    kept = build_bases(random_mps(5, 2, bond_cap=2, seed=21))
    for l in range(1, 6):
        p = dense_projector(expand_local(1, l, 5), kept)
        want = kept.dims[l - 1] * kept.d * kept.dims[l]
        npt.assert_allclose(np.trace(p), want, atol=1e-9)
        assert dense_rank(p) == want
        npt.assert_allclose(p @ p, p, atol=BLOCK_TOL)
        npt.assert_allclose(p, p.T, atol=BLOCK_TOL)


def test_dense_irreducible_trace_maximal_l4():
    kept = build_bases(random_mps(4, 2, bond_cap=None, seed=8))
    p = dense_projector(expand_irreducible(1, 4), kept)
    npt.assert_allclose(np.trace(p), 15.0, atol=1e-9)


def test_dense_irreducible_partition_of_unity():
    kept = build_bases(random_mps(4, 2, bond_cap=None, seed=9))
    total = sum(dense_projector(expand_irreducible(n, 4), kept) for n in range(5))
    npt.assert_allclose(total, np.eye(16), atol=BLOCK_TOL)


def test_dense_guard():
    kept = build_bases(random_mps(13, 2, bond_cap=2, seed=0))
    with pytest.raises(ValueError, match="guard"):
        dense_sector_pair(kept, ("K", "K", 1, 3))


# ---------- dimensions ----------


def test_subspace_dimensions_maximal_l4():
    kept = build_bases(random_mps(4, 2, bond_cap=None, seed=10))
    dims = [subspace_dimension(kept, n) for n in range(5)]
    assert dims == [1, 15, 0, 0, 0]
    assert sum(dims) == 16


def test_subspace_dimensions_capped_l4():
    kept = build_bases(random_mps(4, 2, bond_cap=2, seed=10))
    assert kept.dims == (1, 2, 2, 2, 1)
    dims = [subspace_dimension(kept, n) for n in range(5)]
    assert dims == [1, 11, 4, 0, 0]
    assert sum(dims) == 16


def test_subspace_dimensions_product_l2():
    kept = build_bases(product_mps(2, 2))
    dims = [subspace_dimension(kept, n) for n in range(3)]
    assert dims == [1, 2, 1]
    assert sum(dims) == 4


def test_subspace_dimensions_match_ranks_random():
    psi = random_mps(5, 2, bond_cap=2, seed=17)
    kept = build_bases(psi)
    total = 0
    for n in range(6):
        want = subspace_dimension(kept, n)
        total += want
        p = dense_projector(expand_irreducible(n, 5), kept)
        assert dense_rank(p) == want
    assert total == 2**5


def test_subspace_dimension_range():
    kept = build_bases(product_mps(3, 2))
    with pytest.raises(ValueError):
        subspace_dimension(kept, 4)


# ---------- conversions ----------


def test_convert_single_term_window():
    psi = random_mps(4, 2, bond_cap=2, seed=30)
    kept = build_bases(psi)
    lhs, rhs = convert_kd_dk(4, 1, 2, 2)
    npt.assert_allclose(dense_projector(lhs, kept), dense_projector(rhs, kept), atol=BLOCK_TOL)


def test_convert_full_window_n1():
    psi = random_mps(4, 2, bond_cap=2, seed=31)
    kept = build_bases(psi)
    lhs, rhs = convert_kd_dk(4, 1, 1, 4)
    npt.assert_allclose(dense_projector(lhs, kept), dense_projector(rhs, kept), atol=BLOCK_TOL)


def test_tangent_mixed_form_matches_closed_form():
    psi = random_mps(4, 2, bond_cap=2, seed=32)
    kept = build_bases(psi)
    closed = dense_projector(expand_irreducible(1, 4), kept)
    for anchor in range(1, 5):
        mixed = dense_projector(expand_tangent_mixed(4, anchor), kept)
        npt.assert_allclose(mixed, closed, atol=BLOCK_TOL)


def test_convert_window_validation():
    with pytest.raises(ValueError):
        convert_kd_dk(4, 1, 3, 2)
    with pytest.raises(ValueError):
        convert_kd_dk(4, 2, 1, 4)


def test_global_default_anchor_matches_explicit():
    L = 5
    psi = random_mps(L, 2, bond_cap=2, seed=34)
    kept = build_bases(psi)
    for n in (1, 2):
        default = dense_projector(expand_global(n, L), kept)
        explicit = dense_projector(expand_global(n, L, L + 1 - n), kept)
        npt.assert_array_equal(default, explicit)
