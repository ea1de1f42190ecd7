"""Tests for the array kernels (gauge moves, direct sums, transfers) and the tensor record."""

import numpy as np
import numpy.testing as npt
import pytest

from kdmps.mpo import haldane_shastry_mpo, heisenberg_mpo
from kdmps.tensor import (
    Tensor,
    TruncationPolicy,
    apply_window,
    chain_sum,
    env_step_left,
    env_step_right,
    ket_step,
    mpo_matrix,
    mpo_step,
    orthogonal_complement,
    qr,
    read_tensor_blob,
    svd_split,
    transfer_left,
    transfer_right,
    tensor_blob,
)

TOL = 1e-12


def rand_tensor(rng, shape, legs):
    return Tensor(rng.standard_normal(shape), legs)


# ---------- direct sums ----------


def dense_chain(chain):
    """Contract a chain over its bonds, leaving the outer bonds open:
    (left, middle axes of every site..., right)."""
    cur = chain[0]
    for a in chain[1:]:
        cur = np.tensordot(cur, a, axes=(-1, 0))
    return cur


def random_chain(rng, bonds, middle):
    return [rng.standard_normal((bonds[i], *middle, bonds[i + 1])) for i in range(len(bonds) - 1)]


def test_chain_sum_of_three_mps_chains_with_coefficients():
    rng = np.random.default_rng(20)
    chains = [random_chain(rng, (2, 3, 1, 4, 3), (2,)), random_chain(rng, (2, 1, 2, 2, 3), (2,))]
    chains.append(random_chain(rng, (2, 4, 3, 1, 3), (2,)))
    coeffs = (0.5, -1.5, 2.0)
    out = chain_sum(chains, coeffs)
    assert [a.shape for a in out] == [(2, 2, 8), (8, 2, 6), (6, 2, 7), (7, 2, 3)]
    want = sum(c * dense_chain(chain) for c, chain in zip(coeffs, chains))
    npt.assert_allclose(dense_chain(out), want, atol=TOL)
    # interior sites are block diagonal in input order: chain k sits at its
    # bond offsets, and every entry outside the blocks is zero
    mid = out[1]
    filled = np.zeros(mid.shape, dtype=bool)
    lo_l = lo_r = 0
    for chain in chains:
        dl, _, dr = chain[1].shape
        for i in range(dl):
            for j in range(dr):
                npt.assert_array_equal(mid[lo_l + i, :, lo_r + j], chain[1][i, :, j])
                filled[lo_l + i, :, lo_r + j] = True
        lo_l, lo_r = lo_l + dl, lo_r + dr
    assert not np.any(mid[~filled])
    # coefficients land on the first sites only
    npt.assert_array_equal(out[0], np.concatenate([c * chain[0] for c, chain in zip(coeffs, chains)], axis=2))
    npt.assert_array_equal(out[-1], np.concatenate([chain[-1] for chain in chains], axis=0))


def test_chain_sum_of_mpo_chains():
    rng = np.random.default_rng(21)
    a = random_chain(rng, (1, 3, 2, 1), (2, 2))
    b = random_chain(rng, (1, 2, 4, 1), (2, 2))
    out = chain_sum([a, b])
    assert [w.shape for w in out] == [(1, 2, 2, 5), (5, 2, 2, 6), (6, 2, 2, 1)]
    dense = [np.einsum("apqb,brsc,ctud->prtqsu", *ws) for ws in (out, a, b)]
    npt.assert_allclose(dense[0], dense[1] + dense[2], atol=TOL)


def test_chain_sum_of_one_site_chains_adds_the_arrays():
    rng = np.random.default_rng(22)
    arrays = [rng.standard_normal((3, 2, 4)) for _ in range(3)]
    (out,) = chain_sum([[x] for x in arrays], (1.0, -0.25, 3.0))
    npt.assert_array_equal(out, (1.0 * arrays[0] + -0.25 * arrays[1]) + 3.0 * arrays[2])
    (plain,) = chain_sum([[x] for x in arrays])
    npt.assert_array_equal(plain, (arrays[0] + arrays[1]) + arrays[2])


def test_chain_sum_with_a_zero_width_interior_bond():
    rng = np.random.default_rng(23)
    empty = random_chain(rng, (1, 2, 0, 3, 1), (2,))  # represents the zero state
    full = random_chain(rng, (1, 2, 4, 2, 1), (2,))
    out = chain_sum([empty, full], (2.0, -0.5))
    assert [a.shape for a in out] == [(1, 2, 4), (4, 2, 4), (4, 2, 5), (5, 2, 1)]
    npt.assert_allclose(dense_chain(out), -0.5 * dense_chain(full), atol=TOL)


@pytest.mark.parametrize("length", [1, 2, 4])
def test_chain_sum_n_ary_equals_nested_pairs_bitwise(length):
    rng = np.random.default_rng(24 + length)
    bonds = [(1,) + tuple(rng.integers(1, 4, size=length - 1)) + (1,) for _ in range(3)]
    a, b, c = (random_chain(rng, bs, (2,)) for bs in bonds)
    once = chain_sum([a, b, c], (0.3, -1.7, 2.9))
    nested = chain_sum([chain_sum([a, b], (0.3, -1.7)), c], (1.0, 2.9))
    assert [x.shape for x in once] == [y.shape for y in nested]
    assert all(np.array_equal(x, y) for x, y in zip(once, nested))


def test_chain_sum_rejects_unequal_lengths():
    rng = np.random.default_rng(25)
    with pytest.raises(ValueError):
        chain_sum([random_chain(rng, (1, 2, 1), (2,)), random_chain(rng, (1, 2, 2, 1), (2,))])
    with pytest.raises(ValueError):
        chain_sum([random_chain(rng, (1, 2, 1), (2,))], (1.0, 2.0))


# ---------- transfers ----------


def test_transfer_left_matches_explicit_loops():
    rng = np.random.default_rng(0)
    env = rng.standard_normal((3, 4))
    bra = rng.standard_normal((3, 2, 5))
    ket = rng.standard_normal((4, 2, 6))
    want = np.zeros((5, 6))
    for a in range(3):
        for b in range(4):
            for p in range(2):
                for a2 in range(5):
                    for b2 in range(6):
                        want[a2, b2] += env[a, b] * bra[a, p, a2] * ket[b, p, b2]
    npt.assert_allclose(transfer_left(env, bra, ket), want, atol=TOL)


def test_transfer_right_matches_explicit_loops():
    rng = np.random.default_rng(1)
    env = rng.standard_normal((5, 6))
    bra = rng.standard_normal((3, 2, 5))
    ket = rng.standard_normal((4, 2, 6))
    want = np.zeros((3, 4))
    for a in range(3):
        for b in range(4):
            for p in range(2):
                for a2 in range(5):
                    for b2 in range(6):
                        want[a, b] += bra[a, p, a2] * ket[b, p, b2] * env[a2, b2]
    npt.assert_allclose(transfer_right(env, bra, ket), want, atol=TOL)


def test_transfers_close_to_the_same_overlap():
    rng = np.random.default_rng(2)
    dims = [1, 3, 4, 2, 1]
    bras = [rng.standard_normal((dims[i], 2, dims[i + 1])) for i in range(4)]
    kets = [rng.standard_normal((dims[i], 2, dims[i + 1])) for i in range(4)]
    left, right = np.ones((1, 1)), np.ones((1, 1))
    for bra, ket in zip(bras, kets):
        left = transfer_left(left, bra, ket)
    for bra, ket in zip(reversed(bras), reversed(kets)):
        right = transfer_right(right, bra, ket)
    dense_bra = np.einsum("aib,bjc,ckd,dle->ijkl", *bras).reshape(-1)
    dense_ket = np.einsum("aib,bjc,ckd,dle->ijkl", *kets).reshape(-1)
    npt.assert_allclose(left[0, 0], dense_bra @ dense_ket, atol=TOL)
    npt.assert_allclose(right[0, 0], dense_bra @ dense_ket, atol=TOL)


# ---------- (bra, MPO, ket) networks ----------


def window_inputs(seed, n_sites, w=3, d=2):
    """Random environments (bra, MPO, ket) and MPO sites for an n-site window."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((4, w, 5))
    right = rng.standard_normal((6, w, 7))
    ws = [rng.standard_normal((w, d, d, w)) for _ in range(n_sites)]
    return rng, left, ws, right


def mats(ws):
    """The kernel matrices of MPO sites, as :attr:`kdmps.mpo.Mpo.ops` holds them."""
    return [mpo_matrix(w) for w in ws]


def test_apply_window_bond_matrix_matches_einsum():
    rng, left, _, right = window_inputs(10, 0)
    c = rng.standard_normal((5, 7))
    want = np.einsum("bwk,kr,cwr->bc", left, c, right)
    npt.assert_allclose(apply_window(left, (), (c,), right), want, atol=TOL)


def test_apply_window_dense_two_site_ket_matches_einsum():
    rng, left, ws, right = window_inputs(11, 2)
    x = rng.standard_normal((5, 2, 2, 7))
    want = np.einsum("bwk,wpqv,vstu,kqtr,cur->bpsc", left, ws[0], ws[1], x, right)
    npt.assert_allclose(apply_window(left, mats(ws), (x,), right), want, atol=TOL)


def test_apply_window_split_ket_matches_dense_one():
    rng, left, ws, right = window_inputs(12, 2)
    k1 = rng.standard_normal((5, 2, 3))
    k2 = rng.standard_normal((3, 2, 7))
    want = np.einsum("bwk,wpqv,vstu,kqm,mtr,cur->bpsc", left, ws[0], ws[1], k1, k2, right)
    got = apply_window(left, mats(ws), (k1, k2), right)
    npt.assert_allclose(got, want, atol=TOL)
    npt.assert_allclose(got, apply_window(left, mats(ws), (np.tensordot(k1, k2, axes=(2, 0)),), right), atol=TOL)


def test_apply_window_two_site_ket_then_one_site_ket_matches_einsum():
    rng, left, ws, right = window_inputs(13, 3)
    x = rng.standard_normal((5, 2, 2, 3))
    k3 = rng.standard_normal((3, 2, 7))
    want = np.einsum("bwk,wpqv,vstu,uyzx,kqtm,mzr,cxr->bpsyc", left, *ws, x, k3, right)
    npt.assert_allclose(apply_window(left, mats(ws), (x, k3), right), want, atol=TOL)


def test_apply_window_three_one_site_kets_matches_einsum():
    rng, left, ws, right = window_inputs(15, 3)
    k1, k2, k3 = (rng.standard_normal(shape) for shape in ((5, 2, 3), (3, 2, 4), (4, 2, 7)))
    want = np.einsum("bwk,wpqv,vstu,uyzx,kqm,mtn,nzr,cxr->bpsyc", left, *ws, k1, k2, k3, right)
    npt.assert_allclose(apply_window(left, mats(ws), (k1, k2, k3), right), want, atol=TOL)


def test_apply_window_three_site_ket_matches_einsum():
    rng, left, ws, right = window_inputs(16, 3)
    x = rng.standard_normal((5, 2, 2, 2, 7))
    want = np.einsum("bwk,wpqv,vstu,uyzx,kqtzr,cxr->bpsyc", left, *ws, x, right)
    npt.assert_allclose(apply_window(left, mats(ws), (x,), right), want, atol=TOL)


def test_env_step_right_on_transposed_views_matches_einsum():
    rng, _, (w,), _ = window_inputs(18, 1)
    # every input a non-contiguous view of an array stored in another order
    bra = rng.standard_normal((6, 2, 4)).transpose(2, 1, 0)
    ket = rng.standard_normal((7, 2, 5)).transpose(2, 1, 0)
    w = np.ascontiguousarray(w.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
    right = rng.standard_normal((7, 3, 6)).transpose(2, 1, 0)
    assert not any(a.flags.c_contiguous for a in (bra, ket, w, right))
    want = np.einsum("cvr,bpc,wpqv,kqr->bwk", right, bra, w, ket)
    npt.assert_allclose(env_step_right(right, bra, mpo_matrix(w.transpose(3, 1, 2, 0)), ket), want, atol=TOL)


def test_ket_and_mpo_steps_write_into_the_leading_entries_of_a_buffer():
    rng = np.random.default_rng(8)
    op = heisenberg_mpo(4).ops[1]
    env = rng.standard_normal((3, 2, op.shape[1] // 2, 4))  # (bra, one output leg, MPO bond, ket)
    ket = rng.standard_normal((4, 2, 6))
    y = ket_step(env, ket)
    z = mpo_step(y, op, 1)
    ket_buf, mpo_buf = np.full(y.size + 7, np.nan), np.full(z.size + 7, np.nan)
    y_out = ket_step(env, ket, ket_buf)
    z_out = mpo_step(y_out, op, 1, mpo_buf)
    assert np.array_equal(y_out, y) and np.shares_memory(y_out, ket_buf)
    assert np.array_equal(z_out, z) and np.shares_memory(z_out, mpo_buf)
    assert np.isnan(ket_buf[y.size :]).all() and np.isnan(mpo_buf[z.size :]).all()
    with pytest.raises(ValueError, match="the buffer holds"):
        ket_step(env, ket, np.empty(y.size - 1))
    with pytest.raises(ValueError, match="the buffer holds"):
        mpo_step(y, op, 1, np.empty(z.size - 1))


@pytest.mark.parametrize("build", [lambda: heisenberg_mpo(5), lambda: haldane_shastry_mpo(6)])
def test_mpo_matrices_are_built_once_per_direction(build):
    h = build()
    for attr, site_view in (("ops", lambda w: w), ("mirrored_ops", lambda w: w.transpose(3, 1, 2, 0))):
        mats = getattr(h, attr)
        assert getattr(h, attr) is mats
        assert len(mats) == h.L
        for t, m in zip(h.sites, mats):
            w = site_view(t.data)
            npt.assert_array_equal(m, w.transpose(1, 3, 0, 2).reshape(w.shape[1] * w.shape[3], -1))
            assert not m.flags.writeable


def test_env_steps_match_einsum():
    rng, _, (w,), _ = window_inputs(14, 1)
    bra = rng.standard_normal((4, 2, 6))
    ket = rng.standard_normal((5, 2, 7))
    left = rng.standard_normal((4, 3, 5))
    want = np.einsum("bwk,bpc,wpqv,kqr->cvr", left, bra, w, ket)
    npt.assert_allclose(env_step_left(left, bra, mpo_matrix(w), ket), want, atol=TOL)
    right = rng.standard_normal((6, 3, 7))
    want = np.einsum("cvr,bpc,wpqv,kqr->bwk", right, bra, w, ket)
    npt.assert_allclose(env_step_right(right, bra, mpo_matrix(w.transpose(3, 1, 2, 0)), ket), want, atol=TOL)


def test_tensor_rejects_duplicate_legs():
    with pytest.raises(ValueError, match="unique"):
        Tensor(np.zeros((2, 2)), ("a", "a"))


# ---------- svd_split ----------


def test_svd_identity_no_truncation():
    u, s, vh, dw = svd_split(np.eye(2))
    npt.assert_allclose(s, [1.0, 1.0], atol=TOL)
    npt.assert_allclose(u @ vh, np.eye(2), atol=TOL)
    assert dw == 0.0


def test_svd_rank_one_outer_product():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0])
    u, s, vh, dw = svd_split(np.outer(a, b))
    npt.assert_allclose(s, [1.0], atol=TOL)
    assert dw == 0.0


def test_svd_truncation_discarded_weight_matches_full_svd():
    rng = np.random.default_rng(11)
    t = rng.standard_normal((6, 4))
    full_s = np.linalg.svd(t, compute_uv=False)
    u, s, vh, dw = svd_split(t, TruncationPolicy(max_rank=2))
    npt.assert_allclose(dw, np.sum(full_s[2:] ** 2), atol=1e-14)
    approx = (u * s) @ vh
    npt.assert_allclose(np.linalg.norm(t - approx) ** 2, dw, atol=1e-13)


def test_svd_reconstruction_invariant_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        shape = tuple(int(rng.integers(2, 5)) for _ in range(3))
        t = rng.standard_normal(shape)
        policy = TruncationPolicy(max_rank=int(rng.integers(1, 5)))
        u, s, vh, dw = svd_split(t.reshape(shape[0] * shape[1], shape[2]), policy)
        recon = ((u * s) @ vh).reshape(shape)
        err2 = np.linalg.norm(t - recon) ** 2
        assert abs(err2 - dw) <= 1e-20 * np.linalg.norm(t) ** 2 + 1e-13
        npt.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=TOL)
        npt.assert_allclose(vh @ vh.T, np.eye(vh.shape[0]), atol=TOL)
        assert np.all(np.diff(s) <= 1e-15)


def test_svd_zero_tensor_gives_rank_zero():
    u, s, vh, dw = svd_split(np.zeros((3, 4)))
    assert s.shape == (0,)
    assert u.shape == (3, 0) and vh.shape == (0, 4)
    assert dw == 0.0


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((5, 5))
    u1, _, _, _ = svd_split(t)
    u2, _, _, _ = svd_split(t.copy())
    npt.assert_array_equal(u1, u2)
    for j in range(u1.shape[1]):
        col = u1[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_truncation_policy_validation_and_degeneracy():
    with pytest.raises(ValueError):
        TruncationPolicy(max_rank=0)
    with pytest.raises(ValueError):
        TruncationPolicy(rel_cutoff=1.0)
    # a degenerate pair across the rank boundary is kept together
    s = np.array([1.0, 0.5, 0.5 - 1e-14, 0.1])
    assert TruncationPolicy(max_rank=2).kept_count(s) == 3
    # rel_cutoff drops strictly smaller values only
    s = np.array([1.0, 0.5, 1e-8])
    assert TruncationPolicy(rel_cutoff=1e-8).kept_count(s) == 3
    assert TruncationPolicy(rel_cutoff=2e-8).kept_count(s) == 2


# ---------- orthogonal_complement ----------


def test_complement_of_first_basis_column():
    comp = orthogonal_complement(np.array([[1.0], [0.0]]))
    npt.assert_allclose(np.abs(comp), [[0.0], [1.0]], atol=TOL)


def test_complement_of_full_unitary_is_empty():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    comp = orthogonal_complement(q)
    assert comp.shape == (4, 0)


def test_complement_matches_gram_schmidt_oracle():
    rng = np.random.default_rng(9)
    a = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    comp = orthogonal_complement(a)
    # independent oracle: Gram-Schmidt the residuals of the standard basis
    basis = []
    for e in np.eye(6).T:
        v = e - a @ (a.T @ e)
        for b in basis:
            v = v - b * (b @ v)
        if np.linalg.norm(v) > 1e-10:
            basis.append(v / np.linalg.norm(v))
    oracle = np.column_stack(basis)
    npt.assert_allclose(comp.T @ comp, np.eye(4), atol=TOL)
    npt.assert_allclose(a.T @ comp, 0, atol=TOL)
    # same span as the oracle complement
    npt.assert_allclose(oracle @ (oracle.T @ comp), comp, atol=1e-10)


def test_complement_stacks_to_unitary():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, m + 1))
        a = np.linalg.qr(rng.standard_normal((m, k)))[0][:, :k]
        comp = orthogonal_complement(a)
        u = np.hstack([a, comp])
        npt.assert_allclose(np.max(np.abs(u.T @ u - np.eye(m))), 0, atol=TOL)


def test_complement_rejects_non_isometry():
    with pytest.raises(ValueError, match="not an isometry"):
        orthogonal_complement(np.ones((3, 2)))


def test_qr_rq_split_roundtrip():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((3, 2, 4))
    q, r = qr(t.reshape(6, 4))
    npt.assert_allclose((q @ r).reshape(t.shape), t, atol=TOL)
    npt.assert_allclose(q.T @ q, np.eye(4), atol=TOL)
    # the sign rule of svd_split and orthogonal_complement: each Q column's largest-magnitude entry is positive
    assert np.all(q[np.argmax(np.abs(q), axis=0), np.arange(4)] > 0.0)
    # the mirrored move: t = r' q' with orthonormal rows of q', from QR of t^T
    q, r = qr(t.reshape(3, 8).T)
    npt.assert_allclose((r.T @ q.T).reshape(t.shape), t, atol=TOL)
    npt.assert_allclose(q.T @ q, np.eye(3), atol=TOL)
    assert np.all(q[np.argmax(np.abs(q), axis=0), np.arange(3)] > 0.0)


# ---------- blobs ----------


def test_tensor_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    path = tmp_path / "t.ten"
    path.write_bytes(tensor_blob(a))
    back = read_tensor_blob(path, (2, 3, 4))
    npt.assert_array_equal(back, a)
    header = b"KDMPSTEN" + np.array([3], "<u4").tobytes() + np.array([2, 3, 4], "<u8").tobytes()
    assert path.read_bytes() == header + a.astype("<f8").tobytes()


def test_tensor_blob_bad_magic(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensor_blob(path, (2,))


def test_tensor_blob_of_another_shape_or_size_raises_value_error(tmp_path):
    path = tmp_path / "t.ten"
    raw = tensor_blob(np.random.default_rng(3).standard_normal((2, 3, 4)))
    path.write_bytes(raw)
    for shape in ((2, 3, 5), (2, 12), (2, 3, 4, 1)):
        with pytest.raises(ValueError, match=r"t\.ten has shape \(2, 3, 4\), but the manifest gives"):
            read_tensor_blob(path, shape)
    path.write_bytes(raw + bytes(3))
    with pytest.raises(ValueError, match=r"t\.ten: the blob runs 3 bytes past its payload"):
        read_tensor_blob(path, (2, 3, 4))
    # a header claiming 2^32 - 1 extents is checked against the file's size
    # before any of them is read
    path.write_bytes(b"KDMPSTEN" + np.array([2**32 - 1], "<u4").tobytes() + bytes(16))
    with pytest.raises(ValueError, match=r"t\.ten: the blob is truncated"):
        read_tensor_blob(path, (2, 3, 4))


def test_tensor_blob_cut_short_raises_value_error(tmp_path):
    path = tmp_path / "t.ten"
    path.write_bytes(tensor_blob(np.random.default_rng(2).standard_normal((2, 3, 4))))
    raw = path.read_bytes()
    for size in (10, 8 + 4 + 8, len(raw) - 8):  # in the rank, in the extents, in the payload
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match=r"t\.ten: the blob is truncated"):
            read_tensor_blob(path, (2, 3, 4))
