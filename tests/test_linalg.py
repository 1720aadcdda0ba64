"""Hermitian eigensolve and Hermitian coordinates, plus the sparse layer and
block-wise nullspace of the X-space reference (tests/xspace.py)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsderiv.errors import DimensionMismatch, NotHermitian
from qmsderiv.linalg import (herm_eig, hermitian_decode, hermitian_encode,
                             is_hermitian)
from xspace import (CSR, _column_blocks, hermitian_vec_map, kron, nullspace,
                    stable_argsort, vstack)

PI = math.pi


def sparse_from_dense(M):
    return CSR.from_dense(np.asarray(M, dtype=float))


def dense(A):
    out = np.zeros(A.shape, dtype=A.data.dtype)
    np.add.at(out, (A.entry_rows, A.indices), A.data)
    return out


def random_hermitian(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (Z + Z.conj().T) / 2.0


def test_herm_eig_identity():
    w, V = herm_eig(np.eye(3))
    np.testing.assert_allclose(w, np.ones(3))
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_herm_eig_faithful_diagonal_state():
    D = 0.5 * np.diag([1 + 1 / PI, 1 - 1 / PI])
    w, _ = herm_eig(D)
    np.testing.assert_allclose(w, [0.34085, 0.65915], atol=5e-6)


def test_herm_eig_pauli_x():
    w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e8])
def test_one_hermitian_defect_rule_at_every_scale(scale):
    # herm_eig, hermitian_encode and is_hermitian accept and refuse the same
    # matrices: a defect ||M - M*||_F of 0.71e-10 ||M||_F passes, 1.41e-10
    # fails, at any scale, and M = 0 passes
    M = scale * np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    near, off = M.copy(), M.copy()
    near[0, 1] += 0.5e-10 * np.linalg.norm(M)
    off[0, 1] += 1e-10 * np.linalg.norm(M)
    assert is_hermitian(near) and not is_hermitian(off)
    herm_eig(near)
    hermitian_encode(near)
    with pytest.raises(NotHermitian):
        herm_eig(off)
    with pytest.raises(NotHermitian):
        hermitian_encode(off)
    assert is_hermitian(np.zeros((2, 2)))
    np.testing.assert_array_equal(herm_eig(np.zeros((2, 2)))[0], [0.0, 0.0])


def test_hermitian_defect_rule_does_not_overflow():
    # both Frobenius norms of 1e200 E12 overflow unless M is scaled first
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert not is_hermitian(1e200 * E12)
    with pytest.raises(NotHermitian):
        herm_eig(1e200 * E12)
    assert is_hermitian(1e200 * (E12 + E12.T))
    np.testing.assert_allclose(herm_eig(1e200 * (E12 + E12.T))[0],
                               [-1e200, 1e200], rtol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 17, 81])
def test_herm_eig_reconstruction(m):
    rng = np.random.default_rng(m)
    M = random_hermitian(rng, m)
    w, V = herm_eig(M)
    scale = np.linalg.norm(M)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm(M - (V * w) @ V.conj().T) <= 1e-9 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(m)) <= 1e-10 * m
    # per-column eigenvector residual
    assert np.linalg.norm(M @ V - V * w) <= 1e-10 * scale * m


def test_from_triplets_sums_repeats_in_order_and_drops_zeros():
    # 1e16 + 1 - 1e16 is 0 left to right; any other order gives 1 or -1
    A = CSR.from_triplets([1, 0, 1, 1, 0, 0], [2, 1, 2, 2, 0, 0],
                          [1e16, 3.0, 1.0, -1e16, 2.0, -2.0], (2, 3))
    assert A.nnz == 1 and list(A.indptr) == [0, 1, 1]
    assert list(A.indices) == [1] and list(A.data) == [3.0]


def test_csr_rows_vstack_kron_and_products_match_dense():
    rng = np.random.default_rng(7)
    P = rng.standard_normal((5, 4)) * (rng.random((5, 4)) < 0.5)
    Q = rng.standard_normal((3, 2)) * (rng.random((3, 2)) < 0.6)
    A, B = sparse_from_dense(P), sparse_from_dense(Q)
    np.testing.assert_array_equal(dense(A[[4, 0, 0]]), P[[4, 0, 0]])
    np.testing.assert_array_equal(dense(A[P[:, 0] != 0]), P[P[:, 0] != 0])
    np.testing.assert_array_equal(dense(vstack([A, A[[1]]])), np.vstack([P, P[[1]]]))
    np.testing.assert_array_equal(dense(kron(A, B)), np.kron(P, Q))
    np.testing.assert_array_equal(dense(A.T), P.T)
    np.testing.assert_allclose(dense(A @ A.T), P @ P.T, atol=1e-14)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(A @ x, P @ x, atol=1e-14)
    np.testing.assert_allclose(A @ np.outer(x, x), P @ np.outer(x, x), atol=1e-14)
    with pytest.raises(DimensionMismatch):
        A @ np.ones(5)


@pytest.mark.parametrize("high", [5, 2 ** 62])
def test_stable_argsort_is_the_stable_argsort(high):
    # small keys take the packed value sort, huge ones the plain stable sort
    key = np.random.default_rng(3).integers(0, high, 1000)
    np.testing.assert_array_equal(stable_argsort(key),
                                  np.argsort(key, kind="stable"))


def test_nullspace_identity_empty():
    assert nullspace(sparse_from_dense(np.eye(4))).shape == (0, 4)


def test_nullspace_single_row():
    basis = nullspace(sparse_from_dense([[1.0, 1.0]]))
    assert len(basis) == 1
    v = basis[0]
    expect = np.array([1.0, -1.0]) / math.sqrt(2)
    assert min(np.linalg.norm(v - expect), np.linalg.norm(v + expect)) <= 1e-12


def test_nullspace_zero_matrix():
    basis = nullspace(CSR.from_triplets([], [], np.zeros(0), (1, 3)))
    G = np.array(basis)
    assert G.shape == (3, 3)
    np.testing.assert_allclose(G @ G.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("cols", [40, 401])
def test_nullspace_cut_is_relative_to_the_largest_singular_value(cols):
    # a column scaled by 1e-8 has sigma = 1e-8 > 1e-9 * sigma_max at any size
    A = sparse_from_dense(np.diag(np.r_[np.ones(cols - 1), 1e-8]))
    assert nullspace(A, tol=1e-9).shape == (0, cols)
    assert nullspace(A, tol=1e-7).shape == (1, cols)


@pytest.mark.parametrize("seed", range(5))
def test_nullspace_properties(seed):
    rng = np.random.default_rng(100 + seed)
    rows, cols = rng.integers(4, 30), rng.integers(3, 20)
    M = rng.standard_normal((rows, cols))
    M[rng.random((rows, cols)) < 0.5] = 0.0
    basis = nullspace(sparse_from_dense(M))
    rank = np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, np.linalg.norm(M)))
    assert len(basis) == cols - rank
    norm_a = max(1.0, np.linalg.norm(M))
    for v in basis:
        assert np.linalg.norm(M @ v) <= 1e-8 * norm_a
    if len(basis):
        np.testing.assert_allclose(basis @ basis.T, np.eye(len(basis)),
                                   atol=1e-10)


def reference_column_blocks(M):
    # union-find with the smaller root kept, so each root is its block's
    # smallest column; blocks numbered in the order of those roots
    parent = list(range(M.shape[1]))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for row in M:
        cols = np.nonzero(row)[0]
        for c in cols[1:]:
            a, b = find(cols[0]), find(c)
            parent[max(a, b)] = min(a, b)
    roots = [find(c) for c in range(M.shape[1])]
    number = {r: k for k, r in enumerate(sorted(set(roots)))}
    return len(number), [number[r] for r in roots]


@pytest.mark.parametrize("seed", range(4))
def test_column_blocks_match_union_find(seed):
    # sparse random rows plus a shuffled path through a third of the
    # columns, whose long diameter needs many propagation rounds
    rng = np.random.default_rng(300 + seed)
    rows, cols = 40, 60
    M = (rng.random((rows, cols)) < 0.03).astype(float)
    path = rng.permutation(cols)[:cols // 3]
    links = np.zeros((path.size - 1, cols))
    links[np.arange(path.size - 1), path[:-1]] = 1.0
    links[np.arange(path.size - 1), path[1:]] = 1.0
    M = np.vstack([M, links])[rng.permutation(rows + path.size - 1)]
    count, labels = _column_blocks(sparse_from_dense(M))
    assert (count, list(labels)) == reference_column_blocks(M)


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_of_permuted_blocks(seed):
    # blocks of repeated and of short (rows < cols) shapes, an empty row and
    # an empty column, hidden by a random row and column permutation
    rng = np.random.default_rng(200 + seed)
    shapes = [(3, 2), (3, 2), (1, 4), (5, 3), (2, 5), (0, 1)]
    rows, cols = sum(r for r, _ in shapes) + 1, sum(c for _, c in shapes)
    M = np.zeros((rows, cols))
    block_of = np.repeat(np.arange(len(shapes)), [c for _, c in shapes])
    r0 = c0 = 0
    for r, c in shapes:
        B = rng.standard_normal((r, c))
        if c > 1:
            B[:, -1] = B[:, 0]  # rank deficient inside the block
        M[r0:r0 + r, c0:c0 + c] = B
        r0, c0 = r0 + r, c0 + c
    col_perm = rng.permutation(cols)
    M, block_of = M[rng.permutation(rows)][:, col_perm], block_of[col_perm]
    basis = nullspace(sparse_from_dense(M))
    assert len(basis) == cols - np.linalg.matrix_rank(M, tol=1e-9 * np.linalg.norm(M, 2))
    assert np.linalg.norm(M @ basis.T) <= 1e-12 * np.linalg.norm(M, 2)
    np.testing.assert_allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)
    # each vector lives in one block; blocks come in order of smallest column
    first_col = [int(np.nonzero(block_of == b)[0][0]) for b in range(len(shapes))]
    keys = []
    for v in basis:
        owners = set(block_of[np.abs(v) > 1e-12])
        assert len(owners) == 1
        keys.append(first_col[owners.pop()])
    assert keys == sorted(keys)


@settings(deadline=None, max_examples=40)
@given(m2=st.integers(2, 7), seed=st.integers(0, 2 ** 31 - 1))
def test_hermitian_param_roundtrip_and_isometry(m2, seed):
    rng = np.random.default_rng(seed)
    P = random_hermitian(rng, m2)
    Q = random_hermitian(rng, m2)
    cp, cq = hermitian_encode(P), hermitian_encode(Q)
    assert cp.shape == (m2 * m2,)
    np.testing.assert_allclose(hermitian_decode(cp, m2), P, atol=1e-13)
    lhs = float(cp @ cq)
    rhs = float(np.trace(P @ Q).real)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_hermitian_param_from_matrix_checks_hermiticity():
    with pytest.raises(Exception):
        hermitian_encode(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("m2", [1, 2, 5])
def test_hermitian_vec_map_matches_decode(m2):
    X = random_hermitian(np.random.default_rng(m2), m2)
    coords = hermitian_encode(X)
    r = np.where(np.arange(m2 * m2) < m2, 1.0, math.sqrt(2.0))
    np.testing.assert_allclose(hermitian_vec_map(m2) @ (coords / r),
                               X.reshape(-1), atol=1e-14)
