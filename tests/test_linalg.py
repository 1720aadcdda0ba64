"""Hermitian eigensolve, nullspaces, Hermitian coords."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsderiv.errors import NotHermitian
from qmsderiv.linalg import (herm_eig, hermitian_decode, hermitian_encode,
                             hermitian_vec_map, nullspace)

PI = math.pi


def sparse_from_dense(M):
    return sp.csr_matrix(np.asarray(M, dtype=float))


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


def test_nullspace_identity_empty():
    assert nullspace(sparse_from_dense(np.eye(4))).shape == (0, 4)


def test_nullspace_single_row():
    basis = nullspace(sparse_from_dense([[1.0, 1.0]]))
    assert len(basis) == 1
    v = basis[0]
    expect = np.array([1.0, -1.0]) / math.sqrt(2)
    assert min(np.linalg.norm(v - expect), np.linalg.norm(v + expect)) <= 1e-12


def test_nullspace_zero_matrix():
    basis = nullspace(sp.csr_matrix((1, 3)))
    G = np.array(basis)
    assert G.shape == (3, 3)
    np.testing.assert_allclose(G @ G.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("cols", [40, 401])
def test_nullspace_cut_is_relative_to_the_largest_singular_value(cols):
    # a column scaled by 1e-8 has sigma = 1e-8 > 1e-9 * sigma_max at any size
    A = sp.diags(np.r_[np.ones(cols - 1), 1e-8]).tocsr()
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
