"""Dense complex and sparse real linear algebra with deterministic results.

Conventions used throughout the package:

  * complex matrices are numpy arrays of dtype complex128,
  * Hermitian eigendecompositions return eigenvalues in ascending order
    with eigenvectors as columns,
  * sparse real systems are scipy CSR matrices,
  * there is one rank rule: a singular value counts toward the rank when
    it exceeds tol times the largest singular value of the matrix. The
    nullspace takes a dense SVD of each connected column block of the
    sparse matrix and keeps the right singular vectors at or below that
    cut, so ||A v|| <= tol * ||A||_2 for every basis vector v; the solver's
    SVD of the target rows cuts with the same rule. All problem data is
    O(1) by construction, and the homogeneous blocks have a wide gap
    between kept and dropped singular values, so the cut sits far from
    the floating-point floor.

The Hermitian parametrization maps an M x M Hermitian matrix to a real
vector of length M^2 ordered as

    [ diagonal | sqrt(2) * Re(strict upper triangle) | sqrt(2) * Im(...) ]

which is an isometry between the Frobenius inner product on Hermitian
matrices and the Euclidean inner product on coordinates.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NoConvergence, NotHermitian

DEFAULT_RANK_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8


def as_cmatrix(entries, size=None):
    """Coerce to a finite complex 2-D array, optionally checking it is size x size."""
    M = np.asarray(entries, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    if size is not None and M.shape != (size, size):
        raise DimensionMismatch(f"expected shape {(size, size)}, got {M.shape}")
    return M


def herm_eig(M, tol=1e-10):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    NotHermitian when ||M - M*||_F exceeds tol * ||M||_F and NoConvergence
    if the underlying QR iteration fails.
    """
    M = as_cmatrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"herm_eig needs a square matrix, got {M.shape}")
    scale = np.linalg.norm(M)
    dev = np.linalg.norm(M - M.conj().T)
    if dev > tol * max(scale, 1e-300):
        raise NotHermitian(f"asymmetry {dev:.3e} exceeds {tol:.1e} * ||M||")
    H = 0.5 * (M + M.conj().T)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w, V


def _rank(s, smax, tol):
    """The rank cut: how many of the singular values s (last axis) exceed tol * smax."""
    return np.count_nonzero(s > tol * smax, axis=-1)


def _column_blocks(csr):
    """Label columns by connected component of the co-occurrence graph.

    Two columns belong to the same block when some row carries nonzeros in
    both. Labels start as the column indices; each round gives every
    column the smallest label among the rows it occurs in, then replaces
    each label by the label of the column it names, until a round changes
    nothing. Each column is then labelled with the smallest column of its
    block. Returns (number of blocks, label of each column), with blocks
    numbered in the order of their smallest column. (scipy's csgraph would
    do the same, but importing it costs about 0.16 s and 11 MB.)
    """
    nrows, ncols = csr.shape
    rows = np.repeat(np.arange(nrows), np.diff(csr.indptr))
    labels = np.arange(ncols)
    while True:
        row_min = np.full(nrows, ncols)
        np.minimum.at(row_min, rows, labels[csr.indices])
        spread = labels.copy()
        np.minimum.at(spread, csr.indices, row_min[rows])
        spread = spread[spread]
        if np.array_equal(spread, labels):
            break
        labels = spread
    firsts, blocks = np.unique(labels, return_inverse=True)
    return firsts.size, blocks


def _positions(labels, count):
    """Index of each item among the items with its label, and each label's size."""
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(labels.size, dtype=np.int64)
    pos[np.argsort(labels, kind="stable")] = np.arange(labels.size) - np.repeat(starts, sizes)
    return pos, sizes


def nullspace(A, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the numerical nullspace of a sparse real matrix.

    The columns are split into the connected blocks of their co-occurrence
    graph, which permutes A into block-diagonal form, and every block gets a
    dense SVD; blocks of equal shape share one batched call, and blocks with
    fewer rows than columns are padded with zero rows. A right singular
    vector is kept when its singular value is at most tol * sigma_max(A),
    where sigma_max(A) = ||A||_2 is the largest singular value of any block,
    so every basis vector v satisfies ||A v|| <= tol * ||A||_2. Basis vectors
    are the rows of a (k, cols) array, ordered by block (smallest column
    first), then by singular index.
    """
    if not sp.issparse(A):
        raise DimensionMismatch(f"expected a sparse matrix, got {type(A).__name__}")
    csr = sp.csr_matrix(A, dtype=float, copy=True)
    csr.sum_duplicates()
    nrows, ncols = csr.shape
    if ncols == 0:
        return np.zeros((0, 0))
    nblocks, col_block = _column_blocks(csr)
    coo = csr.tocoo()
    block = col_block[coo.col]
    # every row with an entry lies in one block; empty rows get a spare label
    row_block = np.full(nrows, nblocks)
    row_block[coo.row] = block
    row_pos, block_rows = _positions(row_block, nblocks + 1)
    col_pos, block_cols = _positions(col_block, nblocks)
    shapes = np.stack([np.maximum(block_rows[:nblocks], block_cols), block_cols], axis=1)
    groups = []
    for shape in np.unique(shapes, axis=0):
        members = np.nonzero((shapes == shape).all(axis=1))[0]
        slot = np.full(nblocks, -1)
        slot[members] = np.arange(members.size)
        sel = slot[block] >= 0
        dense = np.zeros((members.size, *shape))
        dense[slot[block[sel]], row_pos[coo.row[sel]], col_pos[coo.col[sel]]] = coo.data[sel]
        try:
            _, s, Vt = np.linalg.svd(dense, full_matrices=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NoConvergence(str(exc)) from exc
        groups.append((members, s, Vt))
    smax = max(float(s[:, 0].max()) for _, s, _ in groups)
    rank = np.zeros(nblocks, dtype=np.int64)
    for members, s, _ in groups:
        rank[members] = _rank(s, smax, tol)
    kernel = block_cols - rank
    # the vector for singular index j of block b goes to row row0[b] + j
    row0 = np.cumsum(kernel) - kernel - rank
    block_start = np.cumsum(block_cols) - block_cols
    col_order = np.argsort(col_block, kind="stable")
    out = np.zeros((int(kernel.sum()), ncols))
    for members, s, Vt in groups:
        width = s.shape[1]
        b, j = np.nonzero(np.arange(width) >= rank[members, None])
        owner = members[b]
        cols = col_order[block_start[owner, None] + np.arange(width)]
        out[(row0[owner] + j)[:, None], cols] = Vt[b, j]
    return out


@functools.cache
def _strict_upper(m):
    """np.triu_indices(m, k=1), read-only, computed once per size."""
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def hermitian_vec_map(M):
    """Sparse complex map from Hermitian coordinates to the row-major vec(X).

    Returns H of shape (M^2, M^2) with entries 1 and +-1j such that
    vec(X) = H @ (coords / r), where r is 1 on the M diagonal coordinates and
    sqrt(2) on the others. Leaving the sqrt(2) out of H keeps products with
    integer equations exact.
    """
    iu, ju = _strict_upper(M)
    d = np.arange(M)
    t = M + np.arange(iu.size)
    upper, lower = iu * M + ju, ju * M + iu
    rows = np.concatenate([d * M + d, upper, lower, upper, lower])
    cols = np.concatenate([d, t, t, t + iu.size, t + iu.size])
    vals = np.concatenate([np.ones(M + 2 * iu.size), np.full(iu.size, 1j),
                           np.full(iu.size, -1j)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(M * M, M * M))


def kron_eye_map(k, n):
    """Sparse isometry y -> hermitian_encode(decode(y) (x) I_n) / sqrt(n).

    y holds the Hermitian coordinates of a k x k matrix. Coordinate j of y
    is the diagonal entry, or sqrt(2) times the real or imaginary part of
    the entry, at some (a, b) with a <= b; in decode(y) (x) I_n that entry
    sits at the n positions (a n + l, b n + l), all on or above the
    diagonal, so column j has n entries 1 / sqrt(n). The columns have
    disjoint supports: the map has orthonormal columns, and norms, inner
    products and singular values read the same on either side of it.
    """
    M = k * n
    iu, ju = _strict_upper(k)
    lane = np.arange(n)
    diag = np.arange(k)[:, None] * n + lane
    i, j = iu[:, None] * n + lane, ju[:, None] * n + lane
    # position of (i, j), i < j, in the strict upper triangle's row-major order
    pair = (i * (M - 1) - i * (i - 1) // 2 + j - i - 1).reshape(-1)
    rows = np.concatenate([diag.reshape(-1), M + pair, M + M * (M - 1) // 2 + pair])
    cols = np.repeat(np.arange(k * k), n)
    return sp.csr_matrix((np.full(rows.size, 1.0 / np.sqrt(n)), (rows, cols)),
                         shape=(M * M, k * k))


def kron_eye(Y, n):
    """Y (x) I_n as a dense array, exact zeros off the copies of Y's entries."""
    k = Y.shape[0]
    X = np.zeros((k, n, k, n), dtype=complex)
    lane = np.arange(n)
    X[:, lane, :, lane] = Y
    return X.reshape(k * n, k * n)


def hermitian_encode(X, tol=1e-10):
    """Real coordinates of a Hermitian M x M matrix, in the layout above.

    Raises NotHermitian when ||X - X*||_F exceeds tol * ||X||_F.
    dot(encode(P), encode(Q)) equals Re tr(P Q).
    """
    X = as_cmatrix(X)
    if X.shape[0] != X.shape[1]:
        raise DimensionMismatch("Hermitian encode needs a square matrix")
    scale = max(np.linalg.norm(X), 1e-300)
    if np.linalg.norm(X - X.conj().T) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    iu, ju = _strict_upper(X.shape[0])
    return np.concatenate([
        X.diagonal().real,
        np.sqrt(2.0) * X[iu, ju].real,
        np.sqrt(2.0) * X[iu, ju].imag,
    ])


def hermitian_decode(coords, m2):
    """The m2 x m2 Hermitian matrix with the given coordinates; inverse of encode."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (m2 * m2,):
        raise DimensionMismatch(f"need {m2 ** 2} coordinates, got {coords.shape}")
    iu, ju = _strict_upper(m2)
    X = np.zeros((m2, m2), dtype=complex)
    np.fill_diagonal(X, coords[:m2])
    T = iu.size
    upper = (coords[m2:m2 + T] + 1j * coords[m2 + T:]) / np.sqrt(2.0)
    X[iu, ju] = upper
    X[ju, iu] = upper.conj()
    return X
