"""Dense complex and sparse real linear algebra with deterministic results.

Conventions used throughout the package:

  * complex matrices are numpy arrays of dtype complex128,
  * Hermitian eigendecompositions return eigenvalues in ascending order
    with eigenvectors as columns,
  * sparse matrices are CSR objects: the arrays indptr, indices and data
    of the compressed-sparse-row layout plus a shape. Built from triplets
    they are canonical (each row's columns ascending, repeats summed, no
    stored zeros). Every product adds each row's terms in stored order,
    left to right from zero, and a sparse product stores each row's
    columns in reverse order of their first term; these are the loops of
    scipy's csr_matvec, csr_matvecs and csr_matmat, so the products equal
    scipy's bit for bit,
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


def _indptr(row, nrows):
    """Row pointers for entries whose (ascending) rows are given."""
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=nrows), out=indptr[1:])
    return indptr


def stable_argsort(key):
    """np.argsort(key, kind="stable") for integer keys.

    When every key is non-negative and leaves room below bit 63 for the
    positions, this is one value sort of (key, position) packed into an
    int64, several times faster than a stable argsort on random keys.
    """
    key = np.asarray(key, dtype=np.int64)
    bits = max(key.size - 1, 0).bit_length()
    if not (key.size and 0 <= key.min() and key.max() < 1 << (63 - bits)):
        return np.argsort(key, kind="stable")
    packed = key << bits
    packed |= np.arange(key.size)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def _sum_repeats(key, vals):
    """(distinct keys ascending, sums, first position of each key).

    The values of a key are added left to right in the order given.
    """
    order = stable_argsort(key)
    key, vals = key[order], vals[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts, repeats = np.flatnonzero(new), np.flatnonzero(~new)
    sums = vals[starts]
    np.add.at(sums, np.searchsorted(starts, repeats) - 1, vals[repeats])
    return key[starts], sums, order[starts]


def _product_terms(rows, cols, vals, B):
    """(row, column, value) of every term v B[k, j] of A @ B, where A has the
    entries vals at (rows, cols): entry by entry, then in stored order of
    B's row k."""
    count = np.diff(B.indptr)[cols]
    term = np.repeat(np.arange(cols.size), count)
    at = np.arange(term.size) + np.repeat(B.indptr[cols] - np.cumsum(count) + count, count)
    return rows[term], B.indices[at], vals[term] * B.data[at]


class CSR:
    """A sparse matrix in compressed sparse row form (module docstring).

    Row r stores data[indptr[r]:indptr[r + 1]] at the columns
    indices[indptr[r]:indptr[r + 1]]. Instances are not modified after
    construction.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """The canonical matrix with vals[k] added at (rows[k], cols[k]).

        Values at one position are summed in the order given; positions
        whose sum is zero are left out.
        """
        ncols = int(shape[1])
        key = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
        key, sums, _ = _sum_repeats(key, np.asarray(vals))
        keep = sums != 0
        key = key[keep]
        row = key // ncols
        return cls(_indptr(row, shape[0]), key - row * ncols, sums[keep], shape)

    @classmethod
    def from_dense(cls, M):
        M = np.asarray(M)
        r, c = np.nonzero(M)
        return cls.from_triplets(r, c, M[r, c], M.shape)

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def T(self):
        return CSR.from_triplets(self.indices, self.entry_rows, self.data, self.shape[::-1])

    @functools.cached_property
    def entry_rows(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def conj(self):
        return CSR(self.indptr, self.indices, self.data.conj(), self.shape)

    def __getitem__(self, rows):
        """The rows picked by an index array or a boolean mask, in that order."""
        rows = np.arange(self.shape[0])[rows]
        start = self.indptr[rows]
        length = self.indptr[rows + 1] - start
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(length, out=indptr[1:])
        at = np.repeat(start - indptr[:-1], length) + np.arange(indptr[-1])
        return CSR(indptr, self.indices[at], self.data[at],
                   (rows.size, self.shape[1]))

    def __matmul__(self, other):
        if not isinstance(other, CSR):
            other = np.asarray(other)
        if other.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if isinstance(other, CSR):
            return self._times_sparse(other)
        return self._times_dense(other)

    def _times_sparse(self, B):
        """csr_matmat: row r sums its terms A[r, k] B[k, j] in stored order
        of A's row, then of B's row k, and stores its columns in reverse
        order of their first term; zero sums are left out."""
        ncols = B.shape[1]
        row, col, vals = _product_terms(self.entry_rows, self.indices, self.data, B)
        key, sums, first = _sum_repeats(row * ncols + col, vals)
        keep = sums != 0
        key, sums, first = key[keep], sums[keep], first[keep]
        row = key // ncols
        indptr = _indptr(row, self.shape[0])
        # terms run row by row, so the rank of a first term among all first
        # terms is its row's start plus its rank within the row
        is_first = np.zeros(vals.size, dtype=bool)
        is_first[first] = True
        rank = np.cumsum(is_first)[first] - 1
        at = indptr[row] + indptr[row + 1] - 1 - rank
        indices, data = np.empty_like(key), np.empty_like(sums)
        indices[at], data[at] = key - row * ncols, sums
        return CSR(indptr, indices, data, (self.shape[0], ncols))

    def _times_dense(self, x):
        """csr_matvec(s) for a vector or a matrix x: out[r] = ((0 + d_0 x[c_0])
        + d_1 x[c_1]) + ... over row r's stored entries (d_k, c_k); bincount
        adds its weights in order."""
        if x.ndim == 1:
            terms, slots, shape = self.data * x[self.indices], self.entry_rows, None
        else:
            width = x.shape[1]
            terms = (self.data[:, None] * x[self.indices]).reshape(-1)
            slots = (self.entry_rows[:, None] * width + np.arange(width)).reshape(-1)
            shape = (self.shape[0], width)
        size = self.shape[0] * (1 if shape is None else shape[1])
        if terms.dtype.kind == "c":
            out = np.empty(size, dtype=terms.dtype)
            out.real = np.bincount(slots, weights=terms.real, minlength=size)
            out.imag = np.bincount(slots, weights=terms.imag, minlength=size)
        else:
            out = np.bincount(slots, weights=terms, minlength=size)
        return out if shape is None else out.reshape(shape)


def vstack(blocks):
    """The blocks' rows, one block after another."""
    offsets = np.cumsum([0] + [b.nnz for b in blocks])
    return CSR(np.concatenate([[0]] + [b.indptr[1:] + o for b, o in zip(blocks, offsets)]),
               np.concatenate([b.indices for b in blocks]),
               np.concatenate([b.data for b in blocks]),
               (sum(b.shape[0] for b in blocks), blocks[0].shape[1]))


def kron(A, B):
    """The Kronecker product A (x) B, canonical."""
    (p, q), (r, s) = A.shape, B.shape
    return CSR.from_triplets((A.entry_rows[:, None] * r + B.entry_rows).reshape(-1),
                             (A.indices[:, None] * s + B.indices).reshape(-1),
                             (A.data[:, None] * B.data).reshape(-1), (p * r, q * s))


def _column_blocks(csr):
    """Label columns by connected component of the co-occurrence graph.

    Two columns belong to the same block when some row carries nonzeros in
    both. Labels start as the column indices; each round gives every
    column the smallest label among the rows it occurs in, then replaces
    each label by the label of the column it names, until a round changes
    nothing. Each column is then labelled with the smallest column of its
    block. Returns (number of blocks, label of each column), with blocks
    numbered in the order of their smallest column.
    """
    nrows, ncols = csr.shape
    rows = csr.entry_rows
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
    if not isinstance(A, CSR):
        raise DimensionMismatch(f"expected a CSR matrix, got {type(A).__name__}")
    csr = CSR.from_triplets(A.entry_rows, A.indices, np.asarray(A.data, dtype=float),
                            A.shape)
    nrows, ncols = csr.shape
    if ncols == 0:
        return np.zeros((0, 0))
    nblocks, col_block = _column_blocks(csr)
    row, col, data = csr.entry_rows, csr.indices, csr.data
    block = col_block[col]
    # every row with an entry lies in one block; empty rows get a spare label
    row_block = np.full(nrows, nblocks)
    row_block[row] = block
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
        dense[slot[block[sel]], row_pos[row[sel]], col_pos[col[sel]]] = data[sel]
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
    return CSR.from_triplets(rows, cols, vals, (M * M, M * M))


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
    return CSR.from_triplets(rows, cols, np.full(rows.size, 1.0 / np.sqrt(n)),
                             (M * M, k * k))


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
