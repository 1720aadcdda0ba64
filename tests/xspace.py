"""The X-space reference: the feasibility system's homogeneous rows over X.

This is the assembly the solver used before it moved to the bimodule
coordinates (Q1, Q2): the intertwining equations X L_a = L_{a*}^H X and
X R_a = R_{a*}^H X, with L_a and R_a the matrices of left_action and
right_action, written as real rows over the Hermitian coordinates of the
n^4 x n^4 matrix X, scaled to unit norm and deduplicated, together with the
target rows and the isometry E from the coordinates of Y to those of
X = Y (x) I_n. Its sparse layer (CSR, products in scipy's summation order)
and its block-wise nullspace come with it. The tests keep it as the
independent reference that the coordinates q are checked against: the span
of the forms X(q) must equal the nullspace of ``system_template(n).hom``,
and the blocks are pinned by digest so that the reference cannot drift.
"""
import functools
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from qmsderiv.constraints import _tidx, left_action, psi_vector, right_action
from qmsderiv.errors import DimensionMismatch, NoConvergence
from qmsderiv.linalg import DEFAULT_RANK_TOL, _rank, _strict_upper

_SQRT2 = np.sqrt(2.0)


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
    """A sparse matrix in compressed sparse row form.

    Row r stores data[indptr[r]:indptr[r + 1]] at the columns
    indices[indptr[r]:indptr[r + 1]]. Instances are not modified after
    construction. Built from triplets a matrix is canonical (each row's
    columns ascending, repeats summed in the order given, no stored zeros).
    Every product adds each row's terms in stored order, left to right from
    zero, and a sparse product stores each row's columns in reverse order of
    their first term: the loops of scipy's csr_matvec, csr_matvecs and
    csr_matmat, so the products equal scipy's bit for bit.
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


def _intertwiner(PT, QH, order, M):
    """Triplets of the rows `order` of I (x) PT - QH (x) I.

    Row i M + j of I (x) PT - QH (x) I over the row-major vec(X) is row j of
    PT at the columns i M + k minus row i of QH at the columns k M + j.
    """
    i, j = np.divmod(order, M)
    left, right = PT[j], QH[i]
    lrow, rrow = left.entry_rows, right.entry_rows
    return (np.concatenate([lrow, rrow]),
            np.concatenate([i[lrow] * M + left.indices, right.indices * M + j[rrow]]),
            np.concatenate([left.data, -right.data]))


def _real_rows(E, nrows, herm, M):
    """Real and imaginary parts, interleaved, of complex equations over vec(X).

    E holds the (row, column, value) triplets of nrows equations with
    integer coefficients on the row-major vec(X); the result is real CSR
    over the Hermitian coordinates, rows (2r, 2r + 1) from equation r,
    without explicit zeros and with sorted indices.
    """
    # E @ herm with each row's columns ascending: the sums are exact
    G = CSR.from_triplets(*_product_terms(*E, herm), (nrows, herm.shape[1]))
    row = G.entry_rows
    # the off-diagonal coordinates carry the sqrt(2) that herm leaves out
    r = np.where(G.indices < M, 1.0, _SQRT2)
    # row q's real parts, then its imaginary parts, make rows 2q and 2q + 1
    at = np.arange(G.nnz) + G.indptr[row]
    at = np.concatenate([at, at + np.diff(G.indptr)[row]])
    rows, cols = np.empty(at.size, dtype=np.int64), np.empty(at.size, dtype=np.int64)
    vals = np.empty(at.size)
    rows[at] = np.concatenate([2 * row, 2 * row + 1])
    cols[at] = np.tile(G.indices, 2)
    vals[at] = np.concatenate([G.data.real / r, G.data.imag / r])
    keep = vals != 0
    return CSR(_indptr(rows[keep], 2 * G.shape[0]), cols[keep], vals[keep],
               (2 * G.shape[0], G.shape[1]))


def _unit_rows(R):
    """Scale each nonempty row to unit norm with a positive first entry."""
    norm = np.sqrt(np.add.reduceat(R.data ** 2, R.indptr[:-1]))
    rescale = np.where(R.data[R.indptr[:-1]] > 0, 1.0, -1.0) / norm
    return CSR(R.indptr, R.indices, R.data * np.repeat(rescale, np.diff(R.indptr)),
               R.shape)


def _row_keys(R):
    """One 64-bit hash per row of its (column, value bits) entries."""
    z = R.indices.astype(np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= R.data.view(np.uint64)
    # splitmix64 finaliser
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.add.reduceat(z, R.indptr[:-1])


def _rows_equal(R, a, b):
    """Elementwise: row a[k] of R equals row b[k] exactly."""
    ptr = R.indptr
    length = ptr[a + 1] - ptr[a]
    equal = length == ptr[b + 1] - ptr[b]
    for k in range(length.max(initial=0)):
        live = np.flatnonzero(equal & (length > k))
        ea, eb = ptr[a[live]] + k, ptr[b[live]] + k
        equal[live] = (R.indices[ea] == R.indices[eb]) & (R.data[ea] == R.data[eb])
    return equal


def _first_occurrences(R):
    """Ascending indices of the first copy of each distinct nonempty row."""
    # the hash's top bits, leaving stable_argsort room for the row positions
    keys = (_row_keys(R) >> np.uint64(R.shape[0].bit_length() + 1)).view(np.int64)
    order = stable_argsort(keys)
    shared = keys[order[1:]] == keys[order[:-1]]
    later, earlier = order[1:][shared], order[:-1][shared]
    equal = _rows_equal(R, later, earlier)
    drop = [later[equal]]
    # a row that shares its key with a different row: compare it with every
    # earlier row of that key
    for r in later[~equal]:
        before = np.flatnonzero(keys[:r] == keys[r])
        if _rows_equal(R, np.full(before.size, r), before).any():
            drop.append([r])
    keep = np.ones(R.shape[0], dtype=bool)
    keep[np.concatenate(drop)] = False
    return np.flatnonzero(keep)


@dataclass(frozen=True)
class SystemTemplate:
    n: int
    hom: CSR = field(repr=False)       # deduped unit-norm action rows
    target: CSR = field(repr=False)    # 2 m^2 rows in (a, b, re/im) order
    lift: CSR = field(repr=False)      # E: y -> x, X = Y (x) I_n
    hom_y: CSR = field(repr=False)     # hom E without its zero rows
    target_y: CSR = field(repr=False)  # target E
    counts: Mapping                    # read-only, shared by systems


_TEMPLATE_CACHE = {}


def _build_template(n):
    m, M = n * n, n ** 4
    units = []
    for a in range(m):
        Q = np.zeros((n, n), dtype=complex)
        Q[divmod(a, n)] = 1.0
        units.append(Q)
    star = [(a % n) * n + a // n for a in range(m)]   # index of Q_a*
    herm = hermitian_vec_map(M)

    # scalar equation (a, t, u) is entry (u, t) of X P_a - P_{a*}^H X, with
    # t = Q_c (x) Q_d and u = Q_g* (x) Q_h*, listed by (a, c, d, g, h)
    psi = np.array([[_tidx(n, *divmod(c, n), *divmod(d, n)) for d in range(m)]
                    for c in range(m)])
    order = (psi.reshape(-1, 1) + M * psi[np.ix_(star, star)].reshape(1, -1))
    order = order.reshape(-1)

    counts = {
        "raw_complex_left": m ** 5,
        "raw_complex_right": m ** 5,
        "raw_complex_target": m * m,
    }
    blocks = []
    for family, action in (("left", left_action), ("right", right_action)):
        P = [CSR.from_dense(action(A)) for A in units]
        R = vstack([_real_rows(_intertwiner(P[a].T, P[star[a]].conj().T, order, M),
                               order.size, herm, M) for a in range(m)])
        R = R[np.diff(R.indptr) > 0]
        counts[f"nonzero_real_{family}"] = R.shape[0]
        blocks.append(_unit_rows(R))
    hom = vstack(blocks)
    hom = hom[_first_occurrences(hom)]

    # target family: psi(Q_b* (x) 1)* X psi(Q_a (x) 1) = f(Q_a, Q_b*), rows
    # (a, b); kron(D^T, D^T) lists the same rows by (b*, a)
    D = CSR.from_dense(np.column_stack([psi_vector(A, np.eye(n)) for A in units]))
    pairs = (np.array(star).reshape(1, -1) * m + np.arange(m).reshape(-1, 1))
    T = kron(D.T, D.T)[pairs.reshape(-1)]
    target = _real_rows((T.entry_rows, T.indices, T.data), T.shape[0], herm, M)

    counts["hom_rows_after_dedup"] = hom.shape[0]
    counts["target_rows_real"] = target.shape[0]
    counts["rows_total"] = hom.shape[0] + target.shape[0]
    lift = kron_eye_map(n ** 3, n)
    hom_y = hom @ lift
    return SystemTemplate(n, hom, target, lift,
                          hom_y[np.diff(hom_y.indptr) > 0], target @ lift,
                          types.MappingProxyType(counts))


def system_template(n):
    tpl = _TEMPLATE_CACHE.get(n)
    if tpl is None:
        tpl = _build_template(n)
        _TEMPLATE_CACHE[n] = tpl
    return tpl


def clear_template_cache():
    _TEMPLATE_CACHE.clear()
