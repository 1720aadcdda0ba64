"""Dense complex and sparse real linear algebra with deterministic results.

Conventions used throughout the package:

  * complex matrices are numpy arrays of dtype complex128,
  * Hermitian eigendecompositions return eigenvalues in ascending order
    with eigenvectors as columns,
  * sparse real systems are built as triplets and finalized to CSR with
    duplicate entries summed in a fixed order, or wrapped from a CSR that
    is already canonical, so repeated runs produce bit-identical
    factorizations,
  * rank and nullspace tolerances are relative to the largest singular
    value; all problem data is O(1) by construction, which keeps the
    numerical rank decisions far away from the floating-point floor.

The Hermitian parametrization maps an M x M Hermitian matrix to a real
vector of length M^2 ordered as

    [ diagonal | sqrt(2) * Re(strict upper triangle) | sqrt(2) * Im(...) ]

which is an isometry between the Frobenius inner product on Hermitian
matrices and the Euclidean inner product on coordinates.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, NoConvergence, NotHermitian

DEFAULT_RANK_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8

# Systems at or below this many unknowns are factorized densely.
DENSE_CUTOFF = 400


def as_cmatrix(entries, size=None):
    """Coerce to a finite complex 2-D array, optionally checking it is size x size."""
    M = np.asarray(entries, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
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


class SparseRealMatrix:
    """Real sparse matrix assembled from (row, col, value) triplets.

    Duplicate triplets are summed on finalize. Triplets are stored in
    insertion order and converted through a canonical CSR form, so the
    summation order, and therefore the floating-point result, is
    reproducible run to run.
    """

    def __init__(self, rows, cols):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        self.rows = int(rows)
        self.cols = int(cols)
        self._r = []
        self._c = []
        self._v = []
        self._csr = None

    @classmethod
    def from_csr(cls, csr):
        """Wrap a CSR matrix that already has sorted indices and no duplicates."""
        out = cls(*csr.shape)
        out._r = out._c = out._v = None
        out._csr = csr
        return out

    def add(self, row, col, value):
        if self._csr is not None:
            raise DimensionMismatch("matrix already finalized")
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise DimensionMismatch(
                f"triplet ({row},{col}) outside {self.rows}x{self.cols}")
        self._r.append(int(row))
        self._c.append(int(col))
        self._v.append(float(value))

    def add_row(self, row, cols, values):
        for c, v in zip(cols, values):
            self.add(row, c, v)

    def finalize(self):
        if self._csr is None:
            coo = sp.coo_matrix(
                (np.array(self._v, dtype=float),
                 (np.array(self._r, dtype=np.int64),
                  np.array(self._c, dtype=np.int64))),
                shape=(self.rows, self.cols))
            csr = coo.tocsr()
            csr.sum_duplicates()
            csr.sort_indices()
            self._csr = csr
            self._r = self._c = self._v = None
        return self

    @property
    def finalized(self):
        return self._csr is not None

    def tocsr(self):
        if self._csr is None:
            raise DimensionMismatch("finalize() the matrix first")
        return self._csr

    def toarray(self):
        return self.tocsr().toarray()

    @property
    def nnz(self):
        return self.tocsr().nnz

    def matvec(self, x):
        return self.tocsr() @ np.asarray(x, dtype=float)

    def rmatvec(self, y):
        return self.tocsr().T @ np.asarray(y, dtype=float)

    def frobenius_norm(self):
        return float(np.sqrt((self.tocsr().data ** 2).sum()))


def _column_blocks(csr):
    """Partition columns into connected components of the co-occurrence graph.

    Two columns belong to the same block when some row carries nonzeros in
    both. Returns a list of index arrays, ordered by smallest member.
    """
    n = csr.shape[1]
    pattern = csr.copy()
    pattern.data = np.ones_like(pattern.data)
    # column adjacency through shared rows; pattern^T pattern is symmetric
    adj = (pattern.T @ pattern).tocsr()
    ncomp, labels = connected_components(adj, directed=False)
    blocks = [[] for _ in range(ncomp)]
    for col, lab in enumerate(labels):
        blocks[lab].append(col)
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    blocks.sort(key=lambda b: int(b[0]))
    return blocks


def _block_eig(csr, blocks):
    """Eigendecomposition of A^T A restricted to each column block."""
    gram = (csr.T @ csr).tocsc()
    out = []
    for cols in blocks:
        sub = gram[:, cols][cols, :].toarray()
        sub = 0.5 * (sub + sub.T)
        try:
            w, V = np.linalg.eigh(sub)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NoConvergence(str(exc)) from exc
        out.append((cols, w, V))
    return out


def _ascsr(A):
    """Accept SparseRealMatrix or any scipy sparse matrix; return CSR."""
    if isinstance(A, SparseRealMatrix):
        return A.tocsr()
    if sp.issparse(A):
        return sp.csr_matrix(A)
    raise DimensionMismatch(f"expected a sparse matrix, got {type(A).__name__}")


def lstsq_min_norm(A, b):
    """Minimum-norm least-squares solution of a finalized sparse system.

    Returns (x, residual) where x minimizes ||Ax - b||_2 and, among all
    minimizers, has the smallest Euclidean norm; residual is ||Ax - b||_2.
    """
    csr = _ascsr(A)
    nrows, ncols = csr.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (nrows,):
        raise DimensionMismatch(f"rhs length {b.shape} does not match {nrows} rows")
    if ncols == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    if ncols <= DENSE_CUTOFF:
        dense = csr.toarray()
        x, _, _, _ = np.linalg.lstsq(dense, b, rcond=DEFAULT_RANK_TOL)
    else:
        x = np.zeros(ncols)
        atb = csr.T @ b
        eigs = _block_eig(csr, _column_blocks(csr))
        lam_max = max((w[-1] for _, w, _ in eigs if w.size), default=0.0)
        thresh = max(DEFAULT_RANK_TOL ** 2 * lam_max, 1e-14 * lam_max)
        for cols, w, V in eigs:
            keep = w > thresh
            if not np.any(keep):
                continue
            coeff = V[:, keep].T @ atb[cols]
            x[cols] = V[:, keep] @ (coeff / w[keep])
    residual = float(np.linalg.norm(csr @ x - b))
    return x, residual


def nullspace(A, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the numerical nullspace of a finalized sparse matrix.

    Basis vectors are returned as rows of an array of shape (k, cols) and
    satisfy ||A v|| <= tol * ||A||. Dimension equals cols minus the
    numerical rank at relative tolerance tol.
    """
    csr = _ascsr(A)
    nrows, ncols = csr.shape
    if ncols == 0:
        return np.zeros((0, 0))
    if ncols <= DENSE_CUTOFF:
        dense = csr.toarray()
        if nrows == 0:
            return np.eye(ncols)
        _, s, Vt = np.linalg.svd(dense, full_matrices=True)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
        return Vt[rank:].copy()
    parts = []
    eigs = _block_eig(csr, _column_blocks(csr))
    lam_max = max((w[-1] for _, w, _ in eigs if w.size), default=0.0)
    # eigenvalues of A^T A are singular values squared; floor the threshold
    # at the eigensolver's resolution so rounding noise is never kept as rank
    thresh = max(tol ** 2 * lam_max, 1e-14 * lam_max)
    for cols, w, V in eigs:
        keep = w <= thresh if lam_max > 0 else np.ones_like(w, dtype=bool)
        for j in np.nonzero(keep)[0]:
            v = np.zeros(ncols)
            v[cols] = V[:, j]
            parts.append(v)
    if not parts:
        return np.zeros((0, ncols))
    return np.array(parts)


def _triu_cache(M):
    iu, ju = np.triu_indices(M, k=1)
    return iu, ju


@dataclass(frozen=True)
class HermitianParam:
    """Real coordinates of an m2 x m2 Hermitian matrix.

    Layout: m2 diagonal entries, then sqrt(2)-scaled real parts of the
    strict upper triangle in row-major order, then the matching
    sqrt(2)-scaled imaginary parts. encode/decode are mutually inverse and
    dot(encode(P), encode(Q)) equals Re tr(P Q).
    """

    m2: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.m2 * self.m2,):
            raise DimensionMismatch(
                f"need {self.m2 ** 2} coordinates, got {coords.shape}")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_matrix(cls, X, tol=1e-10):
        X = as_cmatrix(X)
        if X.shape[0] != X.shape[1]:
            raise DimensionMismatch("Hermitian encode needs a square matrix")
        scale = max(np.linalg.norm(X), 1e-300)
        if np.linalg.norm(X - X.conj().T) > tol * scale:
            raise NotHermitian("matrix is not Hermitian within tolerance")
        M = X.shape[0]
        iu, ju = _triu_cache(M)
        coords = np.concatenate([
            X.diagonal().real,
            np.sqrt(2.0) * X[iu, ju].real,
            np.sqrt(2.0) * X[iu, ju].imag,
        ])
        return cls(M, coords)

    def matrix(self):
        M = self.m2
        iu, ju = _triu_cache(M)
        X = np.zeros((M, M), dtype=complex)
        np.fill_diagonal(X, self.coords[:M])
        T = iu.size
        upper = (self.coords[M:M + T] + 1j * self.coords[M + T:]) / np.sqrt(2.0)
        X[iu, ju] = upper
        X[ju, iu] = upper.conj()
        return X


def hermitian_vec_map(M):
    """Sparse complex map from Hermitian coordinates to the row-major vec(X).

    Returns H of shape (M^2, M^2) with entries 1 and +-1j such that
    vec(X) = H @ (coords / r), where r is 1 on the M diagonal coordinates and
    sqrt(2) on the others. Leaving the sqrt(2) out of H keeps products with
    integer equations exact.
    """
    iu, ju = _triu_cache(M)
    d = np.arange(M)
    t = M + np.arange(iu.size)
    upper, lower = iu * M + ju, ju * M + iu
    rows = np.concatenate([d * M + d, upper, lower, upper, lower])
    cols = np.concatenate([d, t, t, t + iu.size, t + iu.size])
    vals = np.concatenate([np.ones(M + 2 * iu.size), np.full(iu.size, 1j),
                           np.full(iu.size, -1j)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(M * M, M * M))


def hermitian_encode(X, tol=1e-10):
    return HermitianParam.from_matrix(X, tol=tol).coords


def hermitian_decode(coords, m2):
    return HermitianParam(m2, np.asarray(coords, dtype=float)).matrix()
