"""Dense complex linear algebra with deterministic results.

Conventions used throughout the package:

  * complex matrices are numpy arrays of dtype complex128,
  * Hermitian eigendecompositions return eigenvalues in ascending order
    with eigenvectors as columns,
  * there is one rank rule: a singular value counts toward the rank when
    it exceeds tol times the largest singular value of the matrix. The
    solver's SVD of the reduced target matrix is the only rank cut, at the
    fixed DEFAULT_RANK_TOL: that matrix depends on the algebra size alone,
    and its kept singular values lie above 1e-2 and its dropped ones below
    1e-14 of the largest at every supported size, so the cut is no option,
  * there is one Hermitian-defect rule (is_hermitian): a matrix counts as
    Hermitian when ||M - M*||_F is at most HERMITIAN_TOL times ||M||_F,
    relative to M alone, so M = 0 passes and no floor applies. herm_eig,
    hermitian_encode and the CLI's verify all judge by it; no caller sets
    its tolerance.

The Hermitian parametrization maps an M x M Hermitian matrix to a real
vector of length M^2 ordered as

    [ diagonal | sqrt(2) * Re(strict upper triangle) | sqrt(2) * Im(...) ]

which is an isometry between the Frobenius inner product on Hermitian
matrices and the Euclidean inner product on coordinates.
"""

import functools
import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, SchemaError

DEFAULT_RANK_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8
HERMITIAN_TOL = 1e-10


def check_tol(tol, name):
    """tol itself when it is positive and finite; otherwise a SchemaError at
    name. Every tolerance a caller sets passes through it."""
    if not (math.isfinite(tol) and tol > 0):
        raise SchemaError(name, f"must be positive and finite, got {tol}")
    return tol


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


def is_hermitian(M):
    """The Hermitian-defect rule: ||M - M*||_F <= HERMITIAN_TOL * ||M||_F,
    read on M / max|M_ij| so that neither norm overflows."""
    M = M / (np.abs(M).max(initial=0.0) or 1.0)
    return np.linalg.norm(M - M.conj().T) <= HERMITIAN_TOL * np.linalg.norm(M)


def _require_hermitian(M):
    if not is_hermitian(M):
        raise NotHermitian(f"||M - M*||_F exceeds {HERMITIAN_TOL:.1e} * ||M||_F")


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    NotHermitian when M fails is_hermitian and NoConvergence if the
    underlying QR iteration fails.
    """
    M = as_cmatrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"herm_eig needs a square matrix, got {M.shape}")
    _require_hermitian(M)
    H = 0.5 * (M + M.conj().T)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w, V


def _rank(s, smax, tol):
    """The rank cut: how many of the singular values s (last axis) exceed tol * smax."""
    return np.count_nonzero(s > tol * smax, axis=-1)


class CSR:
    """The nonzero entries of a dense matrix, row by row.

    Row r holds data[indptr[r]:indptr[r + 1]] at the columns
    indices[indptr[r]:indptr[r + 1]], ascending. It carries the reduced
    system's matrix for --dump-system and for callers that count its
    entries (nnz).
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_dense(cls, M):
        M = np.asarray(M)
        rows, cols = np.nonzero(M)
        indptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
        return cls(indptr, cols, M[rows, cols], M.shape)

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @functools.cached_property
    def entry_rows(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


@functools.cache
def _strict_upper(m):
    """np.triu_indices(m, k=1), read-only, computed once per size."""
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def hermitian_encode(X):
    """Real coordinates of a Hermitian M x M matrix, in the layout above.

    Raises NotHermitian when X fails is_hermitian.
    dot(encode(P), encode(Q)) equals Re tr(P Q).
    """
    X = as_cmatrix(X)
    if X.shape[0] != X.shape[1]:
        raise DimensionMismatch("Hermitian encode needs a square matrix")
    _require_hermitian(X)
    return hermitian_coords(X)


def hermitian_coords(H):
    """Coordinates of the Hermitian matrices stacked along H's last two axes.

    Unchecked: only the diagonal and the strict upper triangle are read.
    """
    iu, ju = _strict_upper(H.shape[-1])
    upper = H[..., iu, ju]
    return np.concatenate([np.diagonal(H, axis1=-2, axis2=-1).real,
                           np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag],
                          axis=-1)


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
