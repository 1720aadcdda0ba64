"""Canonical bimodule actions on M_n (x) M_n and assembly of the feasibility system.

The tensor square of the algebra carries the bimodule structure

    A (B (x) C) D = AB (x) CD - A (x) BCD

under which delta(A) = A (x) 1 is a derivation. A sesquilinear form on the
tensor square is represented by a matrix X through <x, y> = psi(y)* X psi(x),
with psi the fixed vectorization of the matrix-unit basis. Requiring the form
to make both actions adjointable and to take prescribed values f(A, B) on
derivation pairs produces three families of equations, each linear in X:

    family "left"   X L_a = L_{a*}^H X   for each matrix unit a   (m^5 scalars)
    family "right"  X R_a = R_{a*}^H X   for each matrix unit a   (m^5 scalars)
    family "target" <delta(A), delta(B)> = f(A, B)                (m^2 scalars)

with m = n^2 the algebra dimension and L_a, R_a the n^4 x n^4 matrices of
left_act and right_act, which are the only definition of the actions. Each
intertwining equation is the sparse operator kron(I, L_a^T) - kron(L_{a*}^H, I)
on the row-major vec(X). X is searched over Hermitian matrices: one sparse
map from the Hermitian coordinates to vec(X) turns every complex equation
into a real and an imaginary row. Action rows that vanish are dropped, the
rest are scaled to unit norm with a positive first entry, and repeats are
removed by one 64-bit key per row plus an exact comparison of rows that
share a key; at n = 3 this leaves 22464 of 149670 nonzero rows.

The coefficient matrix of the system depends only on n, not on the state or
the generator; those enter only through the right-hand side values of the
target family. Assembly therefore caches a per-n template holding both
blocks as CSR, and a ConstraintSystem is that template plus a right-hand
side: assembling costs one target form, and the stacked matrix A is built
only when something reads it (dump_system). Residuals are computed block by
block and compared with one threshold, ConstraintSystem.residual_bound.
"""
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IndexOutOfRange, SizeCapExceeded
from .linalg import as_cmatrix, hermitian_vec_map
from .qms import lindblad_apply

DEFAULT_SIZE_CAP = 4

_SQRT2 = np.sqrt(2.0)


def psi_index(n, i, j, k, l):
    """Position of E_ij (x) E_kl in the fixed vectorization, 1-based.

    Equals n^3 (i-1) + n^2 (k-1) + n (j-1) + l, a bijection from index
    quadruples onto 1..n^4.
    """
    for name, v in (("i", i), ("j", j), ("k", k), ("l", l)):
        if not 1 <= v <= n:
            raise IndexOutOfRange(f"{name}={v} outside 1..{n}")
    return _tidx(n, i - 1, j - 1, k - 1, l - 1) + 1


def _tidx(n, i, j, k, l):
    # 0-based position of E_ij (x) E_kl
    return n ** 3 * i + n ** 2 * k + n * j + l


@dataclass(frozen=True)
class TensorElem:
    """Sparse element of M_n (x) M_n: a map (i,j,k,l) -> coefficient.

    Indices are 0-based internally; (i,j) addresses the first tensor factor
    E_ij and (k,l) the second. Zero coefficients are dropped on construction.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        cleaned = {}
        for (i, j, k, l), c in dict(self.terms).items():
            for v in (i, j, k, l):
                if not 0 <= v < self.n:
                    raise IndexOutOfRange(f"tensor index {v} outside 0..{self.n - 1}")
            c = complex(c)
            if c != 0:
                cleaned[(i, j, k, l)] = cleaned.get((i, j, k, l), 0) + c
        items = tuple(sorted((q, c) for q, c in cleaned.items() if c != 0))
        object.__setattr__(self, "terms", items)

    @classmethod
    def unit(cls, n, i, j, k, l, coeff=1.0):
        return cls(n, {(i, j, k, l): coeff})

    @classmethod
    def tensor(cls, A, B):
        """A (x) B for dense matrices A, B."""
        A = as_cmatrix(A)
        B = as_cmatrix(B, A.shape[0])
        n = A.shape[0]
        terms = {}
        for i in range(n):
            for j in range(n):
                if A[i, j] == 0:
                    continue
                for k in range(n):
                    for l in range(n):
                        if B[k, l] != 0:
                            terms[(i, j, k, l)] = A[i, j] * B[k, l]
        return cls(n, terms)

    @classmethod
    def derivation_of(cls, A):
        """delta(A) = A (x) 1."""
        A = as_cmatrix(A)
        return cls.tensor(A, np.eye(A.shape[0], dtype=complex))

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatch("tensor elements over different algebra sizes")
        terms = dict(self.terms)
        for q, c in other.terms:
            terms[q] = terms.get(q, 0) + c
        return TensorElem(self.n, terms)

    def scale(self, c):
        return TensorElem(self.n, {q: c * v for q, v in self.terms})

    def vector(self):
        """psi applied to the element: a dense vector of length n^4."""
        v = np.zeros(self.n ** 4, dtype=complex)
        for (i, j, k, l), c in self.terms:
            v[_tidx(self.n, i, j, k, l)] += c
        return v


def left_act(A, t):
    """Left bimodule action A (B (x) C) = AB (x) C - A (x) BC, extended bilinearly."""
    A = as_cmatrix(A, t.n)
    n = t.n
    terms = {}

    def put(q, c):
        if c != 0:
            terms[q] = terms.get(q, 0) + c

    for (i, j, k, l), c in t.terms:
        for a in range(n):
            if A[a, i] != 0:
                put((a, j, k, l), c * A[a, i])
        if j == k:
            for a in range(n):
                for b in range(n):
                    if A[a, b] != 0:
                        put((a, b, i, l), -c * A[a, b])
    return TensorElem(n, terms)


def right_act(t, A):
    """Right bimodule action (B (x) C) A = B (x) CA, extended bilinearly."""
    A = as_cmatrix(A, t.n)
    n = t.n
    terms = {}
    for (i, j, k, l), c in t.terms:
        for b in range(n):
            if A[l, b] != 0:
                q = (i, j, k, b)
                terms[q] = terms.get(q, 0) + c * A[l, b]
    return TensorElem(n, terms)


@dataclass(frozen=True)
class TargetForm:
    """Values f(Q_a, Q_b*) of the prescribed form on the matrix-unit basis.

    F[a, b] = <L(Q_a), Q_b*>_s with the basis in vectorization order
    (Q_{n i + j} = E_ij, 0-based).
    """

    s: float
    F: np.ndarray = field(repr=False)

    def __post_init__(self):
        F = as_cmatrix(self.F).copy()
        F.flags.writeable = False
        object.__setattr__(self, "F", F)


def target_form(spec, s, basis_perm=None):
    """Gram data of the generator against the s-inner product on matrix units."""
    if not 0.0 <= s <= 1.0:
        raise DimensionMismatch(f"inner-product parameter s={s} outside [0, 1]")
    n = spec.n
    m = n * n
    Ds = spec.state.power(s)
    D1s = spec.state.power(1.0 - s)
    perm = _check_perm(basis_perm, m)
    F = np.zeros((m, m), dtype=complex)
    for a in range(m):
        i, j = divmod(perm[a], n)
        E = np.zeros((n, n), dtype=complex)
        E[i, j] = 1.0
        # tr(D^{1-s} E_kl D^s L(Q_a)) = (D^s L(Q_a) D^{1-s})[l, k]
        T = Ds @ lindblad_apply(spec, E) @ D1s
        F[a, :] = T.T.reshape(-1)[perm]
    return TargetForm(s, F)


def _check_perm(perm, m):
    if perm is None:
        return np.arange(m)
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(m)):
        raise IndexOutOfRange(f"basis_perm is not a permutation of 0..{m - 1}")
    return perm


# ---------------------------------------------------------------------------
# Per-size template: everything in the system that does not depend on f
# ---------------------------------------------------------------------------

def _action_matrix(n, act):
    """n^4 x n^4 matrix of a linear map on M_n (x) M_n in the psi vectorization."""
    rows, cols, vals = [], [], []
    for q in itertools.product(range(n), repeat=4):
        for p, c in act(TensorElem.unit(n, *q)).terms:
            rows.append(_tidx(n, *p))
            cols.append(_tidx(n, *q))
            vals.append(c)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n ** 4, n ** 4),
                         dtype=complex)


def _real_rows(E, herm, M):
    """Real and imaginary parts, interleaved, of complex equations over vec(X).

    E has integer coefficients on the row-major vec(X); the result is real
    CSR over the Hermitian coordinates, rows (2r, 2r + 1) from equation r,
    without explicit zeros and with sorted indices.
    """
    G = (E @ herm).tocoo()
    # the off-diagonal coordinates carry the sqrt(2) that herm leaves out
    r = np.where(G.col < M, 1.0, _SQRT2)
    R = sp.csr_matrix(
        (np.concatenate([G.data.real / r, G.data.imag / r]),
         (np.concatenate([2 * G.row, 2 * G.row + 1]), np.tile(G.col, 2))),
        shape=(2 * E.shape[0], herm.shape[1]))
    R.eliminate_zeros()
    R.sort_indices()
    return R


def _unit_rows(R):
    """Scale each nonempty row to unit norm with a positive first entry."""
    norm = np.sqrt(np.add.reduceat(R.data ** 2, R.indptr[:-1]))
    rescale = np.where(R.data[R.indptr[:-1]] > 0, 1.0, -1.0) / norm
    return sp.csr_matrix((R.data * np.repeat(rescale, np.diff(R.indptr)),
                          R.indices, R.indptr), shape=R.shape)


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
    keys = _row_keys(R)
    order = np.argsort(keys, kind="stable")
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
    hom: sp.csr_matrix = field(repr=False)     # deduped unit-norm action rows
    target: sp.csr_matrix = field(repr=False)  # 2 m^2 rows in (a, b, re/im) order
    counts: dict


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
    eye = sp.identity(M, dtype=complex, format="csr")

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
    families = (("left", lambda A: lambda t: left_act(A, t)),
                ("right", lambda A: lambda t: right_act(t, A)))
    blocks = []
    for family, action in families:
        P = [_action_matrix(n, action(A)) for A in units]
        E = sp.vstack([(sp.kron(eye, P[a].T) - sp.kron(P[star[a]].conj().T, eye))
                       .tocsr()[order] for a in range(m)], format="csr")
        R = _real_rows(E, herm, M)
        R = R[np.diff(R.indptr) > 0]
        counts[f"nonzero_real_{family}"] = R.shape[0]
        blocks.append(_unit_rows(R))
    hom = sp.vstack(blocks, format="csr")
    hom = hom[_first_occurrences(hom)]

    # target family: psi(Q_b* (x) 1)* X psi(Q_a (x) 1) = f(Q_a, Q_b*), rows
    # (a, b); kron(D^T, D^T) lists the same rows by (b*, a)
    D = sp.csr_matrix(np.column_stack(
        [TensorElem.derivation_of(A).vector() for A in units]))
    pairs = (np.array(star).reshape(1, -1) * m + np.arange(m).reshape(-1, 1))
    T = sp.kron(D.T, D.T, format="csr")[pairs.reshape(-1)]
    target = _real_rows(T, herm, M)

    counts["hom_rows_after_dedup"] = hom.shape[0]
    counts["target_rows_real"] = target.shape[0]
    return SystemTemplate(n, hom, target, counts)


def system_template(n):
    tpl = _TEMPLATE_CACHE.get(n)
    if tpl is None:
        tpl = _build_template(n)
        _TEMPLATE_CACHE[n] = tpl
    return tpl


def clear_template_cache():
    _TEMPLATE_CACHE.clear()


# ---------------------------------------------------------------------------
# Assembled system
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSystem:
    """Sparse real-linear system A x = b over Hermitian coordinates of X.

    A stacks the homogeneous block hom, shared by every system of size n,
    over the target block; only the target part of b is nonzero. The blocks
    are the cached template's own matrices (target rows reordered under a
    basis permutation), so a system adds only its right-hand side, and the
    stacked A is built only when it is read.
    """

    n: int
    m: int
    s: float
    hom: sp.csr_matrix = field(repr=False)
    target: sp.csr_matrix = field(repr=False)
    b: np.ndarray = field(repr=False)
    counts: dict

    @functools.cached_property
    def A(self):
        return sp.vstack([self.hom, self.target], format="csr")

    @property
    def unknowns(self):
        return self.m ** 4

    @property
    def hom_row_count(self):
        return self.hom.shape[0]

    def target_rhs(self):
        return self.b[self.hom_row_count:]

    def residual_vector(self, coords):
        """A x - b, the homogeneous rows first, computed block by block."""
        x = np.asarray(coords, dtype=float)
        return np.concatenate([self.hom @ x, self.target @ x - self.target_rhs()])

    def residual_of(self, coords):
        return float(np.linalg.norm(self.residual_vector(coords)))

    def residual_bound(self, tol):
        """tol * max(1, ||b||): the one threshold on ||A x - b||."""
        return tol * max(1.0, float(np.linalg.norm(self.b)))


def assemble(spec, s, basis_perm=None):
    """Build the full feasibility system for a validated generator spec.

    Rows appear in family order (left, right, target), duplicates removed
    within the action families. The target rows, one real and one
    imaginary row per pair of basis elements in the order of basis_perm,
    carry the only nonzero right-hand sides.
    """
    n = spec.n
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"algebra size {n} exceeds cap {DEFAULT_SIZE_CAP}")
    tpl = system_template(n)
    m = n * n
    form = target_form(spec, s, basis_perm=basis_perm)
    target = tpl.target
    if basis_perm is not None:
        # the row for permuted pair (a, b) is the template row (perm[a], perm[b])
        perm = np.asarray(basis_perm, dtype=int)
        pair = (perm.reshape(-1, 1) * m + perm.reshape(1, -1)).reshape(-1)
        target = target[np.stack([2 * pair, 2 * pair + 1], axis=1).reshape(-1)]
    # target rows are in (a, b, re/im) order
    b_t = np.stack([form.F.real, form.F.imag], axis=-1).reshape(-1)
    b = np.concatenate([np.zeros(tpl.hom.shape[0]), b_t])
    counts = dict(tpl.counts)
    counts["rows_total"] = b.size
    return ConstraintSystem(n, m, float(s), tpl.hom, target, b, counts)


def dump_system(system, path):
    """Write sorted triplets (row col value) with 17 significant digits.

    The right-hand side goes to ``<path>.rhs`` as (row value) lines.
    """
    coo = system.A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for idx in order:
            fh.write(f"{coo.row[idx]} {coo.col[idx]} {coo.data[idx]:.17g}\n")
    with open(str(path) + ".rhs", "w") as fh:
        for idx in np.nonzero(system.b)[0]:
            fh.write(f"{idx} {system.b[idx]:.17g}\n")
