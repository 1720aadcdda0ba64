"""Canonical bimodule actions on M_n (x) M_n and the feasibility system over them.

The tensor square of the algebra carries the bimodule structure

    A (B (x) C) D = AB (x) CD - A (x) BCD

under which delta(A) = A (x) 1 is a derivation. A sesquilinear form on the
tensor square is represented by a matrix X through <x, y> = psi(y)* X psi(x),
with psi the fixed vectorization of the matrix-unit basis. Requiring the form
to make both actions adjointable and to take prescribed values f(A, B) on
derivation pairs produces three families of equations, each linear in X:

    family "left"   X L_a = L_{a*}^H X   for each matrix unit a   (m matrix equations)
    family "right"  X R_a = R_{a*}^H X   for each matrix unit a   (m matrix equations)
    family "target" <delta(A), delta(B)> = f(A, B)                (m^2 scalars)

with m = n^2 the algebra dimension and L_a, R_a the n^4 x n^4 matrices of
left_action and right_action on the psi-vectors of tensors (psi_vector).

The solutions of the two action families have a concrete form: every
derivation into a Hilbert bimodule factors through bimodule maps (Cipriani
and Sauvageot 2003; Carlen and Maas 2017, where L = sum_j d_j* d_j with
d_j = [V_j, .]). On M_n (x) M_n these maps are

    T_K(B (x) C) = [K, B] C     into M_n, for K in an orthonormal basis of
                                the traceless matrices (the off-diagonal
                                matrix units and the normalised diagonal
                                Gell-Mann matrices, n^2 - 1 of them),
    T_i(B (x) C) = e_i^T B C    into the row vectors, on which the left
                                action is zero, for i = 1..n,

and every solution of the action families is

    X = T* (Q1 (x) I_{n^2}  (+)  Q2 (x) I_n) T

for Hermitian Q1 ((n^2 - 1) x (n^2 - 1)) and Q2 (n x n), where T stacks the
maps. T is real, square (n^4 x n^4) and invertible, so X is a congruence of
the block matrix Q = Q1 (+) Q2 and X is PSD exactly when Q1 and Q2 are. The
system is therefore solved in q, the Hermitian coordinates of Q1 followed
by those of Q2: n^4 - n^2 + 1 real unknowns, 73 at n = 3. In q the target
family is one dense real matrix G of 2 m^2 rows (the real and imaginary
part of the equation for each pair (a, b)), which depends only on n.

A per-size template holds T, G, G's SVD and the derivation vectors; it is
built once per n and cached. A ConstraintSystem is that template plus the
target right-hand side, read off the generator's m x m matrix. The
equations over X stay the independent check: ConstraintSystem.
matrix_residual evaluates a matrix X against the 2m intertwining equations,
with L_a and R_a applied in closed form, and against the target equations,
and one threshold, residual_bound = tol * ||b||, judges the consistency
test, certificates and verify. It scales with the generator, as the
equations do, so c L and L pass or fail together for every c > 0; for
b = 0 it is an exact zero.
"""
import collections
import functools
import math
import types

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded
from .linalg import (CSR, DEFAULT_RANK_TOL, _rank, as_cmatrix,
                     hermitian_coords, hermitian_decode)
from .qms import check_s, generator_matrix

DEFAULT_SIZE_CAP = 5


def _tidx(n, i, j, k, l):
    # 0-based position of E_ij (x) E_kl
    return n ** 3 * i + n ** 2 * k + n * j + l


def _square(A):
    A = as_cmatrix(A)
    return as_cmatrix(A, A.shape[0])


def psi_vector(A, B):
    """psi(A (x) B): entry n^3 i + n^2 k + n j + l is A[i, j] B[k, l]."""
    A = _square(A)
    return np.einsum("ij,kl->ikjl", A, as_cmatrix(B, A.shape[0])).reshape(-1)


def left_action(A):
    """The n^4 x n^4 matrix of t -> A t on psi-vectors, rows (a, c, b, d)
    and columns (i, k, j, l) in psi's axis order, from
    A (E_ij (x) E_kl) = A E_ij (x) E_kl - [j = k] A (x) E_il."""
    A = _square(A)
    n, eye = A.shape[0], np.eye(A.shape[0])
    L = (np.einsum("ai,bj,ck,dl->acbdikjl", A, eye, eye, eye)
         - np.einsum("ab,ci,jk,dl->acbdikjl", A, eye, eye, eye))
    return L.reshape(n ** 4, n ** 4)


def right_action(A):
    """The n^4 x n^4 matrix of t -> t A on psi-vectors, from
    (E_ij (x) E_kl) A = E_ij (x) E_kl A, in left_action's axis order."""
    A = _square(A)
    n, eye = A.shape[0], np.eye(A.shape[0])
    return np.einsum("ai,bj,ck,ld->acbdikjl", eye, eye, eye, A).reshape(n ** 4, n ** 4)


class TargetForm:
    """Values f(Q_a, Q_b*) of the prescribed form on the matrix-unit basis.

    F[a, b] = <L(Q_a), Q_b*>_s with the basis in vectorization order
    (Q_{n i + j} = E_ij, 0-based).
    """

    def __init__(self, s, F):
        F = as_cmatrix(F).copy()
        F.flags.writeable = False
        self.s, self.F = s, F


def target_form(spec, s):
    """Gram data of the generator against the s-inner product on matrix units.

    F[a, b] = tr(D^{1-s} Q_b D^s L(Q_a)) is entry (l, k) of
    D^s L(Q_a) D^{1-s} for Q_b = E_kl, and column a of
    (D^s kron (D^{1-s})^T) S, with S the generator matrix, is the row-major
    vec of that product; so F is read off one m x m product.
    """
    return TargetForm(s, _target_values(_state_factor(spec.state, s),
                                        generator_matrix(spec)))


def _state_factor(state, s):
    """D^s kron (D^{1-s})^T, the m x m matrix that target_form applies to
    the generator matrix; it depends only on the state and s."""
    check_s(s)
    m = state.n * state.n
    # row-major vec, as in qms.generator_matrix
    K = np.einsum("ik,lj->ijkl", state.power(s), state.power(1.0 - s))
    return K.reshape(m, m)


def _target_values(K, S):
    """F of target_form from the state factor K and the generator matrix S."""
    m = S.shape[0]
    n = math.isqrt(m)
    T = K @ S
    # F[a, k, l] = T[(l, k), a]
    return T.reshape(n, n, m).transpose(2, 1, 0).reshape(m, m)


def _target_rhs(F):
    """b_target: the real and imaginary part of each F[a, b], in the order
    of the template's target rows (a, b, re/im).

    A C-ordered complex array holds exactly these parts, interleaved, so
    b_target is F's memory read as floats (a view when F is contiguous).
    """
    return np.ascontiguousarray(F).view(np.float64).reshape(-1)


# ---------------------------------------------------------------------------
# The bimodule coordinates: everything in the system that does not depend on f
# ---------------------------------------------------------------------------

def _traceless_basis(n):
    """Real orthonormal basis of the traceless n x n matrices: the matrix units
    E_ij (i != j), then diag(1, .., 1, -k, 0, ..) / sqrt(k (k + 1))."""
    units = [np.outer(np.eye(n)[i], np.eye(n)[j])
             for i in range(n) for j in range(n) if i != j]
    diagonals = [np.diag(np.r_[np.ones(k), -k, np.zeros(n - k - 1)]) / np.sqrt(k * (k + 1))
                 for k in range(1, n)]
    return np.array(units + diagonals).reshape(n * n - 1, n, n)


def _frame(n):
    """T, the n^4 x n^4 matrix of the maps T_K and T_i stacked.

    Rows (j, x, y) carry entry (x, y) of T_{K_j}, then rows (i, y) entry y of
    T_i. On psi(E_ab (x) E_cd), whose position is n^3 a + n^2 c + n b + d,
    T_K gives delta_bc K E_ad - K[b, c] E_ad and T_i gives delta_ia delta_bc e_d^T.
    """
    K, eye = _traceless_basis(n), np.eye(n)
    TK = (np.einsum("jxa,bc,yd->jxyacbd", K, eye, eye)
          - np.einsum("xa,jbc,yd->jxyacbd", eye, K, eye))
    Ti = np.einsum("ia,bc,yd->iyacbd", eye, eye, eye)
    N = n ** 4
    return np.concatenate([TK.reshape(-1, N), Ti.reshape(-1, N)])


def _stars(n):
    """Index of Q_a* for each matrix unit Q_a = E_ij, a = n i + j."""
    a = np.arange(n * n)
    return (a % n) * n + a // n


def _derivation_vectors(n):
    """psi(Q_a (x) 1) for each matrix unit, as the columns of an n^4 x m array."""
    m = n * n
    V = np.zeros((n ** 4, m))
    i, j = np.divmod(np.arange(m), n)
    for t in range(n):
        V[_tidx(n, i, j, t, t), np.arange(m)] = 1.0
    return V


# G = U diag(sv) Vt, cut at rank; basis = Vt[rank:] spans the solution space,
# and diagnostics is the size's read-only mapping of G's counts, rank and
# margins, which every solution set and verdict of the size shows
TargetSVD = collections.namedtuple("TargetSVD", "U sv Vt rank basis diagnostics")


class SystemTemplate:
    """The part of the system that depends only on the algebra size n.

    T is the frame of the bimodule coordinates (module docstring) and G the
    target rows in q, rows (a, b, re/im); V holds the derivation vectors
    psi(Q_a (x) 1). A reduced matrix Q is the block matrix Q1 (+) Q2, of
    side k = n^2 - 1 + n. G's SVD (target_svd) and its nonzero entries
    (G_csr) are computed on first use and kept with the template, so they
    go when the template does. counts is a read-only mapping, shared by
    the size's systems.
    """

    def __init__(self, n, T, G, V, counts):
        self.n, self.T, self.G, self.V, self.counts = n, T, G, V, counts

    @property
    def unknowns(self):
        """Length of q: (n^2 - 1)^2 + n^2."""
        return self.G.shape[1]

    @functools.cached_property
    def target_svd(self):
        """G's TargetSVD. The rank cut is DEFAULT_RANK_TOL times the largest
        singular value (feasibility module docstring)."""
        U, sv, Vt = np.linalg.svd(self.G, full_matrices=False)
        rank = int(_rank(sv, sv[0], DEFAULT_RANK_TOL))
        basis = np.ascontiguousarray(Vt[rank:])
        for a in (U, sv, Vt, basis):
            a.flags.writeable = False
        diagnostics = types.MappingProxyType({
            "hom_kernel_dim": int(Vt.shape[1]),    # the coordinates q
            "target_rank": rank,
            "solution_dim": int(basis.shape[0]),
            "target_sv_max": float(sv[0]),
            "target_sv_min_kept": float(sv[rank - 1]) if rank else 0.0,
            "target_sv_max_dropped": float(sv[rank]) if rank < sv.size else 0.0,
            "system_counts": self.counts,
        })
        return TargetSVD(U, sv, Vt, rank, basis, diagnostics)

    @functools.cached_property
    def G_csr(self):
        """G's nonzero entries as a read-only linalg.CSR, for dump_system
        and callers that count them."""
        csr = CSR.from_dense(self.G)
        for a in (csr.indptr, csr.indices, csr.data):
            a.flags.writeable = False
        return csr

    def matrix(self, q):
        """The reduced matrix Q1 (+) Q2 with coordinates q."""
        n, d = self.n, self.n * self.n - 1
        Q = np.zeros((d + n, d + n), dtype=complex)
        Q[:d, :d] = hermitian_decode(q[:d * d], d)
        Q[d:, d:] = hermitian_decode(q[d * d:], n)
        return Q

    def pairing(self, R):
        """h with q . h = tr(Q(q) R) for Hermitian R of Q's side: the
        coordinates of R's two diagonal blocks."""
        d = self.n * self.n - 1
        return np.concatenate([hermitian_coords(R[:d, :d]), hermitian_coords(R[d:, d:])])

    def lift(self, Q):
        """X = T* (Q1 (x) I_{n^2} (+) Q2 (x) I_n) T, exactly Hermitian."""
        n, d = self.n, self.n * self.n - 1
        split = d * n * n
        T1, T2 = self.T[:split], self.T[split:]
        # (Q1 (x) I) T1 and (Q2 (x) I) T2; T is real, so X's real and
        # imaginary parts are two real products
        QT = np.concatenate([
            (Q[:d, :d] @ T1.reshape(d, -1)).reshape(split, -1),
            (Q[d:, d:] @ T2.reshape(n, -1)).reshape(-1, T2.shape[1])])
        X = self.T.T @ QT.real + 1j * (self.T.T @ QT.imag)
        return 0.5 * (X + X.conj().T)

    def lift_witness(self, u):
        """v = T^{-1}(u (x) e_1): v* X v = u* Q u for every X = lift(Q)."""
        n, d = self.n, self.n * self.n - 1
        w1, w2 = np.zeros((d, n * n), dtype=complex), np.zeros((n, n), dtype=complex)
        w1[:, 0], w2[:, 0] = u[:d], u[d:]
        return np.linalg.solve(self.T, np.concatenate([w1.reshape(-1), w2.reshape(-1)]))

    def vector_form(self, v):
        """h with v* lift(Q(q)) v = q . h, for any vector v of X's space."""
        n, d = self.n, self.n * self.n - 1
        w = self.T @ v
        W1, W2 = w[:d * n * n].reshape(d, n * n), w[d * n * n:].reshape(n, n)
        return np.concatenate([hermitian_coords(W1 @ W1.conj().T),
                               hermitian_coords(W2 @ W2.conj().T)])

    def conjugate(self, q):
        """The transposition-conjugation J: Q1 -> P conj(Q1) P^T and
        Q2 -> conj(Q2), P the permutation K_j -> K_j^T of the traceless
        basis. On q it is a signed permutation, an involution."""
        perm, sign = self._conjugation
        return sign * q[perm]

    @functools.cached_property
    def _conjugation(self):
        # (perm, sign) with J q = sign * q[perm], read off J's columns
        d = self.n * self.n - 1
        K = _traceless_basis(self.n)
        P = np.eye(d + self.n)
        P[:d, :d] = np.rint(K.reshape(d, -1) @ K.transpose(0, 2, 1).reshape(d, -1).T)
        J = np.array([self.pairing(P @ self.matrix(e).conj() @ P.T)
                      for e in np.eye(self.unknowns)]).T
        perm = np.argmax(np.abs(J), axis=1)
        return perm, J[np.arange(perm.size), perm]


def _target_rows(T, V, n):
    """G: row 2 (a m + b) + r is part r (real, imaginary) of
    psi(Q_b* (x) 1)* X(q) psi(Q_a (x) 1) as a linear function of q.

    With W = T V, the value is sum_jk Q_jk c_jk + the same over Q2, where
    c_jk = <W_k(a), W_j(b*)> sums over the rows of one map; tr(Q M) for
    M = c^T splits into tr(Q H) + i tr(Q S) with H and S the Hermitian
    and skew parts of M, whose coordinates are the two rows.
    """
    m, d = n * n, n * n - 1
    W = T @ V
    star = _stars(n)
    rows = []
    for block in (W[:d * m].reshape(d, m, m), W[d * m:].reshape(n, n, m)):
        M = np.einsum("kpa,jpb->abkj", block, block[:, :, star].conj())
        Mh = M.conj().swapaxes(-1, -2)
        rows.append(np.stack([hermitian_coords((M + Mh) / 2),
                              hermitian_coords((M - Mh) / 2j)], axis=2))
    return np.concatenate(rows, axis=-1).reshape(2 * m * m, -1)


_TEMPLATE_CACHE = {}


def _build_template(n):
    m = n * n
    T, V = _frame(n), _derivation_vectors(n)
    G = _target_rows(T, V, n)
    counts = {
        "intertwining_equations": 2 * m,
        "target_equations": m * m,
        "reduced_unknowns": G.shape[1],
        "rows_total": G.shape[0],
    }
    for a in (T, G, V):
        a.flags.writeable = False
    return SystemTemplate(n, T, G, V, types.MappingProxyType(counts))


def system_template(n):
    tpl = _TEMPLATE_CACHE.get(n)
    if tpl is None:
        tpl = _build_template(n)
        _TEMPLATE_CACHE[n] = tpl
    return tpl


def clear_caches():
    """Drop every size's template, and G's SVD and G_csr with it."""
    _TEMPLATE_CACHE.clear()


# ---------------------------------------------------------------------------
# The equations over X, in closed form
# ---------------------------------------------------------------------------

@functools.cache
def _diagonal_positions(n):
    """(diag, left, right): diag lists the positions psi(E_sk (x) E_kl) over
    every (s, k, l), and left[p, q] and right[p, q] the positions that J_pq
    and J_qp fill for them, psi(E_pq (x) E_sl) and psi(E_qp (x) E_sl);
    read-only."""
    s, k, l = (a.reshape(-1) for a in np.meshgrid(*[np.arange(n)] * 3, indexing="ij"))
    p, q = (a[..., None] for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    out = (_tidx(n, s, k, k, l), _tidx(n, p, q, s, l), _tidx(n, q, p, s, l))
    for a in out:
        a.flags.writeable = False
    return out


def left_residual(X, n, p, q):
    """X L_a - L_{a*}^T X for the matrix unit a = E_pq.

    In psi's axis order (i, k, j, l) for E_ij (x) E_kl, the left action of
    E_pq is E_pq (x) I_{n^3} - J S, where S sends E_ij (x) E_jl to E_il and
    J sends E_il to E_pq (x) E_il. L is real and X is Hermitian, so
    L_{a*}^T X = (X L_{a*})^H:

        (X L_a)[:, (s, k, j, l)] = [s = q] X[:, (p, k, j, l)] - [k = j] X[:, (p, s, q, l)]
        (L_{a*}^T X)[(u, k, j, l), :] = [u = p] X[(q, k, j, l), :] - [k = j] X[(q, u, p, l), :]
    """
    N = n ** 4
    blocks = (n, n ** 3, n, n ** 3)
    E = np.zeros(blocks, dtype=complex)
    E[:, :, q] = X.reshape(blocks)[:, :, p]
    E[p] -= X.reshape(blocks)[q]
    E = E.reshape(N, N)
    diag, left, right = _diagonal_positions(n)
    E[:, diag] -= X[:, left[p, q]]
    E[diag, :] += X[right[p, q], :]
    return E


def _intertwining_residual_sq(X, n):
    """The squared Frobenius norms of every intertwining residual, summed.

    Left family: the residual for a* is minus the adjoint of the one for
    a, so each pair {a, a*} is formed once and counted twice. Right family:
    R_a = I_{n^3} (x) E_qp for a = E_pq, so with X_st the n^3 x n^3 block
    of X at last-factor indices (s, t), X R_a - R_{a*}^T X = X (I (x) E_qp)
    - (I (x) E_qp) X has the blocks X_sq at (s, p) for s != q, -X_pt at
    (q, t) for t != p and X_qq - X_pp at (q, p); summed over a, its squared
    entries are 2n sum_{s != t} ||X_st||^2 + sum_{p, q} ||X_pp - X_qq||^2.
    """
    total = 0.0
    for p, q in zip(*np.triu_indices(n)):
        E = left_residual(X, n, p, q)
        total += (1.0 if p == q else 2.0) * np.vdot(E, E).real
    X4 = X.reshape(n ** 3, n, n ** 3, n)
    block_sq = np.einsum("asbt,asbt->st", X4.conj(), X4).real
    lane = np.arange(n)
    diagonal = X4[:, lane, :, lane]
    spread = diagonal[:, None] - diagonal[None]
    off = block_sq[~np.eye(n, dtype=bool)].sum()
    total += 2 * n * off + np.vdot(spread, spread).real
    return float(total)


class ConstraintSystem:
    """The feasibility system of one problem: a template plus its target values.

    b_target holds the right-hand sides of the template's target rows G,
    so a q solves the system when G q = b_target; F holds the target values
    f(Q_a, Q_b*), which matrix_residual checks X against. The template is
    shared by every system of size n.
    """

    def __init__(self, n, m, s, template, b_target, F):
        self.n, self.m, self.s, self.template = n, m, s, template
        self.b_target, self.F = b_target, F

    @property
    def G(self):
        """The template's target rows."""
        return self.template.G

    @property
    def A(self):
        """The reduced system's matrix, G, as the template's G_csr."""
        return self.template.G_csr

    @property
    def unknowns(self):
        """Real unknowns of the Hermitian n^4 x n^4 matrix X."""
        return self.m ** 4

    @property
    def hom_row_count(self):
        """The action equations hold for every q: no homogeneous rows."""
        return 0

    def matrix_residual(self, X):
        """||residual|| of X over the intertwining and target equations.

        The square root of the squared Frobenius norms of X L_a - L_{a*}^T X
        and X R_a - R_{a*}^T X over every matrix unit a, plus the squared
        moduli of psi(Q_b* (x) 1)* X psi(Q_a (x) 1) - F[a, b].
        """
        X = np.asarray(X, dtype=complex)
        V = self.template.V
        # entry (a, b) is psi(Q_b* (x) 1)* X psi(Q_a (x) 1)
        target = V.T @ X.T @ V[:, _stars(self.n)] - self.F
        return float(np.sqrt(_intertwining_residual_sq(X, self.n)
                             + np.vdot(target, target).real))

    def residual_of(self, coords):
        """matrix_residual of the X with the Hermitian coordinates coords."""
        return self.matrix_residual(hermitian_decode(coords, self.m ** 2))

    def residual_bound(self, tol):
        """tol * ||b||: the one threshold on a residual, zero when b = 0."""
        return _residual_bound(self.b_target, tol)


def _residual_bound(b, tol):
    """ConstraintSystem.residual_bound for the real right-hand side b;
    sqrt(b . b) is how np.linalg.norm takes it, without its checks."""
    return tol * math.sqrt(b.dot(b))


def assemble(spec, s):
    """The feasibility system of a validated generator spec.

    Its target rows come one real and one imaginary row per pair of basis
    elements.
    """
    n = spec.n
    if n < 2:
        raise DimensionMismatch(f"algebra size {n} is below 2")
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"algebra size {n} exceeds cap {DEFAULT_SIZE_CAP}")
    tpl = system_template(n)
    F = target_form(spec, s).F
    return ConstraintSystem(n, n * n, float(s), tpl, _target_rhs(F), F)


def dump_system(system, path):
    """Write the reduced system's G as sorted triplets (row col value) with
    17 significant digits; columns are the coordinates q.

    The right-hand side goes to ``<path>.rhs`` as (row value) lines.
    """
    A = system.A
    with open(path, "w") as fh:
        for row, col, value in zip(A.entry_rows, A.indices, A.data):
            fh.write(f"{row} {col} {value:.17g}\n")
    with open(str(path) + ".rhs", "w") as fh:
        for idx in np.nonzero(system.b_target)[0]:
            fh.write(f"{idx} {system.b_target[idx]:.17g}\n")
