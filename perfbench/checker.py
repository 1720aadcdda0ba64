"""Independent check of the program's evidence.

Builds the feasibility system from its definition, with nothing imported
from the program. The tensor square M_n (x) M_n carries the bimodule
actions

    A (B (x) C) = AB (x) C - A (x) BC,        (B (x) C) A = B (x) CA,

and L_a, R_a are their n^4 x n^4 matrices on the psi basis
(psi(E_ij (x) E_kl) = n^3 i + n^2 k + n j + l, 0-based). A Hermitian X
defines a derivation square root exactly when

    X L_a = L_{a*}^T X  and  X R_a = R_{a*}^T X   for every matrix unit a,
    psi(Q_b* (x) 1)* X psi(Q_a (x) 1) = <L(Q_a), Q_b*>_s  for all a, b,

with L(A) = -sum_j w_j e^{-omega_j/2} (V_j*[A, V_j] + [V_j*, A] V_j) and
<A, B>_s = tr(D^{1-s} B* D^s A), and X is PSD. Writing X = Xr + i Xi, the
equations are real-linear and split into one system for Xr and one for Xi
(the action matrices are real), each with Hermiticity rows (Xr symmetric,
Xi antisymmetric), assembled with ``scipy.sparse.kron``.

Evidence is checked as follows:

* a certificate X must satisfy every equation of these two systems, the
  Hermiticity rows included, and be PSD by ``eigvalsh``;
* a witness v must give a Farkas certificate: the functional
  X -> Re v* X v equals A^T y for some y (found by least squares), and
  y^T b < 0. Then v* X v = y^T b < 0 for every solution X, so none is PSD.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr

from gen import matrix_from_json, psi

CERT_TOL = 1e-7          # equation residual, relative to max(1, ||X||)
PSD_TOL = 1e-9           # least eigenvalue, relative to max(1, ||X||)
FARKAS_TOL = 1e-8        # ||A^T y - phi|| relative to ||phi||
VALUE_TOL = 1e-6         # y^T b must be below -VALUE_TOL


def action_matrices(n):
    """Dense real L_{E_pq}, R_{E_pq} keyed by (p, q)."""
    M = n ** 4
    L, R = {}, {}
    for p in range(n):
        for q in range(n):
            La = np.zeros((M, M))
            Ra = np.zeros((M, M))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            col = psi(n, i, j, k, l)
                            if q == i:        # E_pq E_ij (x) E_kl
                                La[psi(n, p, j, k, l), col] += 1.0
                            if j == k:        # - E_pq (x) E_ij E_kl
                                La[psi(n, p, q, i, l), col] -= 1.0
                            if l == p:        # E_ij (x) E_kl E_pq
                                Ra[psi(n, i, j, k, q), col] += 1.0
            L[p, q], R[p, q] = La, Ra
    return L, R


def _hermitian_part(M):
    return 0.5 * (M + M.conj().T)


def lindblad(doc, A):
    n = doc["n"]
    out = np.zeros((n, n), dtype=complex)
    for jump in doc["jumps"]:
        V = matrix_from_json(jump["V"])
        Vs = V.conj().T
        w = jump.get("weight", 1.0) * np.exp(-0.5 * jump["omega"])
        out -= w * (Vs @ (A @ V - V @ A) + (Vs @ A - A @ Vs) @ V)
    return out


def _dpow(D, p):
    w, U = np.linalg.eigh(_hermitian_part(D))
    return (U * w ** p) @ U.conj().T


def target_values(doc):
    """F[a, b] = <L(Q_a), Q_b*>_s with Q_{n i + j} = E_ij."""
    n = doc["n"]
    s = doc["s"]
    D = matrix_from_json(doc["density"])
    D1s, Ds = _dpow(D, 1.0 - s), _dpow(D, s)
    m = n * n
    F = np.zeros((m, m), dtype=complex)
    for a in range(m):
        Qa = np.zeros((n, n), dtype=complex)
        Qa[divmod(a, n)] = 1.0
        LQ = lindblad(doc, Qa)
        for b in range(m):
            Qb = np.zeros((n, n), dtype=complex)
            Qb[divmod(b, n)] = 1.0
            F[a, b] = np.trace(D1s @ Qb @ Ds @ LQ)   # B* = Q_b for B = Q_b*
    return F


def delta_vectors(n):
    """psi(Q_a (x) 1) for each matrix unit, as columns (real)."""
    M = n ** 4
    W = np.zeros((M, n * n))
    for a in range(n * n):
        i, j = divmod(a, n)
        for t in range(n):
            W[psi(n, i, j, t, t), a] = 1.0
    return W


class System:
    """The real-linear feasibility system for one problem document."""

    def __init__(self, doc, actions):
        n = doc["n"]
        self.n = n
        self.M = n ** 4
        self.actions = actions
        self.F = target_values(doc)
        self.W = delta_vectors(n)
        self._blocks = None

    # psi(Q_b* (x) 1) = psi(E_lk (x) 1) for Q_b = E_kl
    def _adjoint_index(self, b):
        k, l = divmod(b, self.n)
        return l * self.n + k

    def blocks(self):
        """(A_re, b_re, A_im, b_im) over row-major vec(Xr), vec(Xi)."""
        if self._blocks is None:
            L, R = self.actions
            M = self.M
            eye = sp.identity(M, format="csr")
            rows = []
            for (p, q), La in L.items():
                for T, Ts in ((La, L[q, p]), (R[p, q], R[q, p])):
                    # vec(X T) = (I (x) T^T) vec(X); vec(Ts^T X) = (Ts^T (x) I) vec(X)
                    rows.append(sp.kron(eye, sp.csr_matrix(T.T))
                                - sp.kron(sp.csr_matrix(Ts.T), eye))
            hom = sp.vstack(rows).tocsr()
            hom = hom[np.diff(hom.indptr) > 0]
            perm = sp.csr_matrix(
                (np.ones(M * M), (np.arange(M * M),
                                  (np.arange(M * M) % M) * M + np.arange(M * M) // M)),
                shape=(M * M, M * M))      # vec(X) -> vec(X^T)
            m = self.n * self.n
            tgt = sp.csr_matrix(np.array([
                np.kron(self.W[:, self._adjoint_index(b)], self.W[:, a])
                for a in range(m) for b in range(m)]))
            f = self.F.reshape(-1)
            zeros = np.zeros(hom.shape[0] + M * M)
            eye2 = sp.identity(M * M, format="csr")
            A_re = sp.vstack([hom, eye2 - perm, tgt]).tocsr()
            A_im = sp.vstack([hom, eye2 + perm, tgt]).tocsr()
            self._blocks = (A_re, np.concatenate([zeros, f.real]),
                            A_im, np.concatenate([zeros, f.imag]))
        return self._blocks


def check_certificate(system, X):
    """(ok, message) for a FEASIBLE certificate."""
    X = np.asarray(X, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(X)))
    A_re, b_re, A_im, b_im = system.blocks()
    # the (I -/+ transpose) rows make Hermiticity part of the residual
    res = max(float(np.abs(A_re @ X.real.reshape(-1) - b_re).max()),
              float(np.abs(A_im @ X.imag.reshape(-1) - b_im).max()))
    if res > CERT_TOL * scale:
        return False, f"certificate equation residual {res:.3e}"
    least = float(np.linalg.eigvalsh(X)[0])
    if least < -PSD_TOL * scale:
        return False, f"certificate least eigenvalue {least:.3e}"
    return True, f"certificate ok (residual {res:.1e}, least eigenvalue {least:.1e})"


def farkas_value(system, v):
    """(y^T b, relative residual of A^T y = phi) for the witness v."""
    v = np.asarray(v, dtype=complex)
    outer = np.outer(v.conj(), v)          # Re v* X v = <Re outer, Xr> - <Im outer, Xi>
    A_re, b_re, A_im, b_im = system.blocks()
    value = 0.0
    resid2 = 0.0
    norm2 = 0.0
    for A, b, phi in ((A_re, b_re, outer.real.reshape(-1)),
                      (A_im, b_im, -outer.imag.reshape(-1))):
        nrm = float(np.linalg.norm(phi))
        norm2 += nrm ** 2
        if nrm == 0.0:
            continue
        y = lsqr(A.T.tocsr(), phi, atol=1e-15, btol=1e-15, iter_lim=20000)[0]
        resid2 += float(np.linalg.norm(A.T @ y - phi)) ** 2
        value += float(y @ b)
    return value, float(np.sqrt(resid2 / norm2))


def check_witness(system, v):
    """(ok, message, value) for a NOT_PSD witness vector."""
    value, rel = farkas_value(system, v)
    if rel > FARKAS_TOL:
        return False, f"witness outside the row space (residual {rel:.1e})", value
    if value >= -VALUE_TOL * max(1.0, float(np.linalg.norm(v)) ** 2):
        return False, f"witness value {value:.3e} is not negative", value
    return True, f"witness ok (value {value:.6f}, residual {rel:.1e})", value
