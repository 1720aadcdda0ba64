"""States, modular action, interpolated inner products, and Lindblad generators.

A faithful state on M_n(C) is represented by its density matrix D (Hermitian,
strictly positive, trace one). The modular conjugation by D and the family of
inner products

    <A, B>_s = tr(D^{1-s} B* D^s A),    s in [0, 1]

interpolate between the GNS form (s = 0) and the KMS form (s = 1/2). All
powers of D go through its cached eigendecomposition, so non-diagonal density
matrices are handled identically to diagonal ones.

Generators are specified by jump operators V_j with Bohr frequencies omega_j
satisfying D V_j D^{-1} = exp(-omega_j) V_j, the jump list closed under
adjoints. The generator acts as

    L(A) = -sum_j w_j exp(-omega_j / 2) (V_j* [A, V_j] + [V_j*, A] V_j)

with optional real weights w_j (default 1); signed weights cover sums of
rank-one diagonal pieces that arise when splitting a diagonal jump operator.
"""

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .linalg import as_cmatrix, herm_eig


# validate_spec's fixed tolerance on the modular eigenvector relation,
# relative to ||V||_F
EIGENVECTOR_TOL = 1e-8

# gns_symmetry_check draws this many seeded pairs (A, B)
GNS_CHECK_TRIALS = 20
GNS_CHECK_SEED = 0


class DensityState:
    """Faithful state on M_n(C): positive trace-one density matrix D.

    eigvals and eigvecs, D's eigendecomposition, are computed from D.
    """

    def __init__(self, n, D):
        D = as_cmatrix(D, n).copy()
        w, V = herm_eig(D)
        if w[0] <= 0:
            raise NotHermitian(
                f"density matrix not strictly positive (min eigenvalue {w[0]:.3e})")
        if abs(w.sum() - 1.0) > 1e-10:
            raise DimensionMismatch(f"density trace {w.sum()} is not 1")
        for a in (D, w, V):
            a.flags.writeable = False
        self.n, self.D, self.eigvals, self.eigvecs = n, D, w, V

    @classmethod
    def from_matrix(cls, D):
        D = as_cmatrix(D)
        return cls(D.shape[0], D)

    @classmethod
    def from_diagonal(cls, diag, normalize=False):
        d = np.asarray(diag, dtype=float)
        if normalize:
            d = d / d.sum()
        return cls(len(d), np.diag(d).astype(complex))

    @classmethod
    def tracial(cls, n):
        return cls(n, np.eye(n, dtype=complex) / n)

    def power(self, p):
        """Fractional power D^p through the cached eigendecomposition."""
        return (self.eigvecs * self.eigvals ** p) @ self.eigvecs.conj().T


def modular_conjugate(state, A, p):
    """D^p A D^{-p}, the analytic continuation sigma_{-ip} of the modular group."""
    A = as_cmatrix(A, state.n)
    return state.power(p) @ A @ state.power(-p)


def s_inner(state, s, A, B):
    """<A, B>_s = tr(D^{1-s} B* D^s A) with D the trace-one density matrix."""
    if not 0.0 <= s <= 1.0:
        raise DimensionMismatch(f"inner-product parameter s={s} outside [0, 1]")
    A = as_cmatrix(A, state.n)
    B = as_cmatrix(B, state.n)
    return complex(np.trace(state.power(1.0 - s) @ B.conj().T @ state.power(s) @ A))


class Jump:
    """One jump operator with its Bohr frequency and an optional real weight."""

    def __init__(self, V, omega, weight=1.0):
        V = as_cmatrix(V).copy()
        V.flags.writeable = False
        self.V, self.omega, self.weight = V, omega, weight


class LindbladSpec:
    """State plus adjoint-closed jump operators defining a symmetric generator."""

    def __init__(self, state, jumps):
        jumps = tuple(j if isinstance(j, Jump) else Jump(*j) for j in jumps)
        for j in jumps:
            if j.V.shape != (state.n, state.n):
                raise DimensionMismatch(
                    f"jump shape {j.V.shape} does not match n={state.n}")
        self.state, self.jumps = state, jumps

    @property
    def n(self):
        return self.state.n


def derive_omega(state, V):
    """Bohr frequency recovered from the eigenvector relation D V D^{-1} = e^{-w} V.

    Uses the Rayleigh ratio <V, D V D^{-1}> / <V, V> in the Frobenius inner
    product; validation separately checks the relation actually holds.
    """
    V = as_cmatrix(V, state.n)
    nrm2 = np.vdot(V, V).real
    if nrm2 == 0:
        return 0.0
    ratio = np.vdot(V, modular_conjugate(state, V, 1.0)) / nrm2
    if ratio.real <= 0:
        return 0.0
    return float(-np.log(ratio.real))


def make_spec(state, jumps):
    """Build a LindbladSpec from (V, omega or None[, weight]) tuples.

    Omitted frequencies are recovered from the modular eigenvector relation.
    """
    out = []
    for item in jumps:
        if isinstance(item, Jump):
            out.append(item)
            continue
        V, omega = item[0], item[1]
        weight = item[2] if len(item) > 2 else 1.0
        if omega is None:
            omega = derive_omega(state, V)
        out.append(Jump(as_cmatrix(V, state.n), float(omega), float(weight)))
    return LindbladSpec(state, tuple(out))


def lindblad_apply(spec, A):
    """Apply the generator L(A) = -sum_j w_j e^{-omega_j/2} (V*[A,V] + [V*,A]V)."""
    A = as_cmatrix(A, spec.n)
    out = np.zeros_like(A)
    for j in spec.jumps:
        V = j.V
        Vs = V.conj().T
        comm_AV = A @ V - V @ A
        comm_VsA = Vs @ A - A @ Vs
        out -= j.weight * np.exp(-0.5 * j.omega) * (Vs @ comm_AV + comm_VsA @ V)
    return out


def generator_matrix(spec):
    """The m x m matrix S of L on row-major vec(M_n): vec(L(A)) = S vec(A).

    With c_j = w_j e^{-omega_j/2} and G = sum_j c_j V_j* V_j the generator is
    L(A) = G A + A G - 2 sum_j c_j V_j* A V_j, and row-major vectorization
    turns X A Y into (X kron Y^T) vec(A), so
    S = G kron I + I kron G^T - 2 sum_j c_j V_j* kron V_j^T.
    """
    n = spec.n
    V = np.array([j.V for j in spec.jumps], dtype=complex).reshape(-1, n, n)
    c = np.array([j.weight * np.exp(-0.5 * j.omega) for j in spec.jumps])
    return _generator_matrix(c, V)


def _generator_matrix(c, V):
    """generator_matrix of the jumps V[p] (a p x n x n stack) with
    coefficients c[p] = w_p e^{-omega_p/2}."""
    n = V.shape[-1]
    Vc = V.conj()
    G = np.einsum("p,pri,prk->ik", c, Vc, V)
    eye = np.eye(n)
    # S[i, j, k, l] is the coefficient of A[k, l] in L(A)[i, j]
    S = (np.einsum("ik,jl->ijkl", G, eye) + np.einsum("ik,lj->ijkl", eye, G)
         - 2.0 * np.einsum("p,pki,plj->ijkl", c, Vc, V))
    return S.reshape(n * n, n * n)


class ValidationReport:
    """Outcome of checking the generator hypotheses on a LindbladSpec."""

    def __init__(self, adjoint_closed, sigma_residuals, omegas, messages, ok):
        self.adjoint_closed, self.sigma_residuals = adjoint_closed, sigma_residuals
        self.omegas, self.messages, self.ok = omegas, messages, ok

    def as_dict(self):
        return {
            "ok": self.ok,
            "adjoint_closed": self.adjoint_closed,
            "sigma_residuals": self.sigma_residuals,
            "omegas": self.omegas,
            "messages": self.messages,
        }


def validate_spec(spec):
    """Check adjoint closure of the jump multiset and the modular eigenvector relation.

    Each jump must satisfy ||D V D^{-1} - e^{-omega} V||_F <= EIGENVECTOR_TOL
    * ||V||_F, and the multiset {(V_j, omega_j, w_j)} must be invariant under
    (V, omega, w) -> (V*, -omega, w): two jumps are partners when their V
    agree entrywise within 1e-12 times the larger ||V||_F, their weights
    within 1e-12 times the larger |w|, and their omegas within 1e-8.
    Failures are reported, not raised.
    """
    messages = []
    residuals = []
    norms = [np.linalg.norm(j.V) for j in spec.jumps]
    for idx, (j, nrm) in enumerate(zip(spec.jumps, norms)):
        if nrm == 0:
            residuals.append(0.0)
            continue
        dev = np.linalg.norm(
            modular_conjugate(spec.state, j.V, 1.0) - np.exp(-j.omega) * j.V)
        rel = float(dev / nrm)
        residuals.append(rel)
        if rel > EIGENVECTOR_TOL:
            messages.append(
                f"jump {idx}: not a modular eigenvector with omega={j.omega:.6g} "
                f"(relative residual {rel:.3e})")

    unmatched = list(range(len(spec.jumps)))
    adjoint_closed = True
    while unmatched:
        i = unmatched.pop(0)
        ji = spec.jumps[i]
        partner = None
        # V and the weight are compared at the scale of the pair itself;
        # omega is the log of a ratio of D's eigenvalues and carries no
        # scale, so its tolerance is absolute
        for k in unmatched:
            jk = spec.jumps[k]
            if (np.allclose(jk.V, ji.V.conj().T, rtol=0,
                            atol=1e-12 * max(norms[i], norms[k]))
                    and abs(jk.omega + ji.omega) <= 1e-8
                    and abs(jk.weight - ji.weight)
                    <= 1e-12 * max(abs(ji.weight), abs(jk.weight))):
                partner = k
                break
        if partner is not None:
            unmatched.remove(partner)
        elif np.allclose(ji.V, ji.V.conj().T, rtol=0, atol=1e-12 * norms[i]) \
                and abs(ji.omega) <= 1e-8:
            continue  # self-adjoint jump pairs with itself
        else:
            adjoint_closed = False
            messages.append(f"jump {i}: no adjoint partner in the jump list")

    ok = adjoint_closed and all(r <= EIGENVECTOR_TOL for r in residuals)
    return ValidationReport(adjoint_closed, residuals,
                            [j.omega for j in spec.jumps], messages, ok)


def gns_symmetry_check(spec):
    """Largest relative GNS asymmetry |lhs - rhs| / (|lhs| + |rhs|), lhs =
    <L(A),B>_0 and rhs = <A,L(B)>_0, over GNS_CHECK_TRIALS random pairs
    drawn from the seed GNS_CHECK_SEED; 0 where lhs = rhs = 0."""
    rng = np.random.default_rng(GNS_CHECK_SEED)
    n = spec.n
    worst = 0.0
    for _ in range(GNS_CHECK_TRIALS):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        la = lindblad_apply(spec, A)
        lb = lindblad_apply(spec, B)
        lhs = s_inner(spec.state, 0.0, la, B)
        rhs = s_inner(spec.state, 0.0, A, lb)
        scale = abs(lhs) + abs(rhs)
        worst = max(worst, abs(lhs - rhs) / scale if scale else 0.0)
    return worst
