"""Decide whether the assembled linear system has a positive-semidefinite solution.

Every solution of the homogeneous rows acts trivially on the last tensor
factor of the row-major vec(X): X = Y (x) I_n with Y of size n^3 x n^3, and
X is PSD exactly when Y is. So the whole pipeline runs in the reduced
coordinates y of Y, n^6 of them instead of n^8, through the system's lift
x = E y = hermitian_encode(decode(y) (x) I_n) / sqrt(n), a sparse
isometry: norms, singular values and every tolerance read the same in y as
in x, and Y = decode(y) / sqrt(n) has X's eigenvalues without their
multiplicity n. The pipeline is split into a linear stage and a conic stage:

  1. solve_affine intersects the nullspace of the homogeneous rows with the
     target rows. The homogeneous block depends only on the algebra size, so
     the nullspace of hom E (linalg.nullspace) is computed once per size and
     cached; each concrete problem then reduces to one SVD of the target
     rows target E restricted to that nullspace, also cached per size. Both
     cut their rank with the same rule: singular values above rank_tol
     times the largest one count. The result is a min-norm particular
     solution and an orthonormal basis of the solution space, or a
     NOT_CONSISTENT flag when the least-squares residual of the lifted
     point against the full system exceeds tol * max(1, ||b||).

  2. psd_search asks whether the affine set {X0 + sum_k t_k N_k} holds a
     PSD point. It certifies X0 itself when it can; otherwise it maximises
     lambda_min(X0 + sum_k t_k N_k) over t, the one optimisation whose
     theorem of alternatives answers both sides of the question (Boyd and
     Vandenberghe, Convex Optimization, 5.9; Overton 1992). A point with no
     negative eigenvalue is a certificate; at a negative maximum some
     trace-one PSD P on the least eigenspace is orthogonal to every N_k and
     pairs with X0 to that negative value. The reported negative
     evidence is rank one: an eigenvector u of the point's Y, reported as
     v = u (x) e_1, whose quadratic form is constant over the whole
     solution set (couplings to every basis direction at rounding level)
     and negative; a point whose least eigenvector is one is a maximiser,
     and the search stops there. Any candidate certificate is Y's PSD part
     F F* (its eigenpairs above rounding level), lifted to F F* (x) I_n and
     re-verified against the raw system before being reported, so a
     FEASIBLE verdict never depends on solver internals. When neither a certificate nor a witness is found the
     verdict is INDETERMINATE, with the maximised lambda_min as its cone
     gap.

The lift back to X happens only where the contract sees X: the certificate
(kept as the factor F, rebuilt as F F* (x) I_n and checked against the
system's own blocks), the witness vector, and witness_check, which takes any
vector of X's space. The linear stage reads the residual of x0 = E y0
through the lifted blocks hom E and target E, without forming x0.
All tolerances are relative to problem scale and recorded in the verdict.
There is one threshold on the residual ||A x - b||, the system's
residual_bound(tol) = tol * max(1, ||b||): the consistency test, the
certificate check and the CLI's verify all use it.
"""

import functools
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .constraints import assemble, clear_template_cache, system_template
from .errors import DimensionMismatch
from .linalg import (DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, _rank, herm_eig,
                     hermitian_decode, hermitian_encode, kron_eye, nullspace)

FEASIBLE = "FEASIBLE"
NOT_CONSISTENT = "NOT_CONSISTENT"
NOT_PSD = "NOT_PSD"
INDETERMINATE = "INDETERMINATE"

EXIT_CODES = {FEASIBLE: 0, NOT_CONSISTENT: 10, NOT_PSD: 11, INDETERMINATE: 12}

# min eigenvalue threshold for "positive": certificate spectra contain
# exact zeros, so positivity is read as semidefiniteness with rounding slack
DEFAULT_PSD_TOL = 1e-9

# witness acceptance: form value must be safely negative while couplings to
# every solution-space direction stay at rounding level
DEFAULT_WITNESS_VALUE_TOL = 1e-6
DEFAULT_WITNESS_COUPLING_TOL = 1e-8
# smoothing widths of the lambda_min maximisation, relative to
# max(1, ||X0||), one L-BFGS run each
MU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
# an L-BFGS run stops after LBFGS_MAX_ITER steps, once the gradient's largest
# entry is at most LBFGS_GRAD_TOL, or when LINE_SEARCH_HALVINGS halvings of
# the step find no sufficient decrease; the gradient entries are couplings
# <P, N_k> of a trace-one P to unit-norm N_k, so the tolerance is absolute
LBFGS_MAX_ITER = 200
LBFGS_MEMORY = 10
LBFGS_GRAD_TOL = 1e-12
LINE_SEARCH_HALVINGS = 20

_KERNEL_CACHE = {}
_TARGET_SVD_CACHE = {}


def clear_caches():
    _KERNEL_CACHE.clear()
    _TARGET_SVD_CACHE.clear()
    clear_template_cache()


class AffineSolutionSet:
    """Solution set {X0 + sum_k t_k N_k} of the assembled system.

    Coordinates are the reduced ones, y with X = Y (x) I_n for
    x = system.lift @ y (module docstring): y0_coords is the min-norm
    particular solution restricted to the homogeneous nullspace, and the
    rows of basis_array, orthonormal, span the solution space. residual is
    the full-system residual of the lifted x0; consistent means it is at
    most the system's residual_bound(tol).
    """

    def __init__(self, system, y0, basis_array, residual, consistent,
                 diagnostics):
        self.system = system
        self.y0_coords = np.asarray(y0, dtype=float)
        self.basis_array = np.asarray(basis_array, dtype=float)
        self.residual = float(residual)
        self.consistent = bool(consistent)
        self.diagnostics = dict(diagnostics)

    @property
    def side(self):
        """Side of X, n^4."""
        return self.system.m ** 2

    @property
    def dim(self):
        return self.basis_array.shape[0]


def _block(y, n):
    """The n^3 x n^3 matrix Y with X = Y (x) I_n, for reduced coordinates y.

    The lift carries 1/sqrt(n), so Y = decode(y) / sqrt(n); Y has X's
    eigenvalues, each once instead of n times, and ||X||_F = ||y||.
    """
    return hermitian_decode(y, n ** 3) / np.sqrt(n)


def _hom_kernel(system, rank_tol):
    key = (system.n, float(rank_tol))
    N = _KERNEL_CACHE.get(key)
    if N is None:
        rows = nullspace(system.hom_y, tol=rank_tol)
        N = np.ascontiguousarray(rows.T)
        _KERNEL_CACHE[key] = N
    return N


def _target_svd(system, N, rank_tol):
    # (U, sv, Vt, rank, solution-space basis, (largest, smallest kept and
    # largest dropped singular value)), cached for the template's own target
    # block so that sweep samples, and the verdicts that report the margins,
    # share them; permuted systems recompute
    canonical = system.target is system_template(system.n).target
    key = (system.n, float(rank_tol))
    if canonical and key in _TARGET_SVD_CACHE:
        return _TARGET_SVD_CACHE[key]
    W = (system.target_y @ N if N.shape[1]
         else np.zeros((2 * system.m ** 2, 0)))
    U, sv, Vt = np.linalg.svd(W, full_matrices=False)
    rank = int(_rank(sv, sv[0] if sv.size else 0.0, rank_tol))
    # orthonormal: N has orthonormal columns and Vt rows are orthonormal
    basis = (N @ Vt[rank:].T).T if N.shape[1] else np.zeros((0, N.shape[0]))
    margins = (float(sv[0]) if sv.size else 0.0,
               float(sv[rank - 1]) if rank else 0.0,
               float(sv[rank]) if rank < sv.size else 0.0)
    out = (U, sv, Vt, rank, basis, margins)
    if canonical:
        _TARGET_SVD_CACHE[key] = out
    return out


def _solve_stacked(systems, tol, rank_tol):
    """Min-norm solutions of systems that share one template, one per row.

    Row j of Y0 solves the target rows of systems[j] over the reduced
    homogeneous kernel N through the cached target SVD,
    y0 = N Vt^T diag(1/sv) U^T b_t, all rows in one product. residual[j] is
    the full-system residual ||[hom x0, target x0 - b_t]|| of the lifted
    x0 = system.lift @ y0, read as ||[hom_y y0, target_y y0 - b_t]|| through
    the lifted blocks, and bound[j] is systems[j].residual_bound(tol).
    Returns (Y0, residual, hom_residual, bound, svd) with svd =
    _target_svd's (U, sv, Vt, rank, basis, margins).
    """
    system = systems[0]
    N = _hom_kernel(system, rank_tol)
    svd = U, sv, Vt, rank, _, _ = _target_svd(system, N, rank_tol)
    B = np.array([s.b_target for s in systems])
    Y0 = (B @ U[:, :rank] / sv[:rank]) @ Vt[:rank] @ N.T
    # row by row, so that only one hom_y y0 (5643 entries at n = 3) is alive
    hom_res = np.array([np.linalg.norm(system.hom_y @ y) for y in Y0])
    target_res = np.linalg.norm(system.target_y @ Y0.T - B.T, axis=0)
    bound = np.array([s.residual_bound(tol) for s in systems])
    return Y0, np.hypot(hom_res, target_res), hom_res, bound, svd


def solve_affine(system, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Intersect the homogeneous nullspace with the target equations.

    Returns an AffineSolutionSet; .consistent is False when the
    least-squares residual exceeds system.residual_bound(tol) =
    tol * max(1, ||b||) (the Rouche-Capelli test in floating point). The
    bound leaves out ||A||_F, which only counts the unit-norm rows and would
    admit residuals of inconsistent systems.
    """
    Y0, residual, hom_res, bound, svd = _solve_stacked([system], tol, rank_tol)
    _, _, Vt, rank, basis, (sv_max, sv_kept, sv_dropped) = svd
    diagnostics = {
        "hom_kernel_dim": int(Vt.shape[1]),    # one column per kernel vector
        "target_rank": rank,
        "solution_dim": int(basis.shape[0]),
        "residual": float(residual[0]),
        "hom_residual": float(hom_res[0]),
        "consistency_bound": float(bound[0]),
        "target_sv_max": sv_max,
        "target_sv_min_kept": sv_kept,
        "target_sv_max_dropped": sv_dropped,
    }
    return AffineSolutionSet(system, Y0[0], basis, diagnostics["residual"],
                             residual[0] <= bound[0], diagnostics)


def witness_check(sol, v):
    """Quadratic form of v over the solution set.

    v is any vector of length n^4, on which X acts. Returns
    (value, max_coupling): value = v* X0 v, and max_coupling is the largest
    |v* N_k v| over the solution-space basis. When max_coupling is at
    rounding level the form is constant over the set, and a negative value
    certifies that no PSD solution exists.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (sol.side,):
        raise DimensionMismatch(f"witness length {v.size}, expected {sol.side}")
    # v* (Y (x) I_n) v = tr(Y R) for the partial trace R = Tr_2(v v*)
    V = v.reshape(-1, sol.system.n)
    return _form(sol, V @ V.conj().T)


def _form(sol, R):
    """(tr(Y0 R), max_k |tr(Y_k R)|) for a Hermitian n^3 x n^3 matrix R.

    Y0 and Y_k are the blocks of X0 and of the basis directions N_k; the
    pairing <y, encode(R)> / sqrt(n) is tr(Y R) (see _block).
    """
    h = hermitian_encode(R) / np.sqrt(sol.system.n)
    coupling = float(np.max(np.abs(sol.basis_array @ h))) if sol.dim else 0.0
    return float(sol.y0_coords @ h), coupling


def witness_hunt(sol, y_coords):
    """Look for an infeasibility witness among the eigenvectors of Y(y).

    y is a point of the solution set, normally the end of the lambda_min
    maximisation. Each eigenvector u of Y(y) with a negative eigenvalue is
    tried in ascending order, first with its rounding-noise entries
    dropped, then as it is. A candidate is accepted when its value is below
    -DEFAULT_WITNESS_VALUE_TOL and its coupling at most
    DEFAULT_WITNESS_COUPLING_TOL. Returns (u, value, coupling) or None; the
    witness in X's space is u (x) e_1, with the same value and coupling.
    """
    n = sol.system.n
    w, V = herm_eig(_block(y_coords, n))
    scale_x = max(1.0, float(np.linalg.norm(y_coords)))
    for idx in np.nonzero(w < -DEFAULT_PSD_TOL * scale_x)[0]:
        u = V[:, idx]
        candidates = [u]
        # drop rounding-noise entries when the cleaned vector still works
        mask = np.abs(u) > 1e-10
        if mask.any() and not mask.all():
            cleaned = np.where(mask, u, 0.0)
            candidates.insert(0, cleaned / np.linalg.norm(cleaned))
        for c in candidates:
            value, coupling = _form(sol, np.outer(c, c.conj()))
            if _is_witness(value, coupling):
                return c.copy(), value, coupling    # a view keeps V alive
    return None


def _is_witness(value, coupling):
    return (value < -DEFAULT_WITNESS_VALUE_TOL
            and coupling <= DEFAULT_WITNESS_COUPLING_TOL)


@dataclass(slots=True)
class FeasibilityVerdict:
    """Outcome of the PSD feasibility decision with its evidence attached.

    The evidence is kept in the reduced variable, X = Y (x) I_n:
    certificate_factor is F with Y = F F* (one column per eigenvalue of Y
    above rounding level) and reduced_witness the witness u of Y.
    certificate, spectrum and witness_vector give the same evidence in X's
    space. The tolerances are one read-only mapping shared by the verdicts
    that use them.
    """

    kind: str
    residual: float
    nullspace_dim: int
    certificate_factor: np.ndarray = None
    reduced_witness: np.ndarray = None
    witness_value: float = None
    witness_coupling: float = None
    tolerances: Mapping = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def certificate(self):
        """X = F F* (x) I_n, bit for bit the matrix checked against the system."""
        F = self.certificate_factor
        return None if F is None else kron_eye(_gram(F), _n_of_side(len(F)))

    @property
    def spectrum(self):
        """X's eigenvalues, ascending: each of Y's n times."""
        F = self.certificate_factor
        if F is None:
            return None
        return np.repeat(herm_eig(_gram(F))[0], _n_of_side(len(F)))

    @property
    def witness_vector(self):
        """The witness u (x) e_1 in X's space."""
        u = self.reduced_witness
        if u is None:
            return None
        n = _n_of_side(u.size)
        v = np.zeros(u.size * n, dtype=complex)
        v[::n] = u
        return v

    @property
    def exit_code(self):
        return EXIT_CODES[self.kind]

    def as_dict(self):
        out = {
            "kind": self.kind,
            "residual": self.residual,
            "nullspace_dim": self.nullspace_dim,
            "tolerances": dict(self.tolerances),
            "diagnostics": _jsonable(self.diagnostics),
        }
        if self.certificate_factor is not None:
            out["certificate"] = _cmat_to_json(self.certificate)
            out["spectrum"] = [float(x) for x in self.spectrum]
        if self.reduced_witness is not None:
            out["witness"] = {
                "vector": _cvec_to_json(self.witness_vector),
                "value": self.witness_value,
                "coupling": self.witness_coupling,
            }
        return out


def _n_of_side(side):
    """n for Y's side n^3."""
    return round(side ** (1 / 3))


def _gram(F):
    """F F*, exactly Hermitian; numpy's own loops (no BLAS) give the same
    bits on every call with the same F."""
    return np.einsum("ir,jr->ij", F, F.conj())


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _cmat_to_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _cvec_to_json(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


@functools.lru_cache(maxsize=64)
def _tolerances(tol, rank_tol, psd_tol):
    return types.MappingProxyType({
        "feasibility": tol, "rank": rank_tol, "psd": psd_tol,
        "witness_value": DEFAULT_WITNESS_VALUE_TOL,
        "witness_coupling": DEFAULT_WITNESS_COUPLING_TOL})


def _certify(sol, y_coords, tol, psd_tol, tolerances):
    """Project Y onto the PSD cone and re-verify Y (x) I_n against the raw system.

    The projection keeps the eigenpairs of Y above rounding level
    (k eps lambda_max for k x k Y, numpy's matrix_rank cut) as a factor
    F = V diag(sqrt(w)); the certificate is F F*, checked as it is kept.
    """
    system = sol.system
    w, V = herm_eig(_block(y_coords, system.n))
    scale_x = max(1.0, float(np.linalg.norm(y_coords)))
    if w[0] < -psd_tol * scale_x:
        return None
    keep = w > w[-1] * w.size * np.finfo(float).eps
    F = V[:, keep] * np.sqrt(w[keep])
    Yp = _gram(F)
    residual = system.residual_of(hermitian_encode(kron_eye(Yp, system.n)))
    if residual > system.residual_bound(tol):
        return None
    wf, _ = herm_eig(Yp)
    return FeasibilityVerdict(
        kind=FEASIBLE, residual=residual, nullspace_dim=sol.dim,
        certificate_factor=F, tolerances=tolerances,
        diagnostics={**sol.diagnostics, "certificate_min_eig": float(wf[0])})


def _lbfgs(fun, t, *args):
    """Minimise fun(t, *args) -> (value, gradient) by L-BFGS from t.

    Directions come from the two-loop recursion over the last LBFGS_MEMORY
    steps (pairs with s.y <= 0 are skipped, so each direction descends);
    the step is the first of 1, 1/2, 1/4, ... with Armijo decrease.
    """
    f, g = fun(t, *args)
    pairs = []
    for _ in range(LBFGS_MAX_ITER):
        if np.max(np.abs(g)) <= LBFGS_GRAD_TOL:
            break
        d = -g
        alphas = []
        for s, y in reversed(pairs):
            alphas.append((s @ d) / (s @ y))
            d = d - alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        for (s, y), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - (y @ d) / (s @ y)) * s
        slope = g @ d
        step = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            f_new, g_new = fun(t + step * d, *args)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = step * d, g_new - g
        if s @ y > 0:
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
        t, f, g = t + s, f_new, g_new
    return t


class _Settled(Exception):
    """Raised with the point reached when that point decides the question."""


def _max_min_eig(sol, psd_tol):
    """Maximise lambda_min(X0 + sum_k t_k N_k) over t, in Y.

    Minimises the smoothed -lambda_min of X,
    mu log sum_i exp(-(lambda_i - lambda_1) / mu) - lambda_1 over X's
    eigenvalues, which are Y's, each n times: mu log(n sum_j ...) over Y's.
    Its gradient in t is -B encode(P) / sqrt(n) for the softmax
    eigenprojector P = sum_j p_j u_j u_j* of Y. L-BFGS runs from t = 0; mu
    runs through MU_SCHEDULE times max(1, ||X0||), each run starting where
    the last one ended. Stops at the first point, X0 included, whose least
    eigenvalue passes the certificate's test or whose least eigenvector is
    a witness (then it is a maximiser: the witness's form is the same all
    over the set and bounds lambda_min). Returns (y, least eigenvalue of every
    eigensolve); the first is X0's and the last is y's.
    """
    y0, B, n = sol.y0_coords, sol.basis_array, sol.system.n
    least = []

    def smoothed(t, mu):
        y = y0 + B.T @ t
        w, V = herm_eig(_block(y, n))
        least.append(float(w[0]))
        u = V[:, 0]
        if (w[0] >= -psd_tol * max(1.0, float(np.linalg.norm(y)))
                or _is_witness(*_form(sol, np.outer(u, u.conj())))):
            raise _Settled(y)
        e = np.exp((w[0] - w) / mu)
        P = (V * (e / e.sum())) @ V.conj().T
        return (mu * np.log(n * e.sum()) - w[0],
                -(B @ hermitian_encode(P)) / np.sqrt(n))

    t = np.zeros(sol.dim)
    if sol.dim:
        scale = max(1.0, float(np.linalg.norm(y0)))
        try:
            for mu in MU_SCHEDULE:
                t = _lbfgs(smoothed, t, mu * scale)
        except _Settled as stop:
            return stop.args[0], least
    y = y0 + B.T @ t
    least.append(float(herm_eig(_block(y, n))[0][0]))
    return y, least


def psd_search(sol, tol=DEFAULT_FEAS_TOL, psd_tol=DEFAULT_PSD_TOL,
               rank_tol=DEFAULT_RANK_TOL):
    """Decide whether the affine solution set holds a PSD element.

    Certifies x0 itself when it passes; otherwise maximises the least
    eigenvalue over the set (_max_min_eig), certifies the point reached,
    and looks for a witness among its eigenvectors. Every candidate
    certificate is re-verified against the raw system; with neither a
    certificate nor a witness the verdict is INDETERMINATE. Diagnostics:
    iterations (eigensolves of the maximisation), min_eig_first (at X0) and
    cone_gap (the least eigenvalue at the point reached, signed).
    """
    if not sol.consistent:
        raise DimensionMismatch("psd_search requires a consistent solution set")
    tolerances = _tolerances(tol, rank_tol, psd_tol)
    verdict = _certify(sol, sol.y0_coords, tol, psd_tol, tolerances)
    if verdict is not None:
        return verdict

    y, least = _max_min_eig(sol, psd_tol)
    search = {"iterations": len(least), "min_eig_first": least[0],
              "cone_gap": least[-1]}
    verdict = _certify(sol, y, tol, psd_tol, tolerances)
    if verdict is not None:
        verdict.diagnostics.update(search)
        return verdict
    hunt = witness_hunt(sol, y)
    if hunt is not None:
        u, value, coupling = hunt
        return FeasibilityVerdict(
            kind=NOT_PSD, residual=sol.residual, nullspace_dim=sol.dim,
            reduced_witness=u, witness_value=value, witness_coupling=coupling,
            tolerances=tolerances, diagnostics={**sol.diagnostics, **search})
    return FeasibilityVerdict(
        kind=INDETERMINATE, residual=sol.residual, nullspace_dim=sol.dim,
        tolerances=tolerances, diagnostics={**sol.diagnostics, **search})


def verdict_for(sol, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
                psd_tol=DEFAULT_PSD_TOL):
    """Turn a solved affine stage into a verdict.

    Inconsistent systems short-circuit to NOT_CONSISTENT; everything else
    goes through the PSD search.
    """
    if not sol.consistent:
        return FeasibilityVerdict(
            kind=NOT_CONSISTENT, residual=sol.residual,
            nullspace_dim=sol.dim,
            tolerances=_tolerances(tol, rank_tol, psd_tol),
            diagnostics=dict(sol.diagnostics))
    return psd_search(sol, tol=tol, psd_tol=psd_tol, rank_tol=rank_tol)


def decide(spec, s, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
           psd_tol=DEFAULT_PSD_TOL, basis_perm=None):
    """Assemble, solve the linear stage, and run the PSD search."""
    system = assemble(spec, s, basis_perm=basis_perm)
    sol = solve_affine(system, tol=tol, rank_tol=rank_tol)
    verdict = verdict_for(sol, tol=tol, rank_tol=rank_tol, psd_tol=psd_tol)
    verdict.diagnostics.setdefault("system_counts", system.counts)
    return verdict
