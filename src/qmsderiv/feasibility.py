"""Decide whether the assembled linear system has a positive-semidefinite solution.

The pipeline is split into a linear stage and a conic stage:

  1. solve_affine intersects the nullspace of the homogeneous rows with the
     target rows. The homogeneous block depends only on the algebra size, so
     its nullspace (linalg.nullspace) is computed once per size and cached;
     each concrete problem then reduces to one SVD of the target rows
     restricted to that nullspace, also cached per size. Both cut their
     rank with the same rule: singular values above rank_tol times the
     largest one count. The result is a min-norm particular solution and an
     orthonormal basis of the solution space, or a NOT_CONSISTENT flag when
     the least-squares residual exceeds tol * max(1, ||b||).

  2. psd_search asks whether the affine set {X0 + sum_k t_k N_k} holds a
     PSD point. It certifies X0 itself when it can; otherwise it maximises
     lambda_min(X0 + sum_k t_k N_k) over t, the one optimisation whose
     theorem of alternatives answers both sides of the question (Boyd and
     Vandenberghe, Convex Optimization, 5.9; Overton 1992). A point with no
     negative eigenvalue is a certificate; at a negative maximum some
     trace-one PSD P on the least eigenspace is orthogonal to every N_k and
     pairs with X0 to that negative value. The reported negative
     evidence is rank one: an eigenvector v of the point reached whose
     quadratic form is constant over the whole solution set (couplings to
     every basis direction at rounding level) and negative; a point whose
     least eigenvector is one is a maximiser, and the search stops there.
     Any candidate certificate is re-verified against the raw system before
     being reported, so a FEASIBLE verdict never depends on solver internals.
     When neither a certificate nor a witness is found the verdict is
     INDETERMINATE, with the maximised lambda_min as its cone gap.

All tolerances are relative to problem scale and recorded in the verdict.
There is one threshold on the residual ||A x - b||, the system's
residual_bound(tol) = tol * max(1, ||b||): the consistency test, the
certificate check and the CLI's verify all use it.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import assemble, clear_template_cache, system_template
from .errors import DimensionMismatch
from .linalg import (DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, _rank, herm_eig,
                     hermitian_decode, hermitian_encode, nullspace)

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

    Coordinates live in the Hermitian parametrization; x0 is the min-norm
    particular solution restricted to the homogeneous nullspace and the
    basis rows are orthonormal. residual is the full-system residual of x0;
    consistent means it is at most the system's residual_bound(tol).
    """

    def __init__(self, system, x0, basis_array, residual, consistent,
                 diagnostics):
        self.system = system
        self.x0_coords = np.asarray(x0, dtype=float)
        self.basis_array = np.asarray(basis_array, dtype=float)
        self.residual = float(residual)
        self.consistent = bool(consistent)
        self.diagnostics = dict(diagnostics)

    @property
    def side(self):
        return self.system.m ** 2

    @property
    def dim(self):
        return self.basis_array.shape[0]


def _hom_kernel(system, rank_tol):
    key = (system.n, float(rank_tol))
    N = _KERNEL_CACHE.get(key)
    if N is None:
        rows = nullspace(system.hom, tol=rank_tol)
        N = np.ascontiguousarray(rows.T)
        _KERNEL_CACHE[key] = N
    return N


def _target_svd(system, N, rank_tol):
    # (U, sv, Vt, rank, solution-space basis), cached for the template's own
    # target block so that sweep samples share them; permuted systems recompute
    canonical = system.target is system_template(system.n).target
    key = (system.n, float(rank_tol))
    if canonical and key in _TARGET_SVD_CACHE:
        return _TARGET_SVD_CACHE[key]
    W = system.target @ N if N.shape[1] else np.zeros((2 * system.m ** 2, 0))
    U, sv, Vt = np.linalg.svd(W, full_matrices=False)
    rank = int(_rank(sv, sv[0] if sv.size else 0.0, rank_tol))
    # orthonormal: N has orthonormal columns and Vt rows are orthonormal
    basis = (N @ Vt[rank:].T).T if N.shape[1] else np.zeros((0, system.unknowns))
    out = (U, sv, Vt, rank, basis)
    if canonical:
        _TARGET_SVD_CACHE[key] = out
    return out


def _solve_stacked(systems, tol, rank_tol):
    """Min-norm solutions of systems that share one template, one per row.

    Row j of X0 solves the target rows of systems[j] over the homogeneous
    kernel N through the cached target SVD, x0 = N Vt^T diag(1/sv) U^T b_t,
    all rows in one product. residual[j] is the full-system residual
    ||[hom x0, target x0 - b_t]|| and bound[j] is
    systems[j].residual_bound(tol). Returns (X0, residual, hom_residual,
    bound, svd) with svd = _target_svd's (U, sv, Vt, rank, basis).
    """
    system = systems[0]
    N = _hom_kernel(system, rank_tol)
    svd = U, sv, Vt, rank, _ = _target_svd(system, N, rank_tol)
    B = np.array([s.b_target for s in systems])
    X0 = (B @ U[:, :rank] / sv[:rank]) @ Vt[:rank] @ N.T
    # row by row, so that only one hom x0 (22464 entries at n = 3) is alive
    hom_res = np.array([np.linalg.norm(system.hom @ x) for x in X0])
    target_res = np.array([np.linalg.norm(system.target @ x - b)
                           for x, b in zip(X0, B)])
    bound = np.array([s.residual_bound(tol) for s in systems])
    return X0, np.hypot(hom_res, target_res), hom_res, bound, svd


def solve_affine(system, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Intersect the homogeneous nullspace with the target equations.

    Returns an AffineSolutionSet; .consistent is False when the
    least-squares residual exceeds system.residual_bound(tol) =
    tol * max(1, ||b||) (the Rouche-Capelli test in floating point). The
    bound leaves out ||A||_F, which only counts the unit-norm rows and would
    admit residuals of inconsistent systems.
    """
    X0, residual, hom_res, bound, (U, sv, Vt, rank, basis) = _solve_stacked(
        [system], tol, rank_tol)
    diagnostics = {
        "hom_kernel_dim": int(Vt.shape[1]),    # one column per kernel vector
        "target_rank": rank,
        "solution_dim": int(basis.shape[0]),
        "residual": float(residual[0]),
        "hom_residual": float(hom_res[0]),
        "consistency_bound": float(bound[0]),
        "target_sv_max": float(sv[0]) if sv.size else 0.0,
        "target_sv_min_kept": float(sv[rank - 1]) if rank else 0.0,
        "target_sv_max_dropped": float(sv[rank]) if rank < sv.size else 0.0,
    }
    return AffineSolutionSet(system, X0[0], basis, residual[0],
                             residual[0] <= bound[0], diagnostics)


def witness_check(sol, v, tol=DEFAULT_FEAS_TOL):
    """Quadratic form of v over the solution set.

    Returns (value, max_coupling): value = v* X0 v, and max_coupling is the
    largest |v* N_k v| over the solution-space basis. When max_coupling is
    at rounding level the form is constant over the set, and a negative
    value certifies that no PSD solution exists.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (sol.side,):
        raise DimensionMismatch(f"witness length {v.size}, expected {sol.side}")
    X0 = hermitian_decode(sol.x0_coords, sol.side)
    val = complex(v.conj() @ (X0 @ v))
    if abs(val.imag) > tol * max(1.0, abs(val)):
        raise DimensionMismatch("quadratic form came out non-real")
    if sol.dim:
        h = hermitian_encode(np.outer(v, v.conj()))
        coupling = float(np.max(np.abs(sol.basis_array @ h)))
    else:
        coupling = 0.0
    return float(val.real), coupling


def witness_hunt(sol, x_coords):
    """Look for an infeasibility witness among the eigenvectors of X(x).

    x is a point of the solution set, normally the end of the lambda_min
    maximisation. Each eigenvector of X(x) with a negative eigenvalue is
    tried in ascending order, first with its rounding-noise entries
    dropped, then as it is. A candidate is accepted when its value is below
    -DEFAULT_WITNESS_VALUE_TOL and its coupling at most
    DEFAULT_WITNESS_COUPLING_TOL. Returns (v, value, coupling) or None.
    """
    X = hermitian_decode(x_coords, sol.side)
    scale_x = max(1.0, float(np.linalg.norm(X)))
    w, V = herm_eig(X)
    for idx in np.nonzero(w < -DEFAULT_PSD_TOL * scale_x)[0]:
        v = V[:, idx].copy()    # a view would keep all of V alive
        candidates = [v]
        # drop rounding-noise entries when the cleaned vector still works
        mask = np.abs(v) > 1e-10
        if mask.any() and not mask.all():
            cleaned = np.where(mask, v, 0.0)
            candidates.insert(0, cleaned / np.linalg.norm(cleaned))
        for u in candidates:
            value, coupling = witness_check(sol, u)
            if _is_witness(value, coupling):
                return u, value, coupling
    return None


def _is_witness(value, coupling):
    return (value < -DEFAULT_WITNESS_VALUE_TOL
            and coupling <= DEFAULT_WITNESS_COUPLING_TOL)


@dataclass
class FeasibilityVerdict:
    """Outcome of the PSD feasibility decision with its evidence attached."""

    kind: str
    residual: float
    nullspace_dim: int
    certificate_upper: np.ndarray = None
    spectrum: np.ndarray = None
    witness_vector: np.ndarray = None
    witness_value: float = None
    witness_coupling: float = None
    tolerances: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def certificate(self):
        """Rebuilt exactly from the upper triangle kept, half the bytes."""
        upper = self.certificate_upper
        if upper is None:
            return None
        side = self.spectrum.size
        iu, ju = np.triu_indices(side)
        X = np.zeros((side, side), dtype=complex)
        X.real[iu, ju] = X.real[ju, iu] = upper.real
        X.imag[ju, iu] = 0.0 - upper.imag
        X.imag[iu, ju] = upper.imag
        return X

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
        if self.certificate_upper is not None:
            out["certificate"] = _cmat_to_json(self.certificate)
            out["spectrum"] = [float(x) for x in self.spectrum]
        if self.witness_vector is not None:
            out["witness"] = {
                "vector": _cvec_to_json(self.witness_vector),
                "value": self.witness_value,
                "coupling": self.witness_coupling,
            }
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
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


def _tolerances(tol, rank_tol, psd_tol):
    return {"feasibility": tol, "rank": rank_tol, "psd": psd_tol,
            "witness_value": DEFAULT_WITNESS_VALUE_TOL,
            "witness_coupling": DEFAULT_WITNESS_COUPLING_TOL}


def _certify(sol, x_coords, tol, psd_tol, tolerances):
    """Clip to the PSD cone and re-verify against the raw system."""
    system = sol.system
    X = hermitian_decode(x_coords, sol.side)
    w, V = herm_eig(X)
    scale_x = max(1.0, float(np.linalg.norm(X)))
    if w[0] < -psd_tol * scale_x:
        return None
    wc = np.clip(w, 0.0, None)
    Xp = (V * wc) @ V.conj().T
    Xp = 0.5 * (Xp + Xp.conj().T)
    coords = hermitian_encode(Xp)
    residual = system.residual_of(coords)
    if residual > system.residual_bound(tol):
        return None
    wf, _ = herm_eig(Xp)
    return FeasibilityVerdict(
        kind=FEASIBLE, residual=residual, nullspace_dim=sol.dim,
        certificate_upper=Xp[np.triu_indices(sol.side)], spectrum=wf,
        tolerances=tolerances,
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
    """Maximise lambda_min(X0 + sum_k t_k N_k) over t.

    Minimises the smoothed -lambda_min,
    mu log sum_i exp(-(lambda_i - lambda_1) / mu) - lambda_1, whose gradient
    in t is -B encode(P) for the softmax eigenprojector
    P = sum_i p_i v_i v_i*, by L-BFGS from t = 0; mu runs through
    MU_SCHEDULE times max(1, ||X0||), each run starting where the last one
    ended. Stops at the first point, X0 included, whose least eigenvalue
    passes the certificate's test or whose least eigenvector is a witness
    (then it is a maximiser: the witness's form is the same all over the
    set and bounds lambda_min). Returns (x, least eigenvalue of every
    eigensolve); the first is X0's and the last is x's.
    """
    x0, B, side = sol.x0_coords, sol.basis_array, sol.side
    least = []

    def smoothed(t, mu):
        x = x0 + B.T @ t
        w, V = herm_eig(hermitian_decode(x, side))
        least.append(float(w[0]))
        if (w[0] >= -psd_tol * max(1.0, float(np.linalg.norm(x)))
                or _is_witness(*witness_check(sol, V[:, 0]))):
            raise _Settled(x)
        e = np.exp((w[0] - w) / mu)
        P = (V * (e / e.sum())) @ V.conj().T
        return mu * np.log(e.sum()) - w[0], -(B @ hermitian_encode(P))

    t = np.zeros(sol.dim)
    if sol.dim:
        scale = max(1.0, float(np.linalg.norm(x0)))
        try:
            for mu in MU_SCHEDULE:
                t = _lbfgs(smoothed, t, mu * scale)
        except _Settled as stop:
            return stop.args[0], least
    x = x0 + B.T @ t
    least.append(float(herm_eig(hermitian_decode(x, side))[0][0]))
    return x, least


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
    verdict = _certify(sol, sol.x0_coords, tol, psd_tol, tolerances)
    if verdict is not None:
        return verdict

    x, least = _max_min_eig(sol, psd_tol)
    search = {"iterations": len(least), "min_eig_first": least[0],
              "cone_gap": least[-1]}
    verdict = _certify(sol, x, tol, psd_tol, tolerances)
    if verdict is not None:
        verdict.diagnostics.update(search)
        return verdict
    hunt = witness_hunt(sol, x)
    if hunt is not None:
        v, value, coupling = hunt
        return FeasibilityVerdict(
            kind=NOT_PSD, residual=sol.residual, nullspace_dim=sol.dim,
            witness_vector=v, witness_value=value, witness_coupling=coupling,
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
