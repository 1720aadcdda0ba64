"""Decide whether the assembled linear system has a positive-semidefinite solution.

The pipeline runs in the bimodule coordinates q (constraints module
docstring): X = T* (Q1 (x) I_{n^2} (+) Q2 (x) I_n) T satisfies the action
equations for every q, and X is PSD exactly when the reduced matrix
Q = Q1 (+) Q2 is, a matrix of side n^2 - 1 + n (11 at n = 3) instead of
n^4. The lift q -> X is a congruence, not an isometry: norms and
eigenvalues read in q are those of Q, not of X. The pipeline is split into
a linear stage and a conic stage:

  1. solve_affine solves the target rows G q = b. G depends only on the
     algebra size, so its SVD is computed once per size and cached; the
     rank cut keeps singular values above rank_tol times the largest one.
     The result is the min-norm q0, an orthonormal basis of the solution
     space (the right singular vectors past the rank) and a NOT_CONSISTENT
     flag when the least-squares residual ||G q0 - b|| exceeds
     tol * ||b||. G's rows are the target equations over X,
     written in q, so this is X's residual too.

  2. psd_search asks whether the affine set {Q0 + sum_k t_k N_k} holds a
     PSD point. It certifies Q0 itself when it can; otherwise it maximises
     lambda_min(Q0 + sum_k t_k N_k) over t, the one optimisation whose
     theorem of alternatives answers both sides of the question (Boyd and
     Vandenberghe, Convex Optimization, 5.9; Overton 1992). A point with no
     negative eigenvalue is a certificate; at a negative maximum some
     trace-one PSD P on the least eigenspace is orthogonal to every N_k and
     pairs with Q0 to that negative value. The reported negative evidence
     is rank one: an eigenvector u of the point's Q whose quadratic form is
     constant over the whole solution set (couplings to every basis
     direction at rounding level) and negative, lifted to X's space as
     v = T^{-1}(u (x) e_1), for which v* X v = u* Q u on every solution. A
     point whose least eigenvector is one is a maximiser, and the search
     stops there. A candidate certificate is Q's PSD part P (its
     eigenpairs above rounding level), lifted to X = lift(P) and
     re-verified against the intertwining and target equations over X
     before being reported, so a FEASIBLE verdict never depends on solver
     internals. With neither a certificate nor a witness the verdict is
     INDETERMINATE, with the maximised lambda_min as its cone gap.

The lift to X happens only where the contract sees X: the certificate
(kept as the coordinates p of P, rebuilt as lift(P)), the witness vector,
and witness_check, which takes any vector of X's space.

Every tolerance is relative to the problem itself, so c L gets the verdict
of L for every c > 0 (L = d* d gives c L = (sqrt(c) d)* (sqrt(c) d)), and
decide and the CLI's verify share one rule per threshold: a residual
passes at <= tol * ||b|| (ConstraintSystem.residual_bound, an exact zero
for b = 0); a least eigenvalue at >= -psd_tol * ||M||_F of its matrix M
(psd_passes; ||Q||_F = ||q||); a witness at value < -witness_value * ||q0||
with coupling <= witness_coupling (is_witness), a unit vector's coupling
to unit directions, which carries no scale.
"""

import functools
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .constraints import assemble, clear_template_cache
from .errors import DimensionMismatch
from .linalg import DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, _rank, herm_eig

FEASIBLE = "FEASIBLE"
NOT_CONSISTENT = "NOT_CONSISTENT"
NOT_PSD = "NOT_PSD"
INDETERMINATE = "INDETERMINATE"

EXIT_CODES = {FEASIBLE: 0, NOT_CONSISTENT: 10, NOT_PSD: 11, INDETERMINATE: 12}

# least eigenvalue threshold, relative to ||M||_F: certificate spectra contain
# exact zeros, so positivity is read as semidefiniteness with rounding slack
DEFAULT_PSD_TOL = 1e-9

# witness acceptance: form value below -1e-6 ||q0||, safely negative at the
# problem's scale, while the unit witness's couplings stay at rounding level
DEFAULT_WITNESS_VALUE_TOL = 1e-6
DEFAULT_WITNESS_COUPLING_TOL = 1e-8
# smoothing widths of the lambda_min maximisation, relative to ||q0||, one
# L-BFGS run each
MU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
# an L-BFGS run stops after LBFGS_MAX_ITER steps, once the gradient's largest
# entry is at most LBFGS_GRAD_TOL, or when LINE_SEARCH_HALVINGS halvings of
# the step find no sufficient decrease; the gradient entries are couplings
# <P, N_k> of a trace-one P to unit-norm N_k, so the tolerance is absolute
LBFGS_MAX_ITER = 200
LBFGS_MEMORY = 10
LBFGS_GRAD_TOL = 1e-12
LINE_SEARCH_HALVINGS = 20

_TARGET_SVD_CACHE = {}


def clear_caches():
    _TARGET_SVD_CACHE.clear()
    clear_template_cache()


class AffineSolutionSet:
    """Solution set {Q0 + sum_k t_k N_k} of the assembled system.

    Coordinates are the bimodule coordinates q (module docstring):
    q0_coords is the min-norm solution of the target rows, and the rows of
    basis_array, orthonormal, span the solution space. residual is
    ||G q0 - b||; consistent means it is at most consistency_bound, the
    system's residual_bound(tol). size_diagnostics is the read-only mapping
    that every set of the size shares.
    """

    def __init__(self, system, q0, basis_array, residual, consistent,
                 size_diagnostics, consistency_bound=None):
        self.system = system
        self.q0_coords = np.asarray(q0, dtype=float)
        self.basis_array = np.asarray(basis_array, dtype=float)
        self.residual = float(residual)
        self.consistent = bool(consistent)
        self.size_diagnostics = size_diagnostics
        self.consistency_bound = consistency_bound

    @property
    def diagnostics(self):
        return _diagnostics(self.size_diagnostics, residual=self.residual,
                            consistency_bound=self.consistency_bound)

    @property
    def side(self):
        """Side of X, n^4."""
        return self.system.m ** 2

    @property
    def dim(self):
        return self.basis_array.shape[0]


def psd_passes(least, norm, psd_tol):
    """The PSD rule, elementwise: a least eigenvalue passes at >= -psd_tol *
    norm, norm being ||M||_F of its matrix M (||Q||_F = ||q||)."""
    return least >= -psd_tol * norm


def is_witness(value, coupling, q0_norm):
    """The witness rule: the form's value is below -DEFAULT_WITNESS_VALUE_TOL
    * ||q0|| and its coupling at most DEFAULT_WITNESS_COUPLING_TOL."""
    return (value < -DEFAULT_WITNESS_VALUE_TOL * q0_norm
            and coupling <= DEFAULT_WITNESS_COUPLING_TOL)


def _target_svd(system, rank_tol):
    # (U, sv, Vt, rank, solution-space basis, diagnostics of the size),
    # cached per size so that sweep samples, and the verdicts that report
    # the margins, share them
    key = (system.n, float(rank_tol))
    if key in _TARGET_SVD_CACHE:
        return _TARGET_SVD_CACHE[key]
    U, sv, Vt = np.linalg.svd(system.G, full_matrices=False)
    rank = int(_rank(sv, sv[0], rank_tol))
    basis = np.ascontiguousarray(Vt[rank:])
    shared = types.MappingProxyType({
        "hom_kernel_dim": int(Vt.shape[1]),    # the coordinates q
        "target_rank": rank,
        "solution_dim": int(basis.shape[0]),
        "target_sv_max": float(sv[0]),
        "target_sv_min_kept": float(sv[rank - 1]) if rank else 0.0,
        "target_sv_max_dropped": float(sv[rank]) if rank < sv.size else 0.0,
        "system_counts": system.counts,
    })
    out = _TARGET_SVD_CACHE[key] = (U, sv, Vt, rank, basis, shared)
    return out


def _solve_stacked(systems, tol, rank_tol):
    """Min-norm solutions of systems that share one template, one per row.

    Row j of Q0 solves G q = b_t of systems[j] through the cached SVD,
    q0 = Vt^T diag(1/sv) U^T b_t, all rows in one product; residual[j] is
    ||G q0 - b_t|| and bound[j] is systems[j].residual_bound(tol). Returns
    (Q0, residual, bound, svd) with svd = _target_svd's tuple.
    """
    system = systems[0]
    svd = U, sv, Vt, rank, _, _ = _target_svd(system, rank_tol)
    B = np.array([s.b_target for s in systems])
    Q0 = (B @ U[:, :rank] / sv[:rank]) @ Vt[:rank]
    residual = np.linalg.norm(Q0 @ system.G.T - B, axis=1)
    bound = np.array([s.residual_bound(tol) for s in systems])
    return Q0, residual, bound, svd


def solve_affine(system, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Solve the target rows G q = b in the least-squares sense.

    Returns an AffineSolutionSet; .consistent is False when the
    least-squares residual exceeds system.residual_bound(tol) =
    tol * ||b|| (the Rouche-Capelli test in floating point).
    """
    Q0, residual, bound, svd = _solve_stacked([system], tol, rank_tol)
    return AffineSolutionSet(system, Q0[0], svd[4], residual[0],
                             residual[0] <= bound[0], svd[5], float(bound[0]))


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
    return _form(sol, sol.system.template.vector_form(v))


def _form(sol, h):
    """(q0 . h, max_k |N_k . h|): the form with coordinates h at Q0 and on
    the basis directions."""
    coupling = float(np.max(np.abs(sol.basis_array @ h))) if sol.dim else 0.0
    return float(sol.q0_coords @ h), coupling


def _rank_one_form(sol, u):
    return _form(sol, sol.system.template.pairing(np.outer(u, u.conj())))


def witness_hunt(sol, q_coords, eig=None):
    """Look for an infeasibility witness among the eigenvectors of Q(q).

    q is a point of the solution set, normally the end of the lambda_min
    maximisation. Each eigenvector u of Q(q) with a negative eigenvalue is
    tried in ascending order, first with its rounding-noise entries
    dropped, then as it is. A candidate is accepted when it passes
    is_witness at the set's scale ||q0||. Returns (u, value, coupling) or
    None; the witness in X's space is T^{-1}(u (x) e_1), with the same
    value and coupling. eig, when given, is Q(q)'s eigendecomposition.
    """
    w, V = eig or herm_eig(sol.system.template.matrix(q_coords))
    q0_norm = np.linalg.norm(sol.q0_coords)
    negative = ~psd_passes(w, np.linalg.norm(q_coords), DEFAULT_PSD_TOL)
    for idx in np.nonzero(negative)[0]:
        u = V[:, idx]
        candidates = [u]
        # drop rounding-noise entries when the cleaned vector still works
        mask = np.abs(u) > 1e-10
        if mask.any() and not mask.all():
            cleaned = np.where(mask, u, 0.0)
            candidates.insert(0, cleaned / np.linalg.norm(cleaned))
        for c in candidates:
            value, coupling = _rank_one_form(sol, c)
            if is_witness(value, coupling, q0_norm):
                return c.copy(), value, coupling    # a view keeps V alive
    return None


def _diagnostics(size_diagnostics, **own):
    """A read-only mapping of the size's values, then the run's own ones
    that are set."""
    return types.MappingProxyType(
        {**size_diagnostics, **{k: v for k, v in own.items() if v is not None}})


@dataclass(slots=True)
class FeasibilityVerdict:
    """Outcome of the PSD feasibility decision with its evidence attached.

    The evidence is kept in the bimodule coordinates of the size's
    template: certificate_coords is p, the coordinates of the PSD part of
    the certified point's Q, and reduced_witness the witness u of Q.
    certificate, spectrum and witness_vector give the same evidence in X's
    space, rebuilt on every read. The tolerances and size_diagnostics are
    read-only mappings shared by every verdict that uses them; the fields
    after them are the run's own diagnostics, None where a stage did not
    run, and diagnostics shows both as one mapping.
    """

    kind: str
    residual: float
    nullspace_dim: int
    template: object = field(default=None, repr=False)
    certificate_coords: np.ndarray = None
    reduced_witness: np.ndarray = None
    witness_value: float = None
    witness_coupling: float = None
    tolerances: Mapping = field(default_factory=dict)
    size_diagnostics: Mapping = field(default_factory=dict, repr=False)
    least_squares_residual: float = None
    consistency_bound: float = None
    stop: str = None
    iterations: int = None
    min_eig_first: float = None
    cone_gap: float = None
    certificate_min_eig: float = None

    @property
    def diagnostics(self):
        return _diagnostics(
            self.size_diagnostics, residual=self.least_squares_residual,
            consistency_bound=self.consistency_bound, stop=self.stop,
            iterations=self.iterations, min_eig_first=self.min_eig_first,
            cone_gap=self.cone_gap, certificate_min_eig=self.certificate_min_eig)

    @property
    def certificate(self):
        """X = lift(Q(p)), bit for bit the matrix checked against the system."""
        p = self.certificate_coords
        return None if p is None else self.template.lift(self.template.matrix(p))

    @property
    def spectrum(self):
        """X's eigenvalues, ascending."""
        X = self.certificate
        return None if X is None else herm_eig(X)[0]

    @property
    def witness_vector(self):
        """The witness T^{-1}(u (x) e_1) in X's space."""
        u = self.reduced_witness
        return None if u is None else self.template.lift_witness(u)

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
        if self.certificate_coords is not None:
            X = self.certificate
            out["certificate"] = _cmat_to_json(X)
            out["spectrum"] = [float(x) for x in herm_eig(X)[0]]
        if self.reduced_witness is not None:
            out["witness"] = {
                "vector": _cvec_to_json(self.witness_vector),
                "value": self.witness_value,
                "coupling": self.witness_coupling,
            }
        return out


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


def _verdict(sol, kind, tolerances, **fields):
    """A verdict on sol, with the set's residual and diagnostics."""
    fields.setdefault("residual", sol.residual)
    return FeasibilityVerdict(
        kind=kind, nullspace_dim=sol.dim, tolerances=tolerances,
        size_diagnostics=sol.size_diagnostics,
        least_squares_residual=sol.residual,
        consistency_bound=sol.consistency_bound, **fields)


def _certify(sol, q_coords, eig, tol, psd_tol, tolerances, **own):
    """Project Q onto the PSD cone and re-verify its lift against the system.

    eig is Q(q)'s eigendecomposition. The projection keeps the eigenpairs
    of Q above rounding level (k eps lambda_max for k x k Q, numpy's
    matrix_rank cut); the certificate is X = lift(P) for that PSD part P,
    checked as it is kept.
    """
    system = sol.system
    tpl = system.template
    w, V = eig
    if not psd_passes(w[0], np.linalg.norm(q_coords), psd_tol):
        return None
    keep = w > w[-1] * w.size * np.finfo(float).eps
    F = V[:, keep] * np.sqrt(w[keep])
    p = tpl.pairing(F @ F.conj().T)
    residual = system.matrix_residual(tpl.lift(tpl.matrix(p)))
    if residual > system.residual_bound(tol):
        return None
    return _verdict(sol, FEASIBLE, tolerances, residual=residual, template=tpl,
                    certificate_coords=p, certificate_min_eig=float(w[0]), **own)


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


def _max_min_eig(sol, psd_tol, eig0):
    """Maximise lambda_min(Q0 + sum_k t_k N_k) over t.

    Minimises the smoothed -lambda_min of Q,
    mu log sum_i exp(-(lambda_i - lambda_1) / mu) - lambda_1, whose
    gradient in t is -B pairing(P) for the softmax eigenprojector
    P = sum_j p_j u_j u_j* of Q. L-BFGS runs from t = 0 with t, and the
    objective, in units of ||q0||, so that c Q0 takes the steps of Q0; mu
    runs through MU_SCHEDULE times ||q0||, each run starting where the last
    one ended. Stops at the first point, Q0 included, whose least eigenvalue
    passes the certificate's test or whose least eigenvector is a witness
    (then it is a maximiser: the witness's form is the same all over the
    set and bounds lambda_min). eig0 is Q0's eigendecomposition, which
    stands for the first eigensolve, at t = 0. Returns (q, least
    eigenvalue of every eigensolve, Q(q)'s eigendecomposition); the first
    eigenvalue is Q0's and the last is q's.
    """
    q0, B, tpl = sol.q0_coords, sol.basis_array, sol.system.template
    scale = np.linalg.norm(q0)
    least = []

    def smoothed(t, mu):
        q = q0 + scale * (B.T @ t)
        w, V = herm_eig(tpl.matrix(q)) if least else eig0
        least.append(float(w[0]))
        if (psd_passes(w[0], np.linalg.norm(q), psd_tol)
                or is_witness(*_rank_one_form(sol, V[:, 0]), scale)):
            raise _Settled(q, (w, V))
        e = np.exp((w[0] - w) / mu)
        P = (V * (e / e.sum())) @ V.conj().T
        return (mu * np.log(e.sum()) - w[0]) / scale, -(B @ tpl.pairing(P))

    t = np.zeros(sol.dim)
    if sol.dim:
        try:
            for mu in MU_SCHEDULE:
                t = _lbfgs(smoothed, t, mu * scale)
        except _Settled as stop:
            return stop.args[0], least, stop.args[1]
    q = q0 + scale * (B.T @ t)
    eig = herm_eig(tpl.matrix(q)) if least else eig0
    least.append(float(eig[0][0]))
    return q, least, eig


def psd_search(sol, tol=DEFAULT_FEAS_TOL, psd_tol=DEFAULT_PSD_TOL,
               rank_tol=DEFAULT_RANK_TOL):
    """Decide whether the affine solution set holds a PSD element.

    Certifies q0 itself when it passes; otherwise maximises the least
    eigenvalue over the set (_max_min_eig), certifies the point reached,
    and looks for a witness among its eigenvectors. Every candidate
    certificate is re-verified against the equations over X; with neither
    a certificate nor a witness the verdict is INDETERMINATE. Diagnostics:
    stop (why the conic stage ended: x0_certificate, x0_witness,
    search_certificate, search_witness, or budget when it decided nothing),
    and once the maximisation ran iterations (its eigensolves),
    min_eig_first (Q0's least eigenvalue) and cone_gap (the least
    eigenvalue at the point reached, signed).
    """
    if not sol.consistent:
        raise DimensionMismatch("psd_search requires a consistent solution set")
    tolerances = _tolerances(tol, rank_tol, psd_tol)
    q0 = sol.q0_coords
    eig0 = herm_eig(sol.system.template.matrix(q0))
    verdict = _certify(sol, q0, eig0, tol, psd_tol, tolerances,
                       stop="x0_certificate")
    if verdict is not None:
        return verdict

    q, least, eig = _max_min_eig(sol, psd_tol, eig0)
    search = {"iterations": len(least), "min_eig_first": least[0],
              "cone_gap": least[-1]}
    # a search that ended at Q0 has nothing to certify beyond the first try
    if len(least) > 1:
        verdict = _certify(sol, q, eig, tol, psd_tol, tolerances,
                           stop="search_certificate", **search)
        if verdict is not None:
            return verdict
    hunt = witness_hunt(sol, q, eig)
    if hunt is not None:
        u, value, coupling = hunt
        stop = "x0_witness" if len(least) == 1 else "search_witness"
        return _verdict(sol, NOT_PSD, tolerances, template=sol.system.template,
                        reduced_witness=u, witness_value=value,
                        witness_coupling=coupling, stop=stop, **search)
    return _verdict(sol, INDETERMINATE, tolerances, stop="budget", **search)


def verdict_for(sol, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
                psd_tol=DEFAULT_PSD_TOL):
    """Turn a solved affine stage into a verdict.

    Inconsistent systems short-circuit to NOT_CONSISTENT; everything else
    goes through the PSD search.
    """
    if not sol.consistent:
        return _verdict(sol, NOT_CONSISTENT, _tolerances(tol, rank_tol, psd_tol))
    return psd_search(sol, tol=tol, psd_tol=psd_tol, rank_tol=rank_tol)


def decide(spec, s, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
           psd_tol=DEFAULT_PSD_TOL):
    """Assemble, solve the linear stage, and run the PSD search."""
    system = assemble(spec, s)
    sol = solve_affine(system, tol=tol, rank_tol=rank_tol)
    return verdict_for(sol, tol=tol, rank_tol=rank_tol, psd_tol=psd_tol)
