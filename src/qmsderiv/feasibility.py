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

  2. psd_search looks for a positive-semidefinite element of the affine
     solution set by alternating projections between the set and the PSD
     cone, with periodic extrapolation inside the affine set and seeded
     restarts. Any candidate is re-verified against the raw system before
     being reported, so a FEASIBLE verdict never depends on solver
     internals. Alternating projections cannot prove infeasibility; the
     negative channel is a witness vector v whose quadratic form is constant
     over the whole solution set (couplings to every basis direction are
     zero) and negative at the particular solution. When neither a
     certificate nor a witness is found the verdict is INDETERMINATE, with
     convergence diagnostics attached.

All tolerances are relative to problem scale and recorded in the verdict.
There is one threshold on the residual ||A x - b||, the system's
residual_bound(tol) = tol * max(1, ||b||): the consistency test, the
certificate check, the PSD-search stop and the CLI's verify all use it.
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
# candidates the witness hunt examines before giving up
WITNESS_HUNT_BUDGET = 50000

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
    # cached for the template's own target block; permuted systems recompute
    canonical = system.target is system_template(system.n).target
    key = (system.n, float(rank_tol))
    if canonical and key in _TARGET_SVD_CACHE:
        return _TARGET_SVD_CACHE[key]
    W = system.target @ N if N.shape[1] else np.zeros((2 * system.m ** 2, 0))
    U, sv, Vt = np.linalg.svd(W, full_matrices=False)
    out = (U, sv, Vt)
    if canonical:
        _TARGET_SVD_CACHE[key] = out
    return out


def solve_affine(system, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Intersect the homogeneous nullspace with the target equations.

    Returns an AffineSolutionSet; .consistent is False when the
    least-squares residual exceeds system.residual_bound(tol) =
    tol * max(1, ||b||) (the Rouche-Capelli test in floating point). The
    bound leaves out ||A||_F, which only counts the unit-norm rows and would
    admit residuals of inconsistent systems.
    """
    N = _hom_kernel(system, rank_tol)
    U, sv, Vt = _target_svd(system, N, rank_tol)
    b_t = system.target_rhs()
    smax = sv[0] if sv.size else 0.0
    rank = int(_rank(sv, smax, rank_tol))
    if rank:
        y0 = Vt[:rank].T @ ((U[:, :rank].T @ b_t) / sv[:rank])
    else:
        y0 = np.zeros(N.shape[1])
    x0 = N @ y0 if N.shape[1] else np.zeros(system.unknowns)
    # orthonormal: N has orthonormal columns and Vt rows are orthonormal
    basis = (N @ Vt[rank:].T).T if N.shape[1] else np.zeros((0, system.unknowns))
    r = system.residual_vector(x0)
    residual = float(np.linalg.norm(r))
    hom_res = float(np.linalg.norm(r[:system.hom_row_count]))
    bound = system.residual_bound(tol)
    diagnostics = {
        "hom_kernel_dim": int(N.shape[1]),
        "target_rank": rank,
        "solution_dim": int(basis.shape[0]),
        "residual": residual,
        "hom_residual": hom_res,
        "consistency_bound": bound,
        "target_sv_max": float(smax),
        "target_sv_min_kept": float(sv[rank - 1]) if rank else 0.0,
        "target_sv_max_dropped": float(sv[rank]) if rank < sv.size else 0.0,
    }
    return AffineSolutionSet(system, x0, basis, residual, residual <= bound,
                             diagnostics)


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


def _pair_cols(side, p, q):
    # column indices of the sqrt(2)-scaled re/im coordinates of entry (p, q)
    t = p * (2 * side - p - 1) // 2 + (q - p - 1)
    return side + t, side + side * (side - 1) // 2 + t


def witness_hunt(sol):
    """Search for an infeasibility witness in a fixed deterministic order.

    Candidates: eigenvectors of the negative part of X0, then single basis
    vectors e_p, then two-term combinations e_p + sigma e_q with sigma in
    {1, -1, i, -i}, at most WITNESS_HUNT_BUDGET of them. A candidate is
    accepted when its value is below -DEFAULT_WITNESS_VALUE_TOL and its
    coupling at most DEFAULT_WITNESS_COUPLING_TOL. Returns
    (v, value, coupling) or None. The two-term scan
    uses the sparse structure of v v* directly, so the whole hunt is cheap
    even when the solution space is large.
    """
    side = sol.side
    x0 = sol.x0_coords
    B = sol.basis_array
    examined = 0

    def accept(value, coupling):
        return (value < -DEFAULT_WITNESS_VALUE_TOL
                and coupling <= DEFAULT_WITNESS_COUPLING_TOL)

    X0 = hermitian_decode(x0, side)
    scale_x = max(1.0, float(np.linalg.norm(X0)))
    w, V = herm_eig(X0)
    for idx in np.nonzero(w < -DEFAULT_PSD_TOL * scale_x)[0]:
        if examined >= WITNESS_HUNT_BUDGET:
            return None
        examined += 1
        v = V[:, idx]
        # drop rounding-noise entries when the cleaned vector still works
        mask = np.abs(v) > 1e-10
        if mask.any() and not mask.all():
            cleaned = np.where(mask, v, 0.0)
            cleaned = cleaned / np.linalg.norm(cleaned)
            value, coupling = witness_check(sol, cleaned)
            if accept(value, coupling):
                return cleaned, value, coupling
        value, coupling = witness_check(sol, v)
        if accept(value, coupling):
            return v, value, coupling

    sqrt2 = np.sqrt(2.0)
    diag0 = x0[:side]
    for p in range(side):
        if examined >= WITNESS_HUNT_BUDGET:
            return None
        examined += 1
        value = diag0[p]
        coupling = float(np.max(np.abs(B[:, p]))) if sol.dim else 0.0
        if accept(value, coupling):
            v = np.zeros(side, dtype=complex)
            v[p] = 1.0
            return v, float(value), coupling

    patterns = (1.0, -1.0, 1.0j, -1.0j)
    for p in range(side):
        for q in range(p + 1, side):
            cr, ci = _pair_cols(side, p, q)
            base = diag0[p] + diag0[q]
            cross_r, cross_i = sqrt2 * x0[cr], sqrt2 * x0[ci]
            if sol.dim:
                col = B[:, p] + B[:, q]
                col_r, col_i = sqrt2 * B[:, cr], sqrt2 * B[:, ci]
            for sigma in patterns:
                if examined >= WITNESS_HUNT_BUDGET:
                    return None
                examined += 1
                # v = e_p + sigma e_q; (v v*)[p,q] = conj(sigma)
                value = base + sigma.real * cross_r + sigma.imag * cross_i
                if value >= -DEFAULT_WITNESS_VALUE_TOL:
                    continue
                if sol.dim:
                    kv = col + sigma.real * col_r + sigma.imag * col_i
                    coupling = float(np.max(np.abs(kv)))
                else:
                    coupling = 0.0
                if accept(value, coupling):
                    v = np.zeros(side, dtype=complex)
                    v[p], v[q] = 1.0, sigma
                    return v, float(value), coupling
    return None


@dataclass
class FeasibilityVerdict:
    """Outcome of the PSD feasibility decision with its evidence attached."""

    kind: str
    residual: float
    nullspace_dim: int
    certificate: np.ndarray = None
    spectrum: np.ndarray = None
    witness_vector: np.ndarray = None
    witness_value: float = None
    witness_coupling: float = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return EXIT_CODES[self.kind]

    def as_dict(self):
        out = {
            "kind": self.kind,
            "residual": self.residual,
            "nullspace_dim": self.nullspace_dim,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "diagnostics": _jsonable(self.diagnostics),
        }
        if self.certificate is not None:
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


def _certify(sol, x_coords, tol, psd_tol, info):
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
        certificate=Xp, spectrum=wf, seed=info.get("seed", 0),
        tolerances=info["tolerances"],
        diagnostics={**sol.diagnostics, **info.get("extra", {}),
                     "certificate_min_eig": float(wf[0])})


def psd_search(sol, tol=DEFAULT_FEAS_TOL, psd_tol=DEFAULT_PSD_TOL,
               max_iter=400, restarts=2, seed=0, rank_tol=DEFAULT_RANK_TOL):
    """Search the affine solution set for a PSD element.

    Alternating projections between the solution set and the PSD cone,
    extrapolating inside the affine set every few steps and restarting from
    seeded random points when progress stalls. Every candidate certificate
    is re-verified against the raw system; failures fall through to the
    witness hunt and finally to INDETERMINATE.
    """
    if not sol.consistent:
        raise DimensionMismatch("psd_search requires a consistent solution set")
    gap_bound = sol.system.residual_bound(tol)
    x0, B = sol.x0_coords, sol.basis_array
    info = {"seed": seed, "tolerances": _tolerances(tol, rank_tol, psd_tol)}

    verdict = _certify(sol, x0, tol, psd_tol, info)
    if verdict is not None:
        return verdict

    mineig_first = mineig_last = None
    gap_last = None
    iters_used = 0
    if sol.dim:
        rng = np.random.default_rng(seed)
        scale0 = max(1.0, float(np.linalg.norm(x0)))
        for restart in range(restarts + 1):
            if restart == 0:
                x = x0.copy()
            else:
                # B^T B g depends only on the span of B, not on its basis
                g = rng.standard_normal(B.shape[1])
                x = x0 + (0.3 * restart * scale0 / np.sqrt(sol.dim)) * (B.T @ (B @ g))
            gaps = []
            x_prev = None
            for it in range(max_iter):
                iters_used += 1
                X = hermitian_decode(x, sol.side)
                w, V = herm_eig(X)
                if mineig_first is None:
                    mineig_first = float(w[0])
                mineig_last = float(w[0])
                wc = np.clip(w, 0.0, None)
                Xp = (V * wc) @ V.conj().T
                xp = hermitian_encode(0.5 * (Xp + Xp.conj().T))
                d = xp - x0
                x_next = x0 + B.T @ (B @ d)
                gap = float(np.linalg.norm(xp - x_next))
                gap_last = gap
                gaps.append(gap)
                scale_x = max(1.0, float(np.linalg.norm(X)))
                if w[0] >= -psd_tol * scale_x or gap <= gap_bound:
                    verdict = _certify(sol, x_next, tol, psd_tol, info)
                    if verdict is not None:
                        verdict.diagnostics.update(
                            iterations=iters_used, restarts_used=restart)
                        return verdict
                # extrapolate inside the affine set while the gap shrinks
                if x_prev is not None and it % 8 == 7 and len(gaps) >= 9 \
                        and gaps[-1] < gaps[-9]:
                    x_next = x_next + 0.5 * (x_next - x_prev)
                x_prev = x
                x = x_next
                if len(gaps) >= 30 and gaps[-30] > 0 \
                        and (gaps[-30] - gaps[-1]) < 1e-4 * gaps[-30]:
                    break  # stalled; try a restart or fall through
            final = _certify(sol, x, tol, psd_tol, info)
            if final is not None:
                final.diagnostics.update(iterations=iters_used,
                                         restarts_used=restart)
                return final

    hunt = witness_hunt(sol)
    if hunt is not None:
        v, value, coupling = hunt
        return FeasibilityVerdict(
            kind=NOT_PSD, residual=sol.residual, nullspace_dim=sol.dim,
            witness_vector=v, witness_value=value, witness_coupling=coupling,
            seed=seed, tolerances=info["tolerances"],
            diagnostics={**sol.diagnostics, "iterations": iters_used,
                         "min_eig_first": mineig_first,
                         "min_eig_last": mineig_last})
    return FeasibilityVerdict(
        kind=INDETERMINATE, residual=sol.residual, nullspace_dim=sol.dim,
        seed=seed, tolerances=info["tolerances"],
        diagnostics={**sol.diagnostics, "iterations": iters_used,
                     "min_eig_first": mineig_first,
                     "min_eig_last": mineig_last,
                     "cone_gap_estimate": gap_last})


def verdict_for(sol, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
                psd_tol=DEFAULT_PSD_TOL, max_iter=400, restarts=2, seed=0):
    """Turn a solved affine stage into a verdict.

    Inconsistent systems short-circuit to NOT_CONSISTENT; everything else
    goes through the PSD search.
    """
    if not sol.consistent:
        return FeasibilityVerdict(
            kind=NOT_CONSISTENT, residual=sol.residual,
            nullspace_dim=sol.dim, seed=seed,
            tolerances=_tolerances(tol, rank_tol, psd_tol),
            diagnostics=dict(sol.diagnostics))
    return psd_search(sol, tol=tol, psd_tol=psd_tol, max_iter=max_iter,
                      restarts=restarts, seed=seed, rank_tol=rank_tol)


def decide(spec, s, tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
           psd_tol=DEFAULT_PSD_TOL, max_iter=400, restarts=2, seed=0,
           basis_perm=None):
    """Assemble, solve the linear stage, and run the PSD search."""
    system = assemble(spec, s, basis_perm=basis_perm)
    sol = solve_affine(system, tol=tol, rank_tol=rank_tol)
    verdict = verdict_for(sol, tol=tol, rank_tol=rank_tol, psd_tol=psd_tol,
                          max_iter=max_iter, restarts=restarts, seed=seed)
    verdict.diagnostics.setdefault("system_counts", system.counts)
    return verdict
