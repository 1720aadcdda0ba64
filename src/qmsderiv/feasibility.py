"""Decide whether the assembled linear system has a positive-semidefinite solution.

The pipeline runs in the bimodule coordinates q (constraints module
docstring): X = T* (Q1 (x) I_{n^2} (+) Q2 (x) I_n) T satisfies the action
equations for every q, and X is PSD exactly when the reduced matrix
Q = Q1 (+) Q2 is, a matrix of side n^2 - 1 + n (11 at n = 3) instead of
n^4. The lift q -> X is a congruence, not an isometry: norms and
eigenvalues read in q are those of Q, not of X. The pipeline is split into
a linear stage and a conic stage:

  1. solve_affine solves the target rows G q = b. G depends only on the
     algebra size, so its SVD is computed once per size and kept with the
     size's template (SystemTemplate.target_svd). Its rank cut is fixed
     at DEFAULT_RANK_TOL times the largest singular value: at every
     supported size the kept ones lie above 1e-2 and the dropped ones
     below 1e-14 of it (tested). The result is the min-norm q0, an
     orthonormal basis of the solution space (the right singular vectors
     past the rank) and a NOT_CONSISTENT flag when ||G q0 - b|| exceeds
     the set's consistency_bound tol * ||b||, tol being the one tolerance
     a caller sets. G's rows are the target equations over X, written in
     q, so this is X's residual too.

  2. psd_search asks whether the affine set {Q0 + sum_k t_k N_k} holds a
     PSD point, and decides it at Q0 alone. The transposition-conjugation
     J (Q1 -> P conj(Q1) P^T, Q2 -> conj(Q2), P the permutation K_j ->
     K_j^T of the traceless basis; SystemTemplate.conjugate) is an
     antiunitary congruence, so lambda_min(JQ) = lambda_min(Q), and a
     signed permutation of q. The kernel of G is J-odd (JN = -N for every
     direction N, tested for every supported size). When the guard
     G Jq0 = b holds, Jq0 is a solution orthogonal to the kernel, so
     Jq0 = q0 and J maps Q0 + N to Q0 - N; lambda_min is concave, so
     lambda_min(Q0) >= (lambda_min(Q0 + N) + lambda_min(Q0 - N)) / 2 =
     lambda_min(Q0 + N). Q0 then maximises the least eigenvalue over the
     set (symmetry reduction, Gatermann and Parrilo 2004), and Q0 being PSD
     or not decides the question. A simple negative least eigenvalue of an
     even Q0 has a J-real eigenvector u, whose form u* N u = -u* N u
     vanishes on every kernel direction: a witness, with the same value
     u* Q u over the whole solution set. Lifted to X's space it is
     v = T^{-1}(u (x) e_1), with v* X v = u* Q u on every solution.
     A candidate certificate is Q0's PSD part P (its eigenpairs above
     rounding level), lifted to X = lift(P) and re-verified against the
     intertwining and target equations over X before being reported, so a
     FEASIBLE verdict never depends on solver internals, and a witness is
     accepted on its own coupling: neither needs the guard. With neither
     the verdict is INDETERMINATE, with Q0's least eigenvalue as its cone
     gap and the guard's residual ||G Jq0 - b|| as symmetry_residual; at
     most consistency_bound, Q0 is provably the maximiser.

     That q0 is J-even is checked per undecided run, not proved; the
     conjecture is that it holds for *-preserving KMS-symmetric L at s = 1/2.
     At s != 1/2 it fails on 352 of the 650 consistent sets of
     tests/generic.py seeds 1-7, and data that no generator gives (b = G q
     for a random PSD q) break it.

The lift to X happens only where the contract sees X: the certificate
(kept as the coordinates p of P, rebuilt as lift(P)), the witness vector,
and witness_check, which takes any vector of X's space.

Every tolerance is relative to the problem itself, so c L gets the verdict
of L for every c > 0 (L = d* d gives c L = (sqrt(c) d)* (sqrt(c) d)), and
decide and the CLI's verify share one rule per threshold: a residual
passes at <= tol * ||b|| (ConstraintSystem.residual_bound, an exact zero
for b = 0); a least eigenvalue at >= -DEFAULT_PSD_TOL * ||M||_F of its
matrix M (psd_passes; ||Q||_F = ||q||); a witness at value <
-witness_value * ||q0|| with coupling <= witness_coupling (is_witness), a
unit vector's coupling to unit directions, which carries no scale.
"""

import functools
import types
from collections.abc import Mapping

import numpy as np

from .constraints import assemble
from .errors import DimensionMismatch
from .linalg import DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, check_tol, herm_eig

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


class AffineSolutionSet:
    """Solution set {Q0 + sum_k t_k N_k} of the assembled system.

    Coordinates are the bimodule coordinates q (module docstring):
    q0_coords is the min-norm solution of the target rows, and the rows of
    basis_array, orthonormal, span the solution space. psd_search decides
    at q0_coords alone, so a set given by another of its points is moved
    to the min-norm one: q0 - B^T B q0. residual is
    ||G q0 - b||; consistent means it is at most consistency_bound, the
    system's residual_bound(tol). diagnostics shows the size's ones, read
    from the template, then the set's own.
    """

    def __init__(self, system, q0, basis_array, residual, tol=DEFAULT_FEAS_TOL):
        self.system = system
        q0 = np.asarray(q0, dtype=float)
        B = np.asarray(basis_array, dtype=float)
        self.q0_coords = q0 - B.T @ (B @ q0) if len(B) else q0
        self.basis_array = B
        self.residual = float(residual)
        self.tol = tol
        self.consistency_bound = system.residual_bound(tol)
        self.consistent = self.residual <= self.consistency_bound

    @property
    def diagnostics(self):
        return _diagnostics(self.system.template, residual=self.residual,
                            consistency_bound=self.consistency_bound)

    @property
    def side(self):
        """Side of X, n^4."""
        return self.system.m ** 2

    @property
    def dim(self):
        return self.basis_array.shape[0]


def psd_passes(least, norm):
    """The PSD rule, elementwise: a least eigenvalue passes at >=
    -DEFAULT_PSD_TOL * norm, norm being ||M||_F of M (||Q||_F = ||q||)."""
    return least >= -DEFAULT_PSD_TOL * norm


def is_witness(value, coupling, q0_norm):
    """The witness rule: the form's value is below -DEFAULT_WITNESS_VALUE_TOL
    * ||q0|| and its coupling at most DEFAULT_WITNESS_COUPLING_TOL."""
    return (value < -DEFAULT_WITNESS_VALUE_TOL * q0_norm
            and coupling <= DEFAULT_WITNESS_COUPLING_TOL)


def _target_svd(template):
    """The template's TargetSVD; the first call at a size computes it."""
    return template.target_svd


def _solve_stacked(template, B):
    """Min-norm solutions of G q = b, one per row b of B, for the
    template's G.

    Row j of Q0 is q0 = Vt^T diag(1/sv) U^T B[j] through the template's
    SVD, all rows in one product, and residual[j] is ||G q0 - B[j]||.
    Returns (Q0, residual, svd) with svd the template's TargetSVD.
    """
    svd = U, sv, Vt, rank, _, _ = _target_svd(template)
    Q0 = (B @ U[:, :rank] / sv[:rank]) @ Vt[:rank]
    residual = np.linalg.norm(Q0 @ template.G.T - B, axis=1)
    return Q0, residual, svd


def solve_affine(system, tol=DEFAULT_FEAS_TOL):
    """Solve the target rows G q = b in the least-squares sense.

    Returns an AffineSolutionSet that carries tol; .consistent is False when
    the least-squares residual exceeds system.residual_bound(tol) =
    tol * ||b|| (the Rouche-Capelli test in floating point). A tol that is
    not positive and finite raises a SchemaError before any work.
    """
    check_tol(tol, "tol")
    Q0, residual, svd = _solve_stacked(system.template, system.b_target[None])
    return AffineSolutionSet(system, Q0[0], svd.basis, residual[0], tol)


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

    q is a point of the solution set; psd_search passes q0, the lambda_min
    maximiser when the guard holds (module docstring). Each eigenvector u
    of Q(q) with a negative eigenvalue is tried in ascending order, first
    with its rounding-noise entries dropped, then as it is. A candidate is accepted when it passes
    is_witness at the set's scale ||q0||. Returns (u, value, coupling) or
    None; the witness in X's space is T^{-1}(u (x) e_1), with the same
    value and coupling. eig, when given, is Q(q)'s eigendecomposition.
    """
    w, V = eig or herm_eig(sol.system.template.matrix(q_coords))
    q0_norm = np.linalg.norm(sol.q0_coords)
    negative = ~psd_passes(w, np.linalg.norm(q_coords))
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


def _diagnostics(template, **own):
    """A read-only mapping of the template's size diagnostics, then the
    run's own ones that are set."""
    return types.MappingProxyType(
        {**template.target_svd.diagnostics,
         **{k: v for k, v in own.items() if v is not None}})


class FeasibilityVerdict:
    """Outcome of the PSD feasibility decision with its evidence attached.

    The evidence is kept in the bimodule coordinates of the size's
    template: certificate_coords is p, the coordinates of the PSD part of
    the certified point's Q, and reduced_witness the witness u of Q.
    certificate, spectrum and witness_vector give the same evidence in X's
    space, rebuilt on every read. The tolerances are a read-only mapping
    shared by every verdict that uses them. The slots from
    least_squares_residual on are the run's own diagnostics, and
    diagnostics shows the template's size diagnostics and those as one
    mapping. The evidence (certificate_coords to witness_coupling) and the
    run's diagnostics are passed by name; each one not passed is None. A
    verdict has slots and no __dict__, because callers keep many.
    """

    __slots__ = ("kind", "residual", "nullspace_dim", "template", "tolerances",
                 "certificate_coords", "reduced_witness", "witness_value",
                 "witness_coupling", "least_squares_residual",
                 "consistency_bound", "stop", "cone_gap", "symmetry_residual",
                 "certificate_min_eig")

    def __init__(self, kind, residual, nullspace_dim, template, tolerances,
                 **own):
        self.kind, self.residual, self.nullspace_dim = kind, residual, nullspace_dim
        self.template, self.tolerances = template, tolerances
        for name in self.__slots__[5:]:
            setattr(self, name, own.pop(name, None))
        if own:
            raise TypeError(f"unknown verdict fields {sorted(own)}")

    @property
    def diagnostics(self):
        return _diagnostics(
            self.template, residual=self.least_squares_residual,
            consistency_bound=self.consistency_bound, stop=self.stop,
            cone_gap=self.cone_gap, symmetry_residual=self.symmetry_residual,
            certificate_min_eig=self.certificate_min_eig)

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
            out["certificate"] = _complex_to_json(X)
            out["spectrum"] = herm_eig(X)[0].tolist()
        if self.reduced_witness is not None:
            out["witness"] = {
                "vector": _complex_to_json(self.witness_vector),
                "value": self.witness_value,
                "coupling": self.witness_coupling,
            }
        return out


def _jsonable(obj):
    """obj with its read-only mappings, at any depth, as dicts; every other
    value of the diagnostics is a Python str, int or float already."""
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _complex_to_json(a):
    """Nested lists of the entries of a as [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).tolist()


@functools.lru_cache(maxsize=64)
def _tolerances(tol):
    return types.MappingProxyType({
        "feasibility": tol, "rank": DEFAULT_RANK_TOL, "psd": DEFAULT_PSD_TOL,
        "witness_value": DEFAULT_WITNESS_VALUE_TOL,
        "witness_coupling": DEFAULT_WITNESS_COUPLING_TOL})


def _verdict(sol, kind, **fields):
    """A verdict on sol, with the set's residual, template, tolerances and
    diagnostics."""
    fields.setdefault("residual", sol.residual)
    return FeasibilityVerdict(
        kind=kind, nullspace_dim=sol.dim, template=sol.system.template,
        tolerances=_tolerances(sol.tol), least_squares_residual=sol.residual,
        consistency_bound=sol.consistency_bound, **fields)


def _certify(sol, q_coords, eig, **own):
    """Project Q onto the PSD cone and re-verify its lift against the system.

    eig is Q(q)'s eigendecomposition. The projection keeps the eigenpairs
    of Q above rounding level (k eps lambda_max for k x k Q, numpy's
    matrix_rank cut); the certificate is X = lift(P) for that PSD part P,
    checked as it is kept, at the set's consistency_bound.
    """
    system = sol.system
    tpl = system.template
    w, V = eig
    if not psd_passes(w[0], np.linalg.norm(q_coords)):
        return None
    keep = w > w[-1] * w.size * np.finfo(float).eps
    F = V[:, keep] * np.sqrt(w[keep])
    p = tpl.pairing(F @ F.conj().T)
    residual = system.matrix_residual(tpl.lift(tpl.matrix(p)))
    if residual > sol.consistency_bound:
        return None
    return _verdict(sol, FEASIBLE, residual=residual, certificate_coords=p,
                    certificate_min_eig=float(w[0]), **own)


def psd_search(sol):
    """Decide whether the affine solution set holds a PSD element, at q0.

    Certifies q0 when Q0 passes (stop x0_certificate); otherwise looks for a
    witness among Q0's eigenvectors (stop x0_witness). With neither the
    verdict is INDETERMINATE (stop x0_undecided) and carries
    symmetry_residual = ||G Jq0 - b||: at most consistency_bound, q0 is
    provably the lambda_min maximiser (module docstring). cone_gap is Q0's
    least eigenvalue, signed, whenever Q0 is not certified.
    """
    if not sol.consistent:
        raise DimensionMismatch("psd_search requires a consistent solution set")
    q0, tpl = sol.q0_coords, sol.system.template
    eig0 = herm_eig(tpl.matrix(q0))
    verdict = _certify(sol, q0, eig0, stop="x0_certificate")
    if verdict is not None:
        return verdict
    cone_gap = float(eig0[0][0])
    hunt = witness_hunt(sol, q0, eig0)
    if hunt is not None:
        u, value, coupling = hunt
        return _verdict(sol, NOT_PSD, reduced_witness=u, witness_value=value,
                        witness_coupling=coupling, stop="x0_witness",
                        cone_gap=cone_gap)
    symmetry = float(np.linalg.norm(sol.system.G @ tpl.conjugate(q0)
                                    - sol.system.b_target))
    return _verdict(sol, INDETERMINATE, stop="x0_undecided",
                    cone_gap=cone_gap, symmetry_residual=symmetry)


def verdict_for(sol):
    """Turn a solved affine stage into a verdict, at the set's tol.

    Inconsistent systems short-circuit to NOT_CONSISTENT; everything else
    goes through the PSD search.
    """
    if not sol.consistent:
        return _verdict(sol, NOT_CONSISTENT)
    return psd_search(sol)


def decide(spec, s, tol=DEFAULT_FEAS_TOL):
    """Assemble, solve the linear stage, and run the PSD search."""
    system = assemble(spec, s)
    sol = solve_affine(system, tol=tol)
    return verdict_for(sol)
