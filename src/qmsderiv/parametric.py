"""Parametric family of GNS-symmetric generators on M_3 and its solvability law.

For a diagonal state with density proportional to diag(1, l2^2, l3^2) every
GNS-symmetric generator (generically in l2, l3) has the form

    L_Y(A) = -sum_ij Y_ij e^{-w_ij/2} (E_ij^* [A, E_ij] + [E_ij^*, A] E_ij)

for a real symmetric 3x3 matrix Y, where e^{-w_ij} = l_i^2 / l_j^2. The
linear stage of the feasibility system for L_Y at s = 0 is solvable exactly
when a single linear functional of Y vanishes:

    (1-l3^2-l2^2)(l3^2-l2^2)/(l3 l2) Y23 + (l3^2-1-l2^2)(l2^2-1)/l2 Y12
  + (l2^2-1-l3^2)(1-l3^2)/l3 Y13
  + (l3^2-l2^2) Y11 + (1-l3^2) Y22 + (l2^2-1) Y33 = 0,

away from an exceptional parameter set of measure zero. This module
evaluates that functional, projects Y matrices onto its zero hyperplane,
and runs randomized sweeps comparing the closed form against the assembled
system's actual consistency, record by record.

Every sample is assembled against the cached per-size template, so a sample
adds only its target form and right-hand side, and hundreds of samples cost
little more than one.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import assemble
from .errors import DimensionMismatch, ToolError
from .linalg import DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL
from .qms import DensityState, lindblad_apply, make_spec
from .feasibility import solve_affine

DEFAULT_PREDICATE_TOL = 1e-10


@dataclass(frozen=True)
class YMatrix:
    """Real symmetric 3x3 weight matrix for the generator family.

    Entries must be nonnegative (the QMS case) unless allow_negative is
    set, which admits the signed-weight extension of the family.
    """

    entries: np.ndarray = field(repr=False)
    allow_negative: bool = False

    def __post_init__(self):
        Y = np.asarray(self.entries, dtype=float)
        if Y.shape != (3, 3):
            raise DimensionMismatch(f"Y must be 3x3, got {Y.shape}")
        if not np.all(np.isfinite(Y)):
            raise DimensionMismatch("Y contains non-finite entries")
        if np.abs(Y - Y.T).max() > 1e-12 * max(1.0, np.abs(Y).max()):
            raise DimensionMismatch("Y must be symmetric")
        Y = 0.5 * (Y + Y.T)
        if not self.allow_negative and Y.min() < 0:
            raise DimensionMismatch(
                "Y has negative entries; pass allow_negative=True for the "
                "signed extension")
        Y = Y.copy()
        Y.flags.writeable = False
        object.__setattr__(self, "entries", Y)

    @classmethod
    def zero(cls):
        return cls(np.zeros((3, 3)))

    def six(self):
        """The independent entries as (y11, y12, y13, y22, y23, y33)."""
        Y = self.entries
        return np.array([Y[0, 0], Y[0, 1], Y[0, 2], Y[1, 1], Y[1, 2], Y[2, 2]])

    @classmethod
    def from_six(cls, y, allow_negative=False):
        y11, y12, y13, y22, y23, y33 = [float(v) for v in y]
        Y = np.array([[y11, y12, y13], [y12, y22, y23], [y13, y23, y33]])
        return cls(Y, allow_negative=allow_negative)


@dataclass(frozen=True)
class LambdaPoint:
    """State parameters (l2, l3), with l1 fixed to 1."""

    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name, v in (("lambda2", self.lambda2), ("lambda3", self.lambda3)):
            if not (np.isfinite(v) and v > 0):
                raise DimensionMismatch(f"{name} must be positive, got {v}")

    def state(self):
        return DensityState.from_diagonal(
            [1.0, self.lambda2 ** 2, self.lambda3 ** 2], normalize=True)


def build_LY(p, Y):
    """Generator spec for L_Y at the state determined by p.

    One jump per nonzero Y entry: V = E_ij with weight Y_ij and Bohr
    frequency w_ij = -log(l_i^2 / l_j^2). Symmetry of Y makes the jump set
    adjoint-closed; negative entries are carried as signed weights.
    """
    lam = np.array([1.0, p.lambda2, p.lambda3])
    state = p.state()
    jumps = []
    for i in range(3):
        for j in range(3):
            w = Y.entries[i, j]
            if w == 0.0:
                continue
            V = np.zeros((3, 3), dtype=complex)
            V[i, j] = 1.0
            omega = -2.0 * (np.log(lam[i]) - np.log(lam[j]))
            jumps.append((V, omega, w))
    return make_spec(state, jumps)


def predicate_coefficients(p):
    """The six Y-coefficients of the solvability functional.

    Order matches YMatrix.six(): (y11, y12, y13, y22, y23, y33).
    """
    l2s, l3s = p.lambda2 ** 2, p.lambda3 ** 2
    return np.array([
        l3s - l2s,
        (l3s - 1.0 - l2s) * (l2s - 1.0) / p.lambda2,
        (l2s - 1.0 - l3s) * (1.0 - l3s) / p.lambda3,
        1.0 - l3s,
        (1.0 - l3s - l2s) * (l3s - l2s) / (p.lambda3 * p.lambda2),
        l2s - 1.0,
    ])


def predicate_lhs(p, Y):
    """Value of the solvability functional at (p, Y); linear in Y."""
    return float(predicate_coefficients(p) @ Y.six())


def solvable_predicate(p, Y, tol=DEFAULT_PREDICATE_TOL):
    """Whether (p, Y) lies on the solvability hyperplane within tolerance.

    The tolerance is relative to the magnitude of the individual terms, so
    cancellation to rounding level counts as zero while honest nonzero
    values at any scale do not.
    """
    c = predicate_coefficients(p)
    y = Y.six()
    scale = max(1.0, float(np.abs(c * y).sum()))
    return abs(float(c @ y)) <= tol * scale


def project_to_hyperplane(p, Y):
    """Project Y onto the predicate's zero set in the Y-entry inner product.

    The result generally has negative entries and is returned with
    allow_negative set. When the coefficient vector vanishes (tracial-like
    points) Y is already in the zero set and is returned unchanged.
    """
    c = predicate_coefficients(p)
    cc = float(c @ c)
    y = Y.six()
    if cc == 0.0:
        return YMatrix(Y.entries, allow_negative=True)
    y = y - (float(c @ y) / cc) * c
    return YMatrix.from_six(y, allow_negative=True)


@dataclass
class SweepRecord:
    """One sweep sample: closed-form prediction vs assembled-system truth."""

    sample_id: int
    p: LambdaPoint
    Y: YMatrix
    predicate_lhs: float = float("nan")
    predicate: bool = False
    consistent: bool = False
    residual: float = float("nan")
    agree: bool = False
    error: str = None

    def csv_row(self):
        y = self.Y.six()
        if self.error is not None:
            tail = ["error", "nan", "false"]
        else:
            tail = [str(self.consistent).lower(), f"{self.residual:.6e}",
                    str(self.agree).lower()]
        return [str(self.sample_id),
                f"{self.p.lambda2:.17g}", f"{self.p.lambda3:.17g}",
                *(f"{v:.17g}" for v in (y[0], y[1], y[2], y[3], y[4], y[5])),
                f"{self.predicate_lhs:.6e}", str(self.predicate).lower(),
                tail[0], tail[1], tail[2]]


CSV_COLUMNS = ["sample_id", "lambda2", "lambda3",
               "y11", "y12", "y13", "y22", "y23", "y33",
               "predicate_lhs", "predicate", "consistent", "residual", "agree"]


def sample_inputs(count, seed, project=False, pin=None):
    """Deterministic sample stream: p log-uniform over e^[-2,2], Y uniform.

    pin, when given, fixes (lambda2, lambda3) for every sample. Projection
    onto the predicate hyperplane happens after drawing Y.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        if pin is not None:
            p = LambdaPoint(float(pin[0]), float(pin[1]))
        else:
            l2, l3 = np.exp(rng.uniform(-2.0, 2.0, size=2))
            p = LambdaPoint(float(l2), float(l3))
        R = rng.uniform(0.0, 1.0, size=(3, 3))
        Y = YMatrix(0.5 * (R + R.T))
        if project:
            Y = project_to_hyperplane(p, Y)
        out.append((k, p, Y))
    return out


def sweep(count, seed, project=False, pin=None, s=0.0,
          tol=DEFAULT_FEAS_TOL, rank_tol=DEFAULT_RANK_TOL,
          predicate_tol=DEFAULT_PREDICATE_TOL, threads=1, on_record=None):
    """Compare the closed-form predicate against linear consistency.

    Returns SweepRecords ordered by sample index. Per-sample failures are
    caught into the record's error field and the sweep continues. Each
    sample is assembled like any other problem; the constraint blocks come
    from the per-size template cache, so only the right-hand side is new.
    Samples run serially: threads is accepted for compatibility and ignored,
    because worker threads made sweeps slower.
    """
    records = []
    for k, p, Y in sample_inputs(count, seed, project=project, pin=pin):
        rec = SweepRecord(k, p, Y)
        try:
            rec.predicate_lhs = predicate_lhs(p, Y)
            rec.predicate = solvable_predicate(p, Y, tol=predicate_tol)
            sol = solve_affine(assemble(build_LY(p, Y), s), tol=tol,
                               rank_tol=rank_tol)
            rec.consistent = sol.consistent
            rec.residual = sol.residual
            rec.agree = rec.predicate == rec.consistent
        except ToolError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        if on_record:
            on_record(rec)
    return records


def agreement_rate(records):
    """Fraction of records whose prediction matched; empty sweeps count as 1."""
    if not records:
        return 1.0
    return sum(1 for r in records if r.error is None and r.agree) / len(records)


def diag_jump_identity(a, b, c):
    """Deviation between one diagonal jump and its three-projection split.

    A single jump V = diag(a, b, c) generates the same L as the three
    diagonal projections diag(1,0,0), diag(0,1,0), diag(0,0,1) taken with
    signed weights

        w1 = ((a-b)^2 + (a-c)^2 - (b-c)^2) / 2   (and cyclically),

    even when some weight is negative. All Bohr frequencies vanish because
    diagonal jumps commute with the (diagonal) density. Returns the largest
    Frobenius-norm difference of the two generators over the matrix-unit
    basis.
    """
    state = DensityState.tracial(3)
    V = np.diag([a, b, c]).astype(complex)
    one = make_spec(state, [(V, 0.0)])
    w1 = 0.5 * ((a - b) ** 2 + (a - c) ** 2 - (b - c) ** 2)
    w2 = 0.5 * ((a - b) ** 2 + (b - c) ** 2 - (a - c) ** 2)
    w3 = 0.5 * ((a - c) ** 2 + (b - c) ** 2 - (a - b) ** 2)
    projs = []
    for idx, w in ((0, w1), (1, w2), (2, w3)):
        P = np.zeros((3, 3), dtype=complex)
        P[idx, idx] = 1.0
        projs.append((P, 0.0, w))
    split = make_spec(state, projs)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            E = np.zeros((3, 3), dtype=complex)
            E[i, j] = 1.0
            dev = np.linalg.norm(lindblad_apply(one, E) - lindblad_apply(split, E))
            worst = max(worst, float(dev))
    return worst
