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

A LambdaPoint computes its state, Bohr frequencies, factors e^{-w_ij/2} and
predicate coefficients once, on first use. A sweep has one sample path: it
builds a point's factors (D^s kron (D^{1-s})^T and e^{-w_ij/2}) once per
point, so once for a pinned sweep and once a sample otherwise, and reads
each sample's target right-hand side off the generator's matrix with the
helpers that assemble uses, without building a Y, jumps or a generator spec.
The samples share the cached per-size template and the SVD of its target
matrix, so a sweep solves them a chunk at a time with one product over the
stacked right-hand sides. Its result (SweepRecords) keeps only what the
sweep computed, 9 bytes a sample, and re-derives each sample's point, Y and
predicate from the seed. The predicate is judged at the constant relative
tolerance DEFAULT_PREDICATE_TOL, so the sweep's one tolerance is tol, its
consistency bound tol * ||b||.
"""

import itertools
import math
import numbers
import operator
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .constraints import (_residual_bound, _state_factor, _target_rhs,
                          _target_values, system_template)
from .errors import DimensionMismatch, SchemaError
from .feasibility import _solve_stacked
from .linalg import DEFAULT_FEAS_TOL, check_tol
from .qms import (DensityState, Jump, LindbladSpec, _generator_matrix,
                  check_s, generator_matrix, make_spec)

# the predicate holds when |c.y| <= DEFAULT_PREDICATE_TOL * sum |c_i y_i|
DEFAULT_PREDICATE_TOL = 1e-10

# flat positions of YMatrix.six()'s entries in Y, and of Y's in the six
_SIX = np.array([0, 1, 2, 4, 5, 8])
_FROM_SIX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


class YMatrix:
    """Real symmetric 3x3 weight matrix for the generator family.

    Entries must be nonnegative (the QMS case) unless allow_negative is
    set, which admits the signed-weight extension of the family. Y must be
    symmetric within 1e-12 of its largest entry, with no floor, so Y and
    k Y are judged alike and Y = 0 exactly; the rounding-level asymmetry
    this admits is symmetrized away.
    """

    def __init__(self, entries, allow_negative=False):
        Y = np.asarray(entries, dtype=float)
        if Y.shape != (3, 3):
            raise DimensionMismatch(f"Y must be 3x3, got {Y.shape}")
        if not np.isfinite(Y).all():
            raise DimensionMismatch("Y contains non-finite entries")
        if np.abs(Y - Y.T).max() > 1e-12 * np.abs(Y).max():
            raise DimensionMismatch("Y must be symmetric")
        Y = 0.5 * (Y + Y.T)
        if not allow_negative and Y.min() < 0:
            raise DimensionMismatch(
                "Y has negative entries; pass allow_negative=True for the "
                "signed extension")
        Y.flags.writeable = False
        self.entries, self.allow_negative = Y, allow_negative

    @classmethod
    def zero(cls):
        return cls(np.zeros((3, 3)))

    def six(self):
        """The independent entries as (y11, y12, y13, y22, y23, y33)."""
        return self.entries.reshape(-1)[_SIX]

    @classmethod
    def from_six(cls, y, allow_negative=False):
        y11, y12, y13, y22, y23, y33 = [float(v) for v in y]
        Y = np.array([[y11, y12, y13], [y12, y22, y23], [y13, y23, y33]])
        return cls(Y, allow_negative=allow_negative)


class LambdaPoint:
    """State parameters (l2, l3), with l1 fixed to 1.

    The state, the Bohr frequencies, their factors e^{-w_ij/2} and the
    predicate coefficients are computed once, on first use, and kept with
    the point. Each l must be positive with a square inside the float range.
    Points are equal, and hash alike, when their (l2, l3) are.
    """

    def __init__(self, lambda2, lambda3):
        for name, v in (("lambda2", lambda2), ("lambda3", lambda3)):
            if not (np.isfinite(v) and v > 0):
                raise DimensionMismatch(f"{name} must be positive, got {v}")
            if not 0.0 < v * v < math.inf:
                raise DimensionMismatch(
                    f"{name}={v} is out of range: its square is {v * v}")
        self.lambda2, self.lambda3 = lambda2, lambda3

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lambda2, self.lambda3) == (other.lambda2, other.lambda3)

    def __hash__(self):
        return hash((self.lambda2, self.lambda3))

    def state(self):
        """The density diag(1, l2^2, l3^2) / (1 + l2^2 + l3^2)."""
        return self._state

    @cached_property
    def _state(self):
        return DensityState.from_diagonal(
            [1.0, self.lambda2 ** 2, self.lambda3 ** 2], normalize=True)

    @cached_property
    def omegas(self):
        """Bohr frequencies w_ij = -log(l_i^2 / l_j^2), as nested tuples."""
        lam = np.array([1.0, self.lambda2, self.lambda3])
        return tuple(tuple(float(-2.0 * (np.log(lam[i]) - np.log(lam[j])))
                           for j in range(3)) for i in range(3))

    @cached_property
    def bohr_factors(self):
        """e^{-w_ij/2} as a read-only 3x3 array, each entry computed as the
        generator of a jump with frequency w_ij computes it."""
        E = np.array([[np.exp(-0.5 * w) for w in row] for row in self.omegas])
        E.flags.writeable = False
        return E

    @cached_property
    def coefficients(self):
        """The six Y-coefficients of the solvability functional (read-only).

        Order matches YMatrix.six(): (y11, y12, y13, y22, y23, y33).
        """
        l2s, l3s = self.lambda2 ** 2, self.lambda3 ** 2
        c = np.array([
            l3s - l2s,
            (l3s - 1.0 - l2s) * (l2s - 1.0) / self.lambda2,
            (l2s - 1.0 - l3s) * (1.0 - l3s) / self.lambda3,
            1.0 - l3s,
            (1.0 - l3s - l2s) * (l3s - l2s) / (self.lambda3 * self.lambda2),
            l2s - 1.0,
        ])
        if not np.isfinite(c).all():
            raise DimensionMismatch(
                f"predicate coefficients at ({self.lambda2}, {self.lambda3}) "
                "overflow")
        c.flags.writeable = False
        return c

    def usable(self):
        """The point, with its state, frequencies and coefficients computed.

        Raises a ToolError when one of them cannot be: the state is not
        strictly positive or a coefficient overflows.
        """
        self.state(), self.omegas, self.coefficients
        return self


# _UNITS[i, j] is the matrix unit E_ij, the family's jump operators
_UNITS = np.eye(9, dtype=complex).reshape(3, 3, 3, 3)
_UNITS.flags.writeable = False


def build_LY(p, Y):
    """Generator spec for L_Y at the state determined by p.

    One jump per nonzero Y entry: V = E_ij with weight Y_ij and Bohr
    frequency w_ij = -log(l_i^2 / l_j^2). Symmetry of Y makes the jump set
    adjoint-closed; negative entries are carried as signed weights.
    """
    omegas = p.omegas
    jumps = []
    for i in range(3):
        for j in range(3):
            w = Y.entries[i, j]
            if w == 0.0:
                continue
            jumps.append(Jump(_UNITS[i, j], omegas[i][j], float(w)))
    return LindbladSpec(p.state(), tuple(jumps))


def predicate_coefficients(p):
    """The six Y-coefficients of the solvability functional at p.

    Order matches YMatrix.six(): (y11, y12, y13, y22, y23, y33). The array
    is computed once per point and is read-only.
    """
    return p.coefficients


def predicate_lhs(p, Y):
    """Value of the solvability functional at (p, Y); linear in Y."""
    return float(predicate_coefficients(p) @ Y.six())


def solvable_predicate(p, Y):
    """Whether (p, Y) lies on the solvability hyperplane within tolerance.

    The tolerance, DEFAULT_PREDICATE_TOL, is relative to the magnitude of
    the individual terms, so cancellation to rounding level counts as zero
    while honest nonzero values at any scale do not.
    """
    return _predicate(predicate_coefficients(p), Y.six())[1]


def _predicate(c, y):
    """(predicate_lhs, solvable_predicate) for coefficients c and entries y.

    The value is judged against DEFAULT_PREDICATE_TOL * sum |c_i y_i|, with
    no floor: the functional is linear in Y, so Y and k Y get the same flag
    for k > 0.
    """
    lhs = float(c @ y)
    return lhs, abs(lhs) <= DEFAULT_PREDICATE_TOL * float(np.abs(c * y).sum())


def project_to_hyperplane(p, Y):
    """Project Y onto the predicate's zero set in the Y-entry inner product.

    The result generally has negative entries and is returned with
    allow_negative set. When the coefficient vector vanishes (tracial-like
    points) Y is already in the zero set and is returned unchanged.
    """
    return YMatrix(_project(predicate_coefficients(p), Y.entries),
                   allow_negative=True)


def _project(c, Y):
    """project_to_hyperplane on the entries of Y, for coefficients c."""
    cc = float(c @ c)
    if cc == 0.0:
        return Y
    y = Y.reshape(-1)[_SIX]
    return (y - (float(c @ y) / cc) * c)[_FROM_SIX]


class SweepRecord:
    """One sweep sample: closed-form prediction vs assembled-system truth.

    error is always None: a sweep refuses its arguments before the first
    sample, and no sample fails after that. It is kept for callers that
    read it.
    """

    error = None

    def __init__(self, sample_id, p, Y, predicate_lhs, predicate, consistent,
                 residual, agree):
        self.sample_id, self.p, self.Y = sample_id, p, Y
        self.predicate_lhs, self.predicate = predicate_lhs, predicate
        self.consistent, self.residual, self.agree = consistent, residual, agree

    def csv_row(self):
        y = self.Y.six()
        return [str(self.sample_id),
                f"{self.p.lambda2:.17g}", f"{self.p.lambda3:.17g}",
                *(f"{v:.17g}" for v in (y[0], y[1], y[2], y[3], y[4], y[5])),
                f"{self.predicate_lhs:.6e}", str(self.predicate).lower(),
                str(self.consistent).lower(), f"{self.residual:.6e}",
                str(self.agree).lower()]


CSV_COLUMNS = ["sample_id", "lambda2", "lambda3",
               "y11", "y12", "y13", "y22", "y23", "y33",
               "predicate_lhs", "predicate", "consistent", "residual", "agree"]


def sample_inputs(count, seed, project=False, pin=None):
    """Deterministic sample stream: p log-uniform over e^[-2,2], Y uniform.

    Returns an iterator of (k, p, Y) for k = 0 .. count - 1. pin, when
    given, fixes (lambda2, lambda3): its one LambdaPoint is made usable
    here, before any sample is drawn, so an unusable pin raises a ToolError
    at once, and every sample yields that point. Otherwise each sample gets
    a fresh point. Projection onto the predicate hyperplane happens after
    drawing Y.
    """
    return ((k, p, YMatrix(Y, allow_negative=project))
            for k, p, Y in _draw_samples(count, seed, project, pin))


def _draw_samples(count, seed, project, pin):
    """The stream of sample_inputs with each Y as its symmetric entries
    array, which YMatrix keeps as it is; the pin is made usable at once."""
    point = None
    if pin is not None:
        point = LambdaPoint(float(pin[0]), float(pin[1])).usable()
    return _draws(count, np.random.default_rng(seed), project, point)


def _draws(count, rng, project, point):
    for k in range(count):
        p = point
        if p is None:
            l2, l3 = np.exp(rng.uniform(-2.0, 2.0, size=2))
            p = LambdaPoint(float(l2), float(l3))
        R = rng.uniform(0.0, 1.0, size=(3, 3))
        Y = 0.5 * (R + R.T)
        if project:
            Y = _project(p.coefficients, Y)
        yield k, p, Y


# samples solved by one stacked product: the SVD factors of the target matrix
# (140 KB at n = 3) are read once per chunk instead of once per sample
SWEEP_CHUNK = 16

# the most samples one sweep takes: its results, 9 bytes a sample, stay under
# 10 MB (an unpinned command-line sweep of 10**6 samples, which keeps no
# record, peaked at 47.2 MB RSS, 38.7 MB for 10**3, on a 2-vCPU machine)
MAX_SWEEP_COUNT = 10 ** 6


def _sample_rhs(K, E, Y):
    """b_target of assemble(build_LY(p, Y), s) from the point's factors
    K = D^s kron (D^{1-s})^T and E = e^{-w_ij/2}, with the same arithmetic."""
    nonzero = Y != 0.0      # build_LY makes no jump for a zero weight
    S = _generator_matrix(Y[nonzero] * E[nonzero], _UNITS[nonzero])
    return _target_rhs(_target_values(K, S))


class SweepRecords(Sequence):
    """A sweep's results, one entry per sample.

    Only what the sweep computed is kept: each sample's residual and
    consistency flag, 9 bytes a sample. The sample's point, Y, predicate
    value and predicate flag are re-derived from the sweep's arguments
    through sample_inputs, so iterating walks the sample stream once and
    records[k] walks it to k, in O(k). Y allows negative entries exactly
    when the sweep was projected.
    """

    __slots__ = ("count", "seed", "project", "pin", "residual", "consistent")

    def __init__(self, count, seed, project, pin):
        self.count, self.seed = count, seed
        self.project, self.pin = project, pin
        self.residual = np.full(count, np.nan)
        self.consistent = np.zeros(count, dtype=bool)

    def __len__(self):
        return self.count

    def __iter__(self):
        for k, p, Y in sample_inputs(self.count, self.seed, self.project,
                                     self.pin):
            yield self.record(k, p, Y)

    def __getitem__(self, k):
        k = range(self.count)[operator.index(k)]
        return next(itertools.islice(self, k, None))

    def record(self, k, p, Y):
        """The SweepRecord of sample k, drawn as (k, p, Y)."""
        predicate_lhs, predicate = _predicate(p.coefficients, Y.six())
        consistent = bool(self.consistent[k])
        return SweepRecord(k, p, Y, predicate_lhs, predicate, consistent,
                           float(self.residual[k]), predicate == consistent)


def _check_nonnegative_int(value, name):
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise SchemaError(name, f"must be a nonnegative integer, got {value!r}")


def sweep(count, seed, project=False, pin=None, s=0.0, tol=DEFAULT_FEAS_TOL,
          threads=1, on_record=None):
    """Compare the closed-form predicate against linear consistency.

    Returns SweepRecords, a sequence ordered by sample index; seed is an
    integer, from which the records re-derive their samples. Every refusal
    comes before the first draw or allocation: a count or seed that is not
    a nonnegative integer, a count above MAX_SWEEP_COUNT, a tol that is not
    positive and finite, or an s outside [0, 1] (or NaN) raises a
    ToolError, and so does an unusable pin, because a pinned sweep builds
    its one point first; unpinned points are drawn in e^[-2, 2], where
    every point is usable. Every sample takes one path:
    the factors of its point are built when the point changes (once for a
    pinned sweep), and its target right-hand side is the one
    assemble(build_LY(p, Y), s) gives, against the per-size template. The
    samples of each chunk of SWEEP_CHUNK are then solved together by one
    product over their stacked right-hand sides, each keeping its own
    residual and consistency bound tol * ||b||, and on_record, when given,
    is called with each record of the chunk, built from the drawn sample.
    threads is accepted for compatibility and ignored: samples run in one
    thread.
    """
    check_s(s)
    _check_nonnegative_int(count, "count")
    if count > MAX_SWEEP_COUNT:
        raise SchemaError("count", f"must be at most {MAX_SWEEP_COUNT}")
    _check_nonnegative_int(seed, "seed")
    check_tol(tol, "tol")
    samples = _draw_samples(count, seed, project, pin)
    out = SweepRecords(count, seed, project,
                       None if pin is None else tuple(map(float, pin)))
    template = system_template(3)
    point = factors = None
    while chunk := list(itertools.islice(samples, SWEEP_CHUNK)):
        rhs = []
        for _, p, Y in chunk:
            if p is not point:
                factors = _state_factor(p.state(), s), p.bohr_factors
                point = p
            rhs.append(_sample_rhs(*factors, Y))
        _, residual, _ = _solve_stacked(template, np.array(rhs))
        bound = np.array([_residual_bound(b, tol) for b in rhs])
        first = chunk[0][0]
        out.residual[first:first + len(rhs)] = residual
        out.consistent[first:first + len(rhs)] = residual <= bound
        if on_record:
            for k, p, Y in chunk:
                on_record(out.record(k, p, YMatrix(Y, allow_negative=project)))
    return out


def agreement_rate(records):
    """Fraction of records whose prediction matched; empty sweeps count as 1."""
    if not records:
        return 1.0
    return sum(1 for r in records if r.agree) / len(records)


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
    # column a of a generator matrix is vec(L(E_a)), a = 3 i + j
    diff = generator_matrix(one) - generator_matrix(split)
    return float(np.linalg.norm(diff, axis=0).max())
