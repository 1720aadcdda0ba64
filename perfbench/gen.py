"""Seeded problem generator with known answers taken from outside the program.

Every problem is a plain problem document (the JSON the program reads); the
known answer travels beside it and never reaches the program. Sources of the
known answers:

* the paper's examples for the four presets (2x2 GNS and KMS feasible, 3x3
  GNS not consistent, 3x3 KMS not PSD);
* Cipriani-Sauvageot for tracial states: a tracially symmetric generator is
  always delta* delta, so every tracial problem is FEASIBLE;
* the closed-form solvability predicate of the three-level family L_Y at
  s = 0 (restated in ``predicate_coefficients`` below, not imported): a point
  off the hyperplane is NOT_CONSISTENT;
* for a KMS (s = 1/2) matrix-unit pair between levels 2 and 3 of a density
  proportional to diag(1, l2^2, l3^2), the two-term vector
  v = psi(E12 (x) E22) + psi(E13 (x) E32) gives v* X v = -(l2+l3)(l2+l3-2) /
  (1+l2^2+l3^2) on the whole solution set; this is the paper's 3x3 value at
  (l2, l3) = (pi, e), and ``checker.farkas_value`` confirms it for every
  generated problem, so l2 + l3 > 2 makes the problem NOT_PSD;
* unitary covariance: rotating the density and every jump by one unitary U
  maps the solution set onto itself by X -> W X W*, W = U (x) U (x) conj(U)
  (x) conj(U) in psi order, so a rotated twin has its diagonal twin's answer
  and the rotated witness W v.

All randomness comes from ``numpy.random.default_rng`` seeded from the
workload seed (the pinned problem's rotation from a fixed seed of its own),
so one seed always gives the same problems.
"""

import math
from dataclasses import dataclass, field

import numpy as np

FEASIBLE = "FEASIBLE"
NOT_CONSISTENT = "NOT_CONSISTENT"
NOT_PSD = "NOT_PSD"

# keeps the family away from its exceptional set (levels that coincide or
# coefficients of the predicate that vanish), where the closed form and
# a floating-point consistency test may part ways
FAMILY_MARGIN = 0.25


@dataclass
class Case:
    """One problem document plus what the benchmark knows about it."""

    name: str
    n: int
    doc: dict
    expected: str
    witness: np.ndarray = field(default=None, repr=False)  # known NOT_PSD witness
    witness_value: float = None                            # its closed form


def _entry(z):
    return [float(z.real), float(z.imag)]


def _matrix(M):
    return [[_entry(z) for z in row] for row in np.asarray(M, dtype=complex)]


def _unit(n, i, j):
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def psi(n, i, j, k, l):
    """0-based position of E_ij (x) E_kl in the program's vectorization."""
    return n ** 3 * i + n ** 2 * k + n * j + l


def twin_map(U):
    """W with psi(U A U* (x) U B U*) = W psi(A (x) B)."""
    Uc = U.conj()
    # psi order is (i, k, j, l): first factor row, second factor row,
    # first factor column, second factor column
    return np.kron(np.kron(U, U), np.kron(Uc, Uc))


def problem_doc(D, jumps, s):
    """Problem document from a density matrix and (V, omega, weight) jumps."""
    return {
        "n": int(D.shape[0]),
        "density": _matrix(D),
        "jumps": [{"V": _matrix(V), "omega": float(om), "weight": float(w)}
                  for V, om, w in jumps],
        "s": float(s),
    }


def rotate(case, U, name):
    """Unitarily rotated twin of a diagonal-basis case."""
    doc = case.doc
    n = doc["n"]
    D = matrix_from_json(doc["density"])
    jumps = [(U @ matrix_from_json(j["V"]) @ U.conj().T, j["omega"], j["weight"])
             for j in doc["jumps"]]
    rotated = problem_doc(U @ D @ U.conj().T, jumps, doc["s"])
    witness = None if case.witness is None else twin_map(U) @ case.witness
    return Case(name, n, rotated, case.expected, witness, case.witness_value)


def matrix_from_json(M):
    """A matrix of [re, im] entries, the form ``problem_doc`` writes."""
    return np.array([[complex(a, b) for a, b in row] for row in M])


def _diag_problem(d, pairs, s):
    """Jumps E_ij / E_ji for each pair, frequencies from the density."""
    n = len(d)
    jumps = []
    for i, j in pairs:
        om = -math.log(d[i] / d[j])
        jumps += [(_unit(n, i, j), om, 1.0), (_unit(n, j, i), -om, 1.0)]
    return problem_doc(np.diag(np.asarray(d, dtype=complex)), jumps, s)


# ---------------------------------------------------------------------------
# The paper's examples
# ---------------------------------------------------------------------------

def presets():
    pi, e = math.pi, math.e
    d2 = [(1 + 1 / pi) / 2, (1 - 1 / pi) / 2]
    norm = 1 + pi ** 2 + e ** 2
    d3 = [1 / norm, pi ** 2 / norm, e ** 2 / norm]
    kms = kms_pair(pi, e, "3x3-kms")
    return [
        Case("2x2-gns", 2, _diag_problem(d2, [(0, 1)], 0.0), FEASIBLE),
        Case("2x2-kms", 2, _diag_problem(d2, [(0, 1)], 0.5), FEASIBLE),
        Case("3x3-gns", 3, _diag_problem(d3, [(1, 2)], 0.0), NOT_CONSISTENT),
        kms,
    ]


def paper_witness_value():
    """The paper's closed form for the 3x3 KMS witness, about -1.2388."""
    pi, e = math.pi, math.e
    return -(e ** 2 + 2 * e * (pi - 1) + pi * (pi - 2)) / (1 + pi ** 2 + e ** 2)


# ---------------------------------------------------------------------------
# Generated kinds
# ---------------------------------------------------------------------------

def tracial(rng, n, name):
    """Random adjoint-closed jumps for the tracial state: always FEASIBLE."""
    D = np.eye(n, dtype=complex) / n
    jumps = []
    for _ in range(int(rng.integers(1, 3))):
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        jumps += [(V, 0.0, 1.0), (V.conj().T, 0.0, 1.0)]
    return Case(name, n, problem_doc(D, jumps, 0.0), FEASIBLE)


def predicate_coefficients(l2, l3):
    """Solvability functional of L_Y at s = 0 on (y11, y12, y13, y22, y23, y33)."""
    a, b = l2 * l2, l3 * l3
    return np.array([
        b - a,
        (b - 1 - a) * (a - 1) / l2,
        (a - 1 - b) * (1 - b) / l3,
        1 - b,
        (1 - b - a) * (b - a) / (l3 * l2),
        a - 1,
    ])


def family_point(rng):
    """(l2, l3) log-uniform over e^[-2, 2], away from the exceptional set."""
    while True:
        l2, l3 = np.exp(rng.uniform(-2.0, 2.0, size=2))
        a, b = l2 * l2, l3 * l3
        logs = (math.log(l2), math.log(l3), math.log(l2 / l3))
        terms = (1 - a - b, b - 1 - a, a - 1 - b)
        if min(abs(x) for x in logs) > FAMILY_MARGIN and \
                min(abs(t) / (1 + a + b) for t in terms) > FAMILY_MARGIN / 4:
            return float(l2), float(l3)


def family_member(rng, name):
    """Raw L_Y at s = 0: off the predicate hyperplane, so NOT_CONSISTENT."""
    l2, l3 = family_point(rng)
    while True:
        R = rng.uniform(0.0, 1.0, size=(3, 3))
        Y = 0.5 * (R + R.T)
        y = np.array([Y[0, 0], Y[0, 1], Y[0, 2], Y[1, 1], Y[1, 2], Y[2, 2]])
        c = predicate_coefficients(l2, l3)
        if abs(c @ y) > 1e-2 * np.abs(c * y).sum():
            break
    lam = np.array([1.0, l2, l3])
    d = lam ** 2 / (lam ** 2).sum()
    jumps = [(_unit(3, i, j), -2.0 * math.log(lam[i] / lam[j]), Y[i, j])
             for i in range(3) for j in range(3)]
    return Case(name, 3, problem_doc(np.diag(d).astype(complex), jumps, 0.0),
                NOT_CONSISTENT)


def kms_pair(l2, l3, name):
    """KMS problem with a matrix-unit pair between levels 2 and 3.

    The known witness is the paper's two-term vector; its value on the
    solution set is -(l2+l3)(l2+l3-2)/(1+l2^2+l3^2).
    """
    lam = np.array([1.0, l2, l3])
    d = list(lam ** 2 / (lam ** 2).sum())
    v = np.zeros(81, dtype=complex)
    v[psi(3, 0, 1, 1, 1)] = 1.0   # E12 (x) E22
    v[psi(3, 0, 2, 2, 1)] = 1.0   # E13 (x) E32
    value = -(l2 + l3) * (l2 + l3 - 2) / (1 + l2 ** 2 + l3 ** 2)
    return Case(name, 3, _diag_problem(d, [(1, 2)], 0.5), NOT_PSD, v, value)


def kms_member(rng, name):
    while True:
        l2, l3 = np.exp(rng.uniform(-0.5, 1.5, size=2))
        if l2 + l3 > 2.6:
            return kms_pair(float(l2), float(l3), name)


# The kept failing operation: a rotated two-pair KMS problem whose diagonal
# twin is NOT_PSD with the two-term witness, but whose X0 has a degenerate
# negative eigenspace, so the program's witness search (eigenvectors, then
# vectors with one or two nonzeros in the standard basis) never tries the
# dense rotated witness. Fixed constants: it does not depend on the seed.
PINNED_LAMBDA = (1.9, 2.0)
PINNED_ROTATION_SEED = 20220323


def pinned_kms():
    """Pairs 2-3 and 1-3; the diagonal witness is psi(E11 (x) E11) - psi(E13 (x) E31)."""
    l2, l3 = PINNED_LAMBDA
    lam = np.array([1.0, l2, l3])
    d = list(lam ** 2 / (lam ** 2).sum())
    v = np.zeros(81, dtype=complex)
    v[psi(3, 0, 0, 0, 0)] = 1.0
    v[psi(3, 0, 2, 2, 0)] = -1.0
    base = Case("kms-2pair", 3, _diag_problem(d, [(1, 2), (0, 2)], 0.5), NOT_PSD, v)
    U = random_unitary(np.random.default_rng(PINNED_ROTATION_SEED), 3)
    return rotate(base, U, "kms-2pair-rotated")


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def _twins(rng, case):
    return [case, rotate(case, random_unitary(rng, case.n), case.name + "-rot")]


def warm_corpus(seed):
    """The warm-decide corpus: 4 problems at n=2, 13 at n=3.

    Nine of the n=3 decisions skip the PSD search (NOT_CONSISTENT) or pass
    it at once (tracial FEASIBLE), four run it to the end (NOT_PSD and the
    pinned failure), so the n=3 median sits well inside the fast cluster.
    The order spreads the fast decisions between the long searches, so that
    their times sample the whole round and not one stretch of it.
    """
    rng = np.random.default_rng([seed, 1])
    g2, k2, g3, k3 = presets()
    tr2 = _twins(rng, tracial(rng, 2, "tracial2"))
    tr3 = _twins(rng, tracial(rng, 3, "tracial3"))
    family = [c for k in range(3) for c in _twins(rng, family_member(rng, f"family{k}"))]
    kms = _twins(rng, kms_member(rng, "kms"))
    return [g2, g3, family[0], k3, tr3[0], family[1], kms[0], tr2[0],
            family[2], k2, tr3[1], family[3], kms[1], tr2[1], family[4],
            pinned_kms(), family[5]]


def cli_cases(seed):
    """cli-cold problems: the presets plus one generated problem per verdict."""
    rng = np.random.default_rng([seed, 2])
    tr2 = _twins(rng, tracial(rng, 2, "tracial2"))
    tr3 = tracial(rng, 3, "tracial3")
    family = _twins(rng, family_member(rng, "family"))[1]
    kms = _twins(rng, kms_member(rng, "kms"))[1]
    return presets() + tr2 + [tr3, family, kms]


def sweep_points(seed, count):
    """Pinned (l2, l3) points of the three-level family for sweep-rhs."""
    rng = np.random.default_rng([seed, 3])
    return [family_point(rng) for _ in range(count)]
