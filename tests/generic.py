"""Seeded generic problems at n = 2..4, beyond the benchmark's families.

A problem has a geometric, degenerate or random density; one jump per
chosen Bohr frequency, combining every matrix unit of that frequency with
random complex coefficients, beside its adjoint partner; 0 to 2 real
diagonal (dephasing) jumps; s from {0, 1/2, 1, U(0, 1)}; and, for half of
the problems, a random unitary rotation of the density and every jump.
Such generators are adjoint-closed and KMS-covariant, so validate_spec
passes on each, while the verdict is not known in advance.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

DENSITY_KINDS = ("geometric", "degenerate", "random")


def _density(rng, n, kind):
    if kind == "geometric":
        d = np.exp(rng.uniform(-1.5, 1.5)) ** np.arange(n)
    elif kind == "degenerate":
        # n levels drawn from fewer values, so some coincide
        d = rng.choice(rng.uniform(0.2, 4.0, size=n - 1), size=n)
        d[:2] = d[0]
    else:
        d = rng.uniform(0.2, 4.0, size=n)
    return d / d.sum()


def _bohr_jumps(rng, d):
    """(V, omega, 1) for V combining every E_ij of one Bohr frequency
    omega = -log(d_i / d_j) >= 0, and its partner (V*, -omega, 1); at
    omega = 0, by a coin, every E_ij or only those with i < j."""
    n = len(d)
    groups = {}
    upper = rng.uniform() < 0.5
    for i in range(n):
        for j in range(n):
            if i != j and not (upper and i > j and d[i] == d[j]):
                omega = -math.log(d[i] / d[j])
                groups.setdefault(round(omega, 9), []).append((i, j))
    jumps = []
    keys = [k for k in sorted(groups) if k >= 0]
    for k in rng.permutation(keys)[:int(rng.integers(1, len(keys) + 1))]:
        V = np.zeros((n, n), dtype=complex)
        for i, j in groups[k]:
            V[i, j] = complex(*rng.standard_normal(2))
        omega = -math.log(d[groups[k][0][0]] / d[groups[k][0][1]])
        jumps += [(V, omega, 1.0), (V.conj().T, -omega, 1.0)]
    for _ in range(int(rng.integers(0, 3))):
        jumps.append((np.diag(rng.standard_normal(n)).astype(complex), 0.0, 1.0))
    return jumps


def generic_member(rng, n, name="generic"):
    """One generic problem at size n, as a gen.Case with no known answer."""
    kind = DENSITY_KINDS[int(rng.integers(len(DENSITY_KINDS)))]
    d = _density(rng, n, kind)
    s = (0.0, 0.5, 1.0, float(rng.uniform()))[int(rng.integers(4))]
    doc = gen.problem_doc(np.diag(d).astype(complex), _bohr_jumps(rng, d), s)
    case = gen.Case(f"{name}-n{n}-{kind}", n, doc, None)
    if rng.uniform() < 0.5:
        case = gen.rotate(case, gen.random_unitary(rng, n), case.name + "-rot")
    return case


def generic_corpus(seed, count=300):
    """count problems, n cycling through 2, 3, 4."""
    rng = np.random.default_rng([seed, 4])
    return [generic_member(rng, 2 + k % 3, f"generic{k}") for k in range(count)]
