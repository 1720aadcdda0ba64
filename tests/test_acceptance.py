"""Acceptance gate: the six top-level criteria.

Each criterion is one test function; the conftest terminal-summary hook
prints one PASS/FAIL line per criterion after the run. Tolerances are the
contractual ones, restated locally rather than imported, so a drift in the
library defaults cannot silently weaken the gate.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qmsderiv.constraints import TensorElem, assemble, left_act, right_act, target_form
from qmsderiv.feasibility import (FEASIBLE, NOT_CONSISTENT, NOT_PSD,
                                  clear_caches, decide, solve_affine,
                                  witness_check)
from qmsderiv.linalg import hermitian_encode
from qmsderiv.parametric import (LambdaPoint, YMatrix, agreement_rate,
                                 build_LY, diag_jump_identity, sweep)
from qmsderiv.qms import (DensityState, gns_symmetry_check, lindblad_apply,
                          make_spec, modular_conjugate, s_inner)

PI = math.pi
E = math.e

RESIDUAL_TOL = 1e-8       # residual threshold, relative to max(1, ||b||)
PSD_TOL = 1e-9            # min-eigenvalue threshold, relative to ||X||
WITNESS_VALUE_TOL = 1e-6
WITNESS_COUPLING_TOL = 1e-8

EXPECTED_KINDS = {
    "2x2-gns": FEASIBLE,
    "2x2-kms": FEASIBLE,
    "3x3-gns": NOT_CONSISTENT,
    "3x3-kms": NOT_PSD,
}

REFERENCE_GNS_SPECTRUM = sorted([1.96, 1.96, 0.96, 0.96, 0.64, 0.64, 0.31,
                                 0.31, 0.07, 0.07, 0.07, 0.07, 0, 0, 0, 0])


@pytest.fixture(scope="module")
def headline_runs(preset_problems):
    """Cold-cache verdicts plus wall-clock time for the four presets."""
    clear_caches()
    runs = {}
    for pid, problem in preset_problems.items():
        start = time.perf_counter()
        verdict = decide(problem.spec, problem.s, seed=0)
        runs[pid] = (verdict, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def kms_3x3_solution(preset_problems):
    p = preset_problems["3x3-kms"]
    return solve_affine(assemble(p.spec, p.s))


def test_criterion_1_verdict_reproduction(headline_runs, preset_problems):
    for pid, expected in EXPECTED_KINDS.items():
        verdict, elapsed = headline_runs[pid]
        assert verdict.kind == expected, f"{pid}: {verdict.kind} != {expected}"
        budget = 1.0 if pid.startswith("2x2") else 120.0
        assert elapsed < budget, f"{pid} took {elapsed:.2f}s (budget {budget}s)"
        assert verdict.tolerances["feasibility"] == RESIDUAL_TOL
        assert verdict.tolerances["psd"] == PSD_TOL

    # re-verify the two certificates against freshly assembled systems
    for pid in ("2x2-gns", "2x2-kms"):
        p = preset_problems[pid]
        system = assemble(p.spec, p.s)
        X = np.asarray(headline_runs[pid][0].certificate)
        assert system.residual_of(hermitian_encode(X)) <= system.residual_bound(RESIDUAL_TOL)
        eigmin = np.linalg.eigvalsh(X)[0]
        assert eigmin >= -PSD_TOL * max(1.0, np.linalg.norm(X))
    # and the two negative verdicts carry the right evidence
    assert headline_runs["3x3-gns"][0].residual > RESIDUAL_TOL
    assert headline_runs["3x3-kms"][0].witness_vector is not None


def test_criterion_2_witness_value(kms_3x3_solution):
    v = np.zeros(81, dtype=complex)
    v[27 * 0 + 9 * 1 + 3 * 1 + 1] = 1.0  # psi(E12 (x) E22)
    v[27 * 0 + 9 * 2 + 3 * 2 + 1] = 1.0  # psi(E13 (x) E32)
    value, coupling = witness_check(kms_3x3_solution, v)
    target = -(E ** 2 + 2 * E * (PI - 1) + PI * (PI - 2)) / (1 + PI ** 2 + E ** 2)
    assert abs(target - (-1.2388)) < 5e-5  # guard against typos in the closed form
    assert abs(value - target) <= WITNESS_VALUE_TOL
    assert coupling <= WITNESS_COUPLING_TOL


def test_criterion_3_spectrum_cross_check(headline_runs):
    verdict = headline_runs["2x2-gns"][0]
    # the dimension must be reported either way
    assert isinstance(verdict.nullspace_dim, int)
    assert verdict.nullspace_dim >= 0
    if verdict.nullspace_dim == 0:
        got = sorted(float(x) for x in verdict.spectrum)
        assert len(got) == 16
        for g, p in zip(got, REFERENCE_GNS_SPECTRUM):
            assert abs(g - p) <= 0.01, f"{g} vs reference {p}"


def test_criterion_4_predicate_agreement():
    start = time.perf_counter()

    raw = sweep(200, seed=42)
    assert agreement_rate(raw) >= 0.99
    assert all(r.error is None for r in raw)

    projected = sweep(200, seed=42, project=True)
    assert agreement_rate(projected) == 1.0
    assert all(r.consistent for r in projected)

    # pinned at the transcendental point: both directions must be exact
    pin = (PI, E ** PI)
    pinned_on = sweep(40, seed=42, project=True, pin=pin)
    assert all(r.predicate and r.consistent for r in pinned_on)
    pinned_off = sweep(40, seed=42, pin=pin)
    assert all(not r.predicate and not r.consistent for r in pinned_off)

    assert time.perf_counter() - start < 1800.0  # 30 minute budget


def test_criterion_5_tracial_oracle():
    rng = np.random.default_rng(1234)
    passed = 0
    for trial in range(20):
        n = 2 + trial % 2
        state = DensityState.tracial(n)
        jumps = []
        for _ in range(rng.integers(1, 3)):
            V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            jumps += [(V, 0.0), (V.conj().T, 0.0)]
        verdict = decide(make_spec(state, jumps), 0.0, seed=trial)
        assert verdict.kind == FEASIBLE, f"trial {trial}: {verdict.kind}"
        passed += 1
    assert passed == 20


def test_criterion_6_structural_suite(preset_problems):
    rng = np.random.default_rng(4321)
    specs = [preset_problems[pid].spec for pid in ("2x2-gns", "3x3-kms")]
    specs.append(build_LY(LambdaPoint(0.7, 2.2),
                          YMatrix(np.full((3, 3), 0.5))))

    # bimodule action identities on random tensors
    for _ in range(10):
        n = 3
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = TensorElem(n, {tuple(rng.integers(0, n, 4)): complex(c)
                           for c in rng.standard_normal(4)})
        lr = left_act(A, right_act(t, B))
        rl = right_act(left_act(A, t), B)
        assert np.linalg.norm(lr.vector() - rl.vector()) <= 1e-12
        assoc = left_act(A @ B, t).vector() - left_act(A, left_act(B, t)).vector()
        assert np.linalg.norm(assoc) <= 1e-12

    for spec in specs:
        n = spec.n
        one = np.eye(n, dtype=complex)
        # L(1) = 0
        assert np.linalg.norm(lindblad_apply(spec, one)) <= 1e-12
        for _ in range(5):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            scale = max(1.0, np.linalg.norm(A), np.linalg.norm(B))
            # L(A*) = L(A)*
            star_gap = np.linalg.norm(lindblad_apply(spec, A.conj().T)
                                      - lindblad_apply(spec, A).conj().T)
            assert star_gap <= 1e-12 * scale
            # GNS self-adjointness
            gns_gap = abs(s_inner(spec.state, 0.0, lindblad_apply(spec, A), B)
                          - s_inner(spec.state, 0.0, A, lindblad_apply(spec, B)))
            assert gns_gap <= 1e-9 * scale ** 2
            # modular-group commutation
            p = float(rng.uniform(-1, 1))
            mod_gap = np.linalg.norm(
                lindblad_apply(spec, modular_conjugate(spec.state, A, p))
                - modular_conjugate(spec.state, lindblad_apply(spec, A), p))
            assert mod_gap <= 1e-10 * max(1.0, scale ** 2)
        assert gns_symmetry_check(spec, trials=20, seed=0) <= 1e-9

    # diagonal-jump split identity
    for abc in ((1.0, 2.0, 3.0), (0.25, -1.5, 0.75), (-3.0, 0.0, 3.0)):
        assert diag_jump_identity(*abc) <= 1e-12

    # Hermitian coordinates are an isometry
    for m2 in (4, 9, 16):
        Z = rng.standard_normal((m2, m2)) + 1j * rng.standard_normal((m2, m2))
        P = (Z + Z.conj().T) / 2
        Z = rng.standard_normal((m2, m2)) + 1j * rng.standard_normal((m2, m2))
        Q = (Z + Z.conj().T) / 2
        lhs = float(hermitian_encode(P) @ hermitian_encode(Q))
        rhs = float(np.trace(P @ Q).real)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # target rows evaluated at a certificate reproduce the target form
    for pid in ("2x2-gns", "2x2-kms"):
        problem = preset_problems[pid]
        verdict = decide(problem.spec, problem.s, seed=0)
        X = np.asarray(verdict.certificate)
        F = target_form(problem.spec, problem.s).F
        n = problem.spec.n
        for a, b in itertools.product(range(n * n), repeat=2):
            Qa = np.zeros((n, n), dtype=complex)
            Qa[a // n, a % n] = 1.0
            Qb = np.zeros((n, n), dtype=complex)
            Qb[b // n, b % n] = 1.0
            va = TensorElem.derivation_of(Qa).vector()
            vb = TensorElem.derivation_of(Qb.conj().T).vector()
            got = np.vdot(vb, X @ va)
            assert abs(got - F[a, b]) <= 1e-8, (pid, a, b)
