"""Affine solution sets, PSD search, witnesses, and verdicts."""

import json
import math

import numpy as np
import pytest

from qmsderiv.constraints import assemble
from qmsderiv.errors import DimensionMismatch
from qmsderiv.feasibility import (AffineSolutionSet, EXIT_CODES, FEASIBLE,
                                  INDETERMINATE, NOT_CONSISTENT, NOT_PSD,
                                  decide, psd_search, solve_affine,
                                  witness_check, witness_hunt)
from qmsderiv.linalg import hermitian_encode
from qmsderiv.qms import DensityState, make_spec

PI = math.pi
E = math.e

GNS_2X2_SPECTRUM = [1.96, 1.96, 0.96, 0.96, 0.64, 0.64, 0.31, 0.31,
                    0.07, 0.07, 0.07, 0.07, 0, 0, 0, 0]
KMS_2X2_SPECTRUM = [1.44, 1.44, 1.44, 1.44, 0.47, 0.47, 0.47, 0.47,
                    0.03, 0.03, 0.03, 0.03, 0, 0, 0, 0]


@pytest.fixture(scope="module")
def systems(preset_problems):
    return {pid: assemble(p.spec, p.s) for pid, p in preset_problems.items()}


@pytest.fixture(scope="module")
def solutions(systems):
    return {pid: solve_affine(sys) for pid, sys in systems.items()}


@pytest.fixture(scope="module")
def verdicts(preset_problems):
    return {pid: decide(p.spec, p.s, seed=0)
            for pid, p in preset_problems.items()}


def known_witness_vector():
    # psi(E12 (x) E22 + E13 (x) E32) for n = 3, zero-based layout
    v = np.zeros(81, dtype=complex)
    v[27 * 0 + 9 * 1 + 3 * 1 + 1] = 1.0  # E12 (x) E22
    v[27 * 0 + 9 * 2 + 3 * 2 + 1] = 1.0  # E13 (x) E32
    return v


def known_witness_value():
    return -(E ** 2 + 2 * E * (PI - 1) + PI * (PI - 2)) / (1 + PI ** 2 + E ** 2)


def test_exit_codes_table():
    assert EXIT_CODES == {FEASIBLE: 0, NOT_CONSISTENT: 10, NOT_PSD: 11,
                          INDETERMINATE: 12}


def test_2x2_verdicts_feasible(verdicts):
    for pid, spectrum in (("2x2-gns", GNS_2X2_SPECTRUM),
                          ("2x2-kms", KMS_2X2_SPECTRUM)):
        v = verdicts[pid]
        assert v.kind == FEASIBLE
        assert v.exit_code == 0
        assert v.nullspace_dim == 0
        got = np.sort(np.asarray(v.spectrum))
        np.testing.assert_allclose(got, np.sort(spectrum), atol=0.01)


def test_2x2_certificates_verify_from_raw_system(systems, verdicts):
    for pid in ("2x2-gns", "2x2-kms"):
        v = verdicts[pid]
        system = systems[pid]
        X = np.asarray(v.certificate)
        coords = hermitian_encode(X)
        assert system.residual_of(coords) <= system.residual_bound(1e-8)
        w = np.linalg.eigvalsh(X)
        assert w[0] >= -1e-9 * max(1.0, np.linalg.norm(X))


def test_3x3_gns_not_consistent(solutions, verdicts):
    v = verdicts["3x3-gns"]
    assert v.kind == NOT_CONSISTENT
    assert v.exit_code == 10
    sol = solutions["3x3-gns"]
    assert not sol.consistent
    # far above the bound even when the unit-norm rows count toward it
    A, b = sol.system.A, sol.system.b
    frobenius = float(np.sqrt((A.data ** 2).sum()))
    assert sol.residual > 1e-8 * max(1.0, frobenius, float(np.linalg.norm(b)))


def test_3x3_kms_not_psd(verdicts):
    v = verdicts["3x3-kms"]
    assert v.kind == NOT_PSD
    assert v.exit_code == 11
    assert v.witness_value < -1e-6
    assert v.witness_coupling <= 1e-8


def test_3x3_kms_witness_revalidates(solutions, verdicts):
    v = verdicts["3x3-kms"]
    value, coupling = witness_check(solutions["3x3-kms"],
                                    np.asarray(v.witness_vector))
    assert abs(value - v.witness_value) <= 1e-10
    assert coupling <= 1e-8


def test_known_witness_vector_value(solutions):
    sol = solutions["3x3-kms"]
    assert sol.consistent
    value, coupling = witness_check(sol, known_witness_vector())
    assert abs(value - known_witness_value()) <= 1e-6
    assert coupling <= 1e-8


def test_witness_check_trivial_solution_set(systems):
    system = systems["2x2-gns"]
    sol = AffineSolutionSet(system, np.zeros(system.unknowns),
                            np.zeros((0, system.unknowns)), 0.0, True, {})
    value, coupling = witness_check(sol, np.ones(16, dtype=complex))
    assert value == 0.0
    assert coupling == 0.0


def test_witness_check_dimension_error(solutions):
    with pytest.raises(DimensionMismatch):
        witness_check(solutions["3x3-kms"], np.ones(5, dtype=complex))


def test_solution_set_membership(solutions):
    sol = solutions["3x3-kms"]
    rng = np.random.default_rng(21)
    system = sol.system
    B = sol.basis_array
    for _ in range(5):
        x = sol.x0_coords + B.T @ rng.standard_normal(B.shape[0])
        assert system.residual_of(x) <= sol.residual + system.residual_bound(1e-8)
    # min-norm particular solution is orthogonal to the solution subspace
    if len(B):
        assert np.max(np.abs(B @ sol.x0_coords)) <= 1e-8


def test_nullspace_dims_frozen(solutions):
    assert solutions["2x2-gns"].dim == 0
    assert solutions["2x2-kms"].dim == 0
    assert solutions["3x3-gns"].dim == 20
    assert solutions["3x3-kms"].dim == 20


def test_psd_search_independent_of_basis_choice(solutions):
    # restarts may depend on the solution space, not on the basis chosen for it
    sol = solutions["3x3-kms"]
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((sol.dim,) * 2))
    rotated = AffineSolutionSet(sol.system, sol.x0_coords, Q @ sol.basis_array,
                                sol.residual, sol.consistent, sol.diagnostics)
    base, turned = psd_search(sol), psd_search(rotated)
    assert turned.kind == base.kind
    assert turned.diagnostics["iterations"] == base.diagnostics["iterations"]


def test_witness_hunt_deterministic(solutions):
    sol = solutions["3x3-kms"]
    first = witness_hunt(sol)
    second = witness_hunt(sol)
    assert first is not None and second is not None
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_witness_hunt_finds_nothing_on_feasible(solutions):
    assert witness_hunt(solutions["2x2-gns"]) is None
    assert witness_hunt(solutions["2x2-kms"]) is None


def test_psd_search_requires_consistency(solutions):
    with pytest.raises(DimensionMismatch):
        psd_search(solutions["3x3-gns"])


def test_zero_generator_feasible():
    spec = make_spec(DensityState.tracial(2), [])
    v = decide(spec, 0.0)
    assert v.kind == FEASIBLE
    assert v.residual <= 1e-12
    assert np.linalg.norm(np.asarray(v.certificate)) <= 1e-10


def test_tracial_random_instances_feasible():
    rng = np.random.default_rng(30)
    for trial in range(6):
        n = 2 if trial % 2 == 0 else 3
        state = DensityState.tracial(n)
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spec = make_spec(state, [(V, 0.0), (V.conj().T, 0.0)])
        verdict = decide(spec, 0.0, seed=trial)
        assert verdict.kind == FEASIBLE, f"trial {trial} gave {verdict.kind}"


def test_scale_equivariance(preset_problems, verdicts):
    spec = preset_problems["2x2-gns"].spec
    c = 1.3
    scaled = make_spec(spec.state,
                       [(c * j.V, j.omega, j.weight) for j in spec.jumps])
    verdict = decide(scaled, 0.0, seed=0)
    assert verdict.kind == verdicts["2x2-gns"].kind == FEASIBLE
    # |c|^2-scaled certificate still solves the scaled system
    system = assemble(scaled, 0.0)
    X = np.asarray(verdicts["2x2-gns"].certificate) * c ** 2
    assert system.residual_of(hermitian_encode(X)) <= system.residual_bound(1e-8)


def test_basis_permutation_equivariance(preset_problems, verdicts):
    rng = np.random.default_rng(31)
    for pid in ("2x2-gns", "2x2-kms", "3x3-gns"):
        p = preset_problems[pid]
        perm = list(rng.permutation(p.spec.n ** 2))
        shuffled = decide(p.spec, p.s, seed=0, basis_perm=perm)
        assert shuffled.kind == verdicts[pid].kind


def test_verdict_serializes_to_json(verdicts):
    for pid, v in verdicts.items():
        doc = json.loads(json.dumps(v.as_dict()))
        assert doc["kind"] == v.kind
        assert "residual" in doc and "nullspace_dim" in doc
        assert "seed" in doc and "tolerances" in doc
        if v.kind == FEASIBLE:
            assert "certificate" in doc and "spectrum" in doc
        if v.kind == NOT_PSD:
            w = doc["witness"]
            assert set(w) == {"vector", "value", "coupling"}


def test_solve_affine_diagnostics(solutions):
    diag = solutions["3x3-kms"].diagnostics
    for key in ("hom_kernel_dim", "target_rank", "solution_dim",
                "hom_residual"):
        assert key in diag
