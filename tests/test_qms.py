"""States, modular action, s-inner products, and Lindblad generators."""

import math

import numpy as np
import pytest

from qmsderiv.qms import (DensityState, derive_omega, generator_matrix,
                          gns_symmetry_check, lindblad_apply, make_spec,
                          modular_conjugate, s_inner, validate_spec)

PI = math.pi

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def spec_2x2():
    state = DensityState.from_diagonal([(1 + 1 / PI) / 2, (1 - 1 / PI) / 2])
    w1 = -math.log((PI + 1) / (PI - 1))
    return make_spec(state, [(E12, w1), (E21, -w1)])


def spec_3x3():
    state = DensityState.from_diagonal([1.0, PI ** 2, math.e ** 2],
                                       normalize=True)
    w1 = -math.log(PI ** 2 / math.e ** 2)
    V = np.zeros((3, 3), dtype=complex)
    V[1, 2] = 1.0
    return make_spec(state, [(V, w1), (V.conj().T, -w1)])


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_modular_conjugate_tracial_is_identity():
    rng = np.random.default_rng(0)
    state = DensityState.tracial(3)
    A = random_matrix(rng, 3)
    for p in (-1.0, 0.3, 2.0):
        np.testing.assert_allclose(modular_conjugate(state, A, p), A,
                                   atol=1e-12)


def test_modular_conjugate_matrix_units():
    state = spec_2x2().state
    np.testing.assert_allclose(modular_conjugate(state, E12, 1.0),
                               ((PI + 1) / (PI - 1)) * E12, atol=1e-13)
    np.testing.assert_allclose(modular_conjugate(state, E21, 1.0),
                               ((PI - 1) / (PI + 1)) * E21, atol=1e-13)


def test_s_inner_normalization():
    state = spec_3x3().state
    one = np.eye(3, dtype=complex)
    for s in (0.0, 0.37, 0.5, 1.0):
        assert abs(s_inner(state, s, one, one) - 1.0) <= 1e-12


def test_s_inner_tracial_reduction():
    rng = np.random.default_rng(1)
    state = DensityState.tracial(3)
    A, B = random_matrix(rng, 3), random_matrix(rng, 3)
    expect = np.trace(B.conj().T @ A) / 3.0
    for s in (0.0, 0.5, 0.8):
        assert abs(s_inner(state, s, A, B) - expect) <= 1e-12


def test_s_inner_gns_value():
    state = spec_2x2().state
    got = s_inner(state, 0.0, E11, E11)
    assert abs(got - (1 + 1 / PI) / 2) <= 1e-14
    assert abs(got - 0.65915) <= 5e-6


@pytest.mark.parametrize("n,seed", [(2, 3), (3, 4)])
def test_s_inner_positive_definite(n, seed):
    rng = np.random.default_rng(seed)
    Z = random_matrix(rng, n)
    D = Z @ Z.conj().T + 0.1 * np.eye(n)
    state = DensityState.from_matrix(D / np.trace(D).real)
    for s in (0.0, 0.25, 0.5, 1.0):
        units = [np.eye(n, dtype=complex)[[i]].T @ np.eye(n, dtype=complex)[[j]]
                 for i in range(n) for j in range(n)]
        G = np.array([[s_inner(state, s, A, B) for A in units] for B in units])
        w = np.linalg.eigvalsh((G + G.conj().T) / 2)
        assert w[0] > 0


def test_derive_omega_matches_supplied():
    state = spec_2x2().state
    assert abs(derive_omega(state, E12)
               + math.log((PI + 1) / (PI - 1))) <= 1e-12
    # omitted omegas are recovered on make_spec
    spec = make_spec(state, [(E12, None), (E21, None)])
    assert validate_spec(spec).ok


def test_lindblad_unital():
    for spec in (spec_2x2(), spec_3x3()):
        L1 = lindblad_apply(spec, np.eye(spec.n, dtype=complex))
        assert np.linalg.norm(L1) <= 1e-12


def test_lindblad_diagonal_jump_oracle():
    # single self-adjoint diagonal jump, omega = 0, tracial state:
    # L(A)_kl = (v_k - v_l)^2 A_kl
    rng = np.random.default_rng(5)
    v = np.array([0.3, -1.1, 2.0])
    state = DensityState.tracial(3)
    spec = make_spec(state, [(np.diag(v).astype(complex), 0.0)])
    A = random_matrix(rng, 3)
    expect = (v[:, None] - v[None, :]) ** 2 * A
    np.testing.assert_allclose(lindblad_apply(spec, A), expect, atol=1e-12)


def test_lindblad_2x2_matrix_unit_oracle():
    spec = spec_2x2()
    got = lindblad_apply(spec, E11)
    expect = (2 * math.sqrt((PI - 1) / (PI + 1)) * E11
              - 2 * math.sqrt((PI + 1) / (PI - 1)) * E22)
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_lindblad_preserves_adjoints():
    rng = np.random.default_rng(6)
    for spec in (spec_2x2(), spec_3x3()):
        A = random_matrix(rng, spec.n)
        lhs = lindblad_apply(spec, A.conj().T)
        rhs = lindblad_apply(spec, A).conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1, np.linalg.norm(lhs))


def test_validate_spec_passes_presets():
    assert validate_spec(spec_2x2()).ok
    assert validate_spec(spec_3x3()).ok


def test_validate_spec_tracial_matrix_unit():
    state = DensityState.tracial(2)
    assert validate_spec(make_spec(state, [(E12, 0.0), (E21, 0.0)])).ok


def test_validate_spec_flags_missing_adjoint():
    state = DensityState.tracial(2)
    report = validate_spec(make_spec(state, [(E12, 0.0)]))
    assert not report.adjoint_closed
    assert not report.ok


@pytest.mark.parametrize("jumps", [
    [(E12, 0.0), ((1 + 5e-6) * E21, 0.0)],    # partner off V* by 5e-6
    [(E12 + (1 + 5e-6) * E21, 0.0)],          # V off Hermitian by 5e-6
])
def test_validate_spec_adjoint_test_is_absolute(jumps):
    # within 1e-12 max(1, ||V||), not within numpy's default rtol of 1e-5
    report = validate_spec(make_spec(DensityState.tracial(2), jumps))
    assert not report.adjoint_closed
    assert not report.ok


def test_validate_spec_flags_non_eigenvector():
    state = spec_2x2().state
    V = E11 + E12
    report = validate_spec(make_spec(state, [(V, 0.0), (V.conj().T, 0.0)]))
    assert not report.ok
    assert any("eigenvector" in m for m in report.messages)


def test_gns_symmetry_of_presets():
    assert gns_symmetry_check(spec_2x2()) <= 1e-9
    assert gns_symmetry_check(spec_3x3()) <= 1e-9


def test_gns_symmetry_zero_spec():
    spec = make_spec(DensityState.tracial(2), [])
    assert gns_symmetry_check(spec) == 0.0


def test_gns_symmetry_detects_corrupted_omega():
    good = spec_2x2()
    bad = make_spec(good.state, [(E12, good.jumps[0].omega + 0.3),
                                 (E21, -good.jumps[0].omega)])
    assert gns_symmetry_check(bad) > 1e-3


def test_modular_group_commutation():
    rng = np.random.default_rng(7)
    for spec in (spec_2x2(), spec_3x3()):
        for _ in range(5):
            p = rng.uniform(-1, 1)
            A = random_matrix(rng, spec.n)
            lhs = lindblad_apply(spec, modular_conjugate(spec.state, A, p))
            rhs = modular_conjugate(spec.state, lindblad_apply(spec, A), p)
            scale = max(1.0, np.linalg.norm(rhs))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_tracial_dirichlet_form_nonnegative():
    rng = np.random.default_rng(8)
    state = DensityState.tracial(3)
    for _ in range(10):
        V = random_matrix(rng, 3)
        spec = make_spec(state, [(V, 0.0), (V.conj().T, 0.0)])
        A = random_matrix(rng, 3)
        val = s_inner(state, 0.0, lindblad_apply(spec, A), A)
        assert val.real >= -1e-12 * max(1.0, abs(val))
        assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_matrix_matches_lindblad_apply(random_spec, n):
    spec = random_spec(20 + n, n)
    assert any(j.weight < 0 for j in spec.jumps)
    assert np.abs(spec.state.D - np.diag(np.diag(spec.state.D))).max() > 0.01
    S = generator_matrix(spec)
    rng = np.random.default_rng(n)
    for _ in range(3):
        A = random_matrix(rng, n)
        expect = lindblad_apply(spec, A)
        got = (S @ A.reshape(-1)).reshape(n, n)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
