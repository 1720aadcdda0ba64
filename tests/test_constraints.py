"""Bimodule actions, vectorization, target form, and system assembly."""

import itertools
import math

import numpy as np
import pytest

from qmsderiv import constraints
from qmsderiv.constraints import (ConstraintSystem, TensorElem, assemble,
                                  dump_system, left_act, psi_index, right_act,
                                  system_template, target_form)
from qmsderiv.errors import IndexOutOfRange, SizeCapExceeded
from qmsderiv.feasibility import decide, solve_affine
from qmsderiv.linalg import hermitian_decode, nullspace
from qmsderiv.qms import DensityState, lindblad_apply, make_spec, s_inner

PI = math.pi


def unit(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


@pytest.fixture(scope="module")
def gns_2x2(preset_problems):
    return preset_problems["2x2-gns"].spec


@pytest.fixture(scope="module")
def kms_3x3(preset_problems):
    return preset_problems["3x3-kms"].spec


@pytest.fixture(scope="module")
def hom_kernels():
    return {n: nullspace(system_template(n).hom) for n in (2, 3)}


def test_psi_index_matches_reference_formulas():
    for i, j, k, l in itertools.product(range(1, 3), repeat=4):
        assert psi_index(2, i, j, k, l) == 8 * i + 4 * k + 2 * j + l - 14
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        assert psi_index(3, i, j, k, l) == 27 * i + 9 * k + 3 * j + l - 39


def test_psi_index_is_bijection():
    for n in (2, 3):
        seen = {psi_index(n, i, j, k, l)
                for i, j, k, l in itertools.product(range(1, n + 1), repeat=4)}
        assert seen == set(range(1, n ** 4 + 1))


def test_psi_index_range_errors():
    with pytest.raises(IndexOutOfRange):
        psi_index(2, 0, 1, 1, 1)
    with pytest.raises(IndexOutOfRange):
        psi_index(3, 1, 1, 4, 1)


def test_tensor_elem_vector_positions():
    for n in (2, 3):
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            t = TensorElem.unit(n, i - 1, j - 1, k - 1, l - 1)
            v = t.vector()
            assert v[psi_index(n, i, j, k, l) - 1] == 1.0
            assert np.count_nonzero(v) == 1


def test_tensor_elem_cancellation():
    t = TensorElem.unit(2, 0, 0, 0, 0) + TensorElem.unit(2, 0, 0, 0, 0).scale(-1)
    assert t.terms == ()
    assert np.count_nonzero(t.vector()) == 0


def test_left_act_matrix_unit_oracle():
    # E11 (E12 (x) E21) = E12 (x) E21 - E11 (x) E11
    t = TensorElem.tensor(unit(2, 0, 1), unit(2, 1, 0))
    got = left_act(unit(2, 0, 0), t)
    expect = (TensorElem.tensor(unit(2, 0, 1), unit(2, 1, 0))
              + TensorElem.tensor(unit(2, 0, 0), unit(2, 0, 0)).scale(-1))
    assert got.terms == expect.terms


def test_left_act_kills_one_tensor_one():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    one = np.eye(2, dtype=complex)
    got = left_act(A, TensorElem.tensor(one, one))
    assert got.terms == ()


def test_right_act_unital():
    t = TensorElem.tensor(unit(2, 0, 1), unit(2, 1, 0))
    assert right_act(t, np.eye(2, dtype=complex)).terms == t.terms


def test_right_act_matrix_unit_oracle():
    # (E12 (x) E21) E12 = E12 (x) E22
    t = TensorElem.tensor(unit(2, 0, 1), unit(2, 1, 0))
    got = right_act(t, unit(2, 0, 1))
    assert got.terms == TensorElem.tensor(unit(2, 0, 1), unit(2, 1, 1)).terms


@pytest.mark.parametrize("seed", range(4))
def test_action_associativity_and_commutation(seed):
    rng = np.random.default_rng(10 + seed)
    n = 3
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = TensorElem(n, {tuple(rng.integers(0, n, size=4)): complex(c)
                       for c in rng.standard_normal(5)})
    # (AB) t = A (B t)
    lhs = left_act(A @ B, t)
    rhs = left_act(A, left_act(B, t))
    np.testing.assert_allclose(lhs.vector(), rhs.vector(), atol=1e-12)
    # t (AB) = (t A) B
    lhs = right_act(t, A @ B)
    rhs = right_act(right_act(t, A), B)
    np.testing.assert_allclose(lhs.vector(), rhs.vector(), atol=1e-12)
    # left and right actions commute
    lhs = left_act(A, right_act(t, B))
    rhs = right_act(left_act(A, t), B)
    np.testing.assert_allclose(lhs.vector(), rhs.vector(), atol=1e-12)


def test_target_form_zero_spec():
    spec = make_spec(DensityState.tracial(2), [])
    F = target_form(spec, 0.0).F
    assert np.all(F == 0)


def test_target_form_vanishes_on_identity(gns_2x2):
    # f(1, B) = 0 because L(1) = 0; the identity is the sum of diagonal units
    F = target_form(gns_2x2, 0.0).F
    n = gns_2x2.n
    diag_rows = [n * t + t for t in range(n)]
    np.testing.assert_allclose(F[diag_rows].sum(axis=0), 0, atol=1e-12)


def test_target_form_gns_oracle(gns_2x2):
    F = target_form(gns_2x2, 0.0).F
    expect = (1 + 1 / PI) * math.sqrt((PI - 1) / (PI + 1))  # = sqrt(pi^2-1)/pi
    assert abs(F[0, 0] - expect) <= 1e-13
    assert abs(expect - 0.94799) <= 5e-6


@pytest.mark.parametrize("pid,s", [("2x2-gns", 0.0), ("3x3-kms", 0.5)])
def test_target_form_is_s_inner_of_generator(preset_problems, pid, s):
    spec = preset_problems[pid].spec
    n = spec.n
    F = target_form(spec, s).F
    for a in range(n * n):
        for b in range(n * n):
            Qa = unit(n, a // n, a % n)
            Qb_star = unit(n, b // n, b % n).conj().T
            expect = s_inner(spec.state, s, lindblad_apply(spec, Qa), Qb_star)
            assert abs(F[a, b] - expect) <= 1e-12


def test_assemble_counts_2x2(gns_2x2):
    counts = assemble(gns_2x2, 0.0).counts
    raw = (counts["raw_complex_left"] + counts["raw_complex_right"]
           + counts["raw_complex_target"])
    assert raw == 2 * 4 ** 5 + 4 ** 2 == 2064
    assert counts["hom_rows_after_dedup"] == 568
    assert counts["rows_total"] == 600


def test_assemble_counts_3x3():
    counts = system_template(3).counts
    raw = (counts["raw_complex_left"] + counts["raw_complex_right"]
           + counts["raw_complex_target"])
    assert raw == 2 * 9 ** 5 + 9 ** 2 == 118179
    assert counts["hom_rows_after_dedup"] == 22464
    # pruning and dedup must strictly shrink the row count
    assert counts["hom_rows_after_dedup"] < (counts["nonzero_real_left"]
                                             + counts["nonzero_real_right"])


def test_assemble_zero_spec_is_homogeneous():
    spec = make_spec(DensityState.tracial(2), [])
    system = assemble(spec, 0.0)
    assert np.all(system.b == 0)
    assert system.residual_of(np.zeros(system.unknowns)) == 0.0


SYSTEM_COUNTS = {
    2: {"raw_complex_left": 1024, "raw_complex_right": 1024,
        "raw_complex_target": 16, "nonzero_real_left": 1676,
        "nonzero_real_right": 1264, "hom_rows_after_dedup": 568,
        "target_rows_real": 32, "rows_total": 600},
    3: {"raw_complex_left": 59049, "raw_complex_right": 59049,
        "raw_complex_target": 81, "nonzero_real_left": 88596,
        "nonzero_real_right": 61074, "hom_rows_after_dedup": 22464,
        "target_rows_real": 162, "rows_total": 22626},
}


@pytest.mark.parametrize("pid", ["2x2-gns", "3x3-kms"])
def test_system_counts_pinned(preset_problems, pid):
    problem = preset_problems[pid]
    system = assemble(problem.spec, problem.s)
    assert system.counts == SYSTEM_COUNTS[problem.spec.n]
    assert system.hom.shape == (system.counts["hom_rows_after_dedup"],
                                system.unknowns)


@pytest.mark.parametrize("n", [2, 3])
def test_hom_rows_unit_norm_and_distinct_up_to_sign(n):
    hom = system_template(n).hom
    np.testing.assert_allclose(np.sqrt(hom.multiply(hom).sum(axis=1)), 1.0,
                               atol=1e-15)
    seen = set()
    for r in range(hom.shape[0]):
        lo, hi = hom.indptr[r], hom.indptr[r + 1]
        data = hom.data[lo:hi] * np.sign(hom.data[lo])
        seen.add((hom.indices[lo:hi].tobytes(), data.tobytes()))
    assert len(seen) == hom.shape[0]


def test_hom_kernel_dimension(hom_kernels):
    for n, kernel in hom_kernels.items():
        assert kernel.shape == (n ** 4 - n ** 2 + 1, n ** 8)


def test_dedup_survives_key_collisions(monkeypatch):
    expect = system_template(2).hom
    monkeypatch.setattr(constraints, "_row_keys",
                        lambda R: np.zeros(R.shape[0], dtype=np.uint64))
    got = constraints._build_template(2).hom
    assert got.shape == expect.shape
    assert (got != expect).nnz == 0


def test_assemble_size_cap():
    spec = make_spec(DensityState.tracial(5), [])
    with pytest.raises(SizeCapExceeded):
        assemble(spec, 0.0)


def test_system_shape(gns_2x2):
    system = assemble(gns_2x2, 0.0)
    assert system.unknowns == 4 ** 4 == 256
    assert system.A.shape == (600, 256)
    assert system.b.shape == (600,)


def test_adjointability_roundtrip(preset_problems, hom_kernels):
    # every Hermitian X in the kernel of the action rows makes
    # <u,v> = v* X u a form with adjointable actions:
    # <A t, u> = <t, A* u> and <t A, u> = <t, u A*>
    rng = np.random.default_rng(11)
    for pid in ("2x2-gns", "3x3-kms"):
        problem = preset_problems[pid]
        n = problem.spec.n
        system = assemble(problem.spec, problem.s)
        sol = solve_affine(system)
        assert sol.consistent
        side = system.m ** 2
        Xs = [hermitian_decode(x, side)
              for x in (sol.x0_coords, *hom_kernels[n])]
        for _ in range(8):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t = TensorElem(n, {tuple(rng.integers(0, n, size=4)): complex(c)
                               for c in rng.standard_normal(3)})
            u = TensorElem(n, {tuple(rng.integers(0, n, size=4)): complex(c)
                               for c in rng.standard_normal(3)})
            As = A.conj().T
            moved = [(left_act(A, t), left_act(As, u)),
                     (right_act(t, A), right_act(u, As))]
            for X in Xs:
                scale = max(1.0, np.linalg.norm(X))
                for at, asu in moved:
                    lhs = np.vdot(u.vector(), X @ at.vector())
                    rhs = np.vdot(asu.vector(), X @ t.vector())
                    assert abs(lhs - rhs) <= 1e-8 * scale


def test_permuted_basis_same_consistency(gns_2x2, preset_problems):
    rng = np.random.default_rng(12)
    for pid in ("2x2-gns", "2x2-kms"):
        spec = preset_problems[pid].spec
        s = preset_problems[pid].s
        perm = list(rng.permutation(spec.n ** 2))
        base = solve_affine(assemble(spec, s))
        shuffled = solve_affine(assemble(spec, s, basis_perm=perm))
        assert base.consistent == shuffled.consistent
        assert base.dim == shuffled.dim


def test_dump_system_format(tmp_path, gns_2x2):
    system = assemble(gns_2x2, 0.0)
    path = tmp_path / "system.txt"
    dump_system(system, str(path))
    lines = path.read_text().splitlines()
    assert lines
    prev = (-1, -1)
    for line in lines:
        r, c, v = line.split()
        r, c = int(r), int(c)
        float(v)
        assert (r, c) > prev  # sorted by (row, col), no duplicates
        prev = (r, c)
    rhs = (tmp_path / "system.txt.rhs").read_text().splitlines()
    assert len(rhs) == np.count_nonzero(system.b)
    for line in rhs:
        idx, val = line.split()
        assert abs(system.b[int(idx)] - float(val)) <= 1e-16


def test_systems_share_the_template_and_differ_only_in_b(gns_2x2, monkeypatch):
    system = assemble(gns_2x2, 0.0)
    other = assemble(gns_2x2, 0.5)
    assert other.hom is system.hom is system_template(2).hom
    assert other.target is system.target is system_template(2).target
    assert not np.allclose(other.b, system.b)
    np.testing.assert_array_equal(other.b[:other.hom_row_count], 0.0)
    # deciding never stacks the full matrix
    monkeypatch.setattr(ConstraintSystem, "A", property(
        lambda self: pytest.fail("ConstraintSystem.A was built")))
    assert decide(gns_2x2, 0.0).kind == "FEASIBLE"


def test_residual_of_equals_the_stacked_residual(preset_problems):
    rng = np.random.default_rng(13)
    for problem in preset_problems.values():
        system = assemble(problem.spec, problem.s)
        for x in (solve_affine(system).x0_coords,
                  rng.standard_normal(system.unknowns)):
            assert system.residual_of(x) == np.linalg.norm(system.A @ x - system.b)
