"""Bimodule actions, vectorization, target form, the bimodule coordinates and
system assembly, checked against the X-space reference (tests/xspace.py)."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import xspace
from qmsderiv.constraints import (SystemTemplate, _intertwining_residual_sq,
                                  _tidx, assemble, clear_caches, dump_system,
                                  left_action, left_residual, psi_vector,
                                  right_action, system_template, target_form)
from qmsderiv.errors import SizeCapExceeded
from qmsderiv.feasibility import decide, solve_affine
from qmsderiv.linalg import hermitian_decode, hermitian_encode
from qmsderiv.problems import parse_problem
from qmsderiv.qms import DensityState, lindblad_apply, make_spec, s_inner
from xspace import nullspace

PI = math.pi


def scipy_csr(M):
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


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
    # the reference kernel: intertwining rows built from left_action/right_action
    return {n: nullspace(xspace.system_template(n).hom) for n in (2, 3)}


def random_tensor(rng, n, count):
    """psi-vector of count random multiples of random matrix-unit tensors,
    a later draw replacing an earlier one at the same position."""
    t = np.zeros(n ** 4, dtype=complex)
    for c in rng.standard_normal(count):
        t[_tidx(n, *rng.integers(0, n, size=4))] = c
    return t


def lifted(system, q):
    tpl = system.template
    return tpl.lift(tpl.matrix(q))


def test_psi_index_matches_reference_formulas():
    # psi(E_ij (x) E_kl) is the unit vector at n^3 i + n^2 k + n j + l
    for i, j, k, l in itertools.product(range(2), repeat=4):
        v = psi_vector(unit(2, i, j), unit(2, k, l))
        assert v[8 * i + 4 * k + 2 * j + l] == 1.0
    for i, j, k, l in itertools.product(range(3), repeat=4):
        v = psi_vector(unit(3, i, j), unit(3, k, l))
        assert v[27 * i + 9 * k + 3 * j + l] == 1.0


def test_psi_index_is_bijection():
    for n in (2, 3):
        seen = {int(np.flatnonzero(psi_vector(unit(n, i, j), unit(n, k, l)))[0])
                for i, j, k, l in itertools.product(range(n), repeat=4)}
        assert seen == set(range(n ** 4))


def test_tensor_elem_vector_positions():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for i, j, k, l in itertools.product(range(n), repeat=4):
            v = psi_vector(unit(n, i, j), unit(n, k, l))
            assert np.count_nonzero(v) == 1
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = psi_vector(A, B)
        for i, j, k, l in itertools.product(range(n), repeat=4):
            assert v[n ** 3 * i + n ** 2 * k + n * j + l] == A[i, j] * B[k, l]


def test_left_act_matrix_unit_oracle():
    # E11 (E12 (x) E21) = E12 (x) E21 - E11 (x) E11
    got = left_action(unit(2, 0, 0)) @ psi_vector(unit(2, 0, 1), unit(2, 1, 0))
    expect = (psi_vector(unit(2, 0, 1), unit(2, 1, 0))
              - psi_vector(unit(2, 0, 0), unit(2, 0, 0)))
    np.testing.assert_array_equal(got, expect)


def test_left_act_kills_one_tensor_one():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    one = np.eye(2, dtype=complex)
    got = left_action(A) @ psi_vector(one, one)
    np.testing.assert_array_equal(got, 0)


def test_right_act_unital():
    np.testing.assert_array_equal(right_action(np.eye(2)), np.eye(16))
    np.testing.assert_array_equal(right_action(np.eye(3)), np.eye(81))


def test_right_act_matrix_unit_oracle():
    # (E12 (x) E21) E12 = E12 (x) E22
    got = right_action(unit(2, 0, 1)) @ psi_vector(unit(2, 0, 1), unit(2, 1, 0))
    np.testing.assert_array_equal(got, psi_vector(unit(2, 0, 1), unit(2, 1, 1)))


def random_pair(rng, n):
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2)]


@pytest.mark.parametrize("seed", range(4))
def test_action_associativity_and_commutation(seed):
    A, B = random_pair(np.random.default_rng(10 + seed), 3)
    # (AB) t = A (B t) and t (AB) = (t A) B
    np.testing.assert_allclose(left_action(A @ B), left_action(A) @ left_action(B),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(right_action(A @ B), right_action(B) @ right_action(A),
                               rtol=0, atol=1e-12)
    # left and right actions commute
    np.testing.assert_allclose(left_action(A) @ right_action(B),
                               right_action(B) @ left_action(A), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_derivation_rule(n):
    # delta(A) = A (x) 1 satisfies delta(AB) = A delta(B) + delta(A) B
    A, B = random_pair(np.random.default_rng(20 + n), n)
    one = np.eye(n)
    rule = (left_action(A) @ psi_vector(B, one)
            + right_action(B) @ psi_vector(A, one))
    np.testing.assert_allclose(psi_vector(A @ B, one), rule, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("pid,s", [("2x2-gns", 0.0), ("3x3-kms", 0.5),
                                   ("random-3x3", 0.3)])
def test_target_form_is_s_inner_of_generator(preset_problems, random_spec,
                                             pid, s):
    spec = random_spec(7, 3) if pid == "random-3x3" else preset_problems[pid].spec
    n = spec.n
    F = target_form(spec, s).F
    for a in range(n * n):
        for b in range(n * n):
            Qa = unit(n, a // n, a % n)
            Qb_star = unit(n, b // n, b % n).conj().T
            expect = s_inner(spec.state, s, lindblad_apply(spec, Qa), Qb_star)
            assert abs(F[a, b] - expect) <= 1e-12


def test_assemble_counts_2x2(gns_2x2):
    # 2m matrix equations over X, m^2 complex target equations, which are
    # 2 m^2 real rows over the n^4 - n^2 + 1 coordinates q
    counts = assemble(gns_2x2, 0.0).template.counts
    assert counts["intertwining_equations"] == 2 * 4
    assert counts["target_equations"] == 4 ** 2
    assert counts["reduced_unknowns"] == 2 ** 4 - 2 ** 2 + 1 == 13
    assert counts["rows_total"] == 32
    # the reference's X-space rows: every one of its 2064 raw equations
    ref = xspace.system_template(2).counts
    raw = (ref["raw_complex_left"] + ref["raw_complex_right"]
           + ref["raw_complex_target"])
    assert raw == 2 * 4 ** 5 + 4 ** 2 == 2064
    assert ref["hom_rows_after_dedup"] == 568
    assert ref["rows_total"] == 600


def test_assemble_counts_3x3():
    counts = system_template(3).counts
    assert counts["reduced_unknowns"] == 3 ** 4 - 3 ** 2 + 1 == 73
    assert counts["rows_total"] == 2 * 9 ** 2 == 162
    ref = xspace.system_template(3).counts
    raw = (ref["raw_complex_left"] + ref["raw_complex_right"]
           + ref["raw_complex_target"])
    assert raw == 2 * 9 ** 5 + 9 ** 2 == 118179
    assert ref["hom_rows_after_dedup"] == 22464
    # pruning and dedup must strictly shrink the row count
    assert ref["hom_rows_after_dedup"] < (ref["nonzero_real_left"]
                                          + ref["nonzero_real_right"])


def test_assemble_zero_spec_is_homogeneous():
    spec = make_spec(DensityState.tracial(2), [])
    system = assemble(spec, 0.0)
    assert np.all(system.b_target == 0)
    assert system.residual_of(np.zeros(system.unknowns)) == 0.0


SYSTEM_COUNTS = {
    2: {"intertwining_equations": 8, "target_equations": 16,
        "reduced_unknowns": 13, "rows_total": 32},
    3: {"intertwining_equations": 18, "target_equations": 81,
        "reduced_unknowns": 73, "rows_total": 162},
}

# the X-space reference's counts
REFERENCE_COUNTS = {
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
    n = problem.spec.n
    system = assemble(problem.spec, problem.s)
    counts = system.template.counts
    assert counts == SYSTEM_COUNTS[n]
    assert system.A.shape == (counts["rows_total"], counts["reduced_unknowns"])
    ref = xspace.system_template(n)
    assert ref.counts == REFERENCE_COUNTS[n]
    assert ref.hom.shape == (ref.counts["hom_rows_after_dedup"], n ** 8)


@pytest.mark.parametrize("n", [2, 3])
def test_hom_rows_unit_norm_and_distinct_up_to_sign(n):
    hom = xspace.system_template(n).hom
    S = scipy_csr(hom)
    np.testing.assert_allclose(np.sqrt(S.multiply(S).sum(axis=1)), 1.0,
                               atol=1e-15)
    seen = set()
    for r in range(hom.shape[0]):
        lo, hi = hom.indptr[r], hom.indptr[r + 1]
        data = hom.data[lo:hi] * np.sign(hom.data[lo])
        seen.add((hom.indices[lo:hi].tobytes(), data.tobytes()))
    assert len(seen) == hom.shape[0]


# sha256 of indptr, indices (int64), data (float64) and shape (int64) of each
# template block; the blocks come from exact integer and sqrt(2) arithmetic,
# so the digests hold on every machine
TEMPLATE_DIGESTS = {
    (2, "hom"): "817c25aa85d90e81692384370820c2dfe3cd1f81d8e46d132a32569355cdc23e",
    (2, "target"): "3c8a4ef2191bf8f12994a37e10b0c8f8410dfc1c3d1abb514ca54db459c740e5",
    (2, "lift"): "53f8271d68c32307cce9d4f999ebb0b49a0a241b0ab77042e8e609826e1d9a72",
    (3, "hom"): "42331060b073fdd46e51d38122db857f9ce3ba06171a265bc6f85ae0c791e586",
    (3, "target"): "6fe5af8dab704360aaebe6272567d7fb80bbf1e57211f831c1a3fff5c274da9d",
    (3, "lift"): "e36fecd100b9d5434d5f4c71f74853ca7ef22e75baa7bb5cbf43768c68f4888d",
}


@pytest.mark.parametrize("n, block", sorted(TEMPLATE_DIGESTS))
def test_template_blocks_pinned(n, block):
    M = getattr(xspace.system_template(n), block)
    h = hashlib.sha256()
    for a, t in ((M.indptr, "<i8"), (M.indices, "<i8"), (M.data, "<f8"),
                 (M.shape, "<i8")):
        h.update(np.ascontiguousarray(a, dtype=t).tobytes())
    assert h.hexdigest() == TEMPLATE_DIGESTS[n, block]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_products_equal_scipy_bit_for_bit(n):
    # the reference kernel rests on these products
    tpl = xspace.system_template(n)
    for A, B in ((tpl.hom, tpl.lift), (tpl.target, tpl.lift)):
        got, expect = A @ B, scipy_csr(A) @ scipy_csr(B)
        assert got.shape == expect.shape
        # stored order included
        assert np.array_equal(got.indptr, expect.indptr)
        assert np.array_equal(got.indices, expect.indices)
        assert same_bits(got.data, expect.data)
    rng = np.random.default_rng(n)
    blocks = (tpl.hom, tpl.target, tpl.lift, tpl.hom_y, tpl.target_y)
    for A in blocks:
        for x in (rng.standard_normal(A.shape[1]),
                  rng.standard_normal((A.shape[1], 16))):
            assert same_bits(A @ x, scipy_csr(A) @ x)
    N = np.ascontiguousarray(nullspace(tpl.hom_y).T)
    assert same_bits(tpl.target_y @ N, scipy_csr(tpl.target) @ scipy_csr(tpl.lift) @ N)


def test_hom_kernel_dimension(hom_kernels):
    for n, kernel in hom_kernels.items():
        assert kernel.shape == (n ** 4 - n ** 2 + 1, n ** 8)
        assert system_template(n).unknowns == n ** 4 - n ** 2 + 1


@pytest.mark.parametrize("n", [2, 3])
def test_q_forms_span_the_reference_kernel(hom_kernels, n):
    # every lifted coordinate direction solves the reference's action rows,
    # and together they span its kernel: the concrete form loses nothing
    tpl = system_template(n)
    forms = np.array([hermitian_encode(tpl.lift(tpl.matrix(e)))
                      for e in np.eye(tpl.unknowns)])
    ref = xspace.system_template(n).hom
    assert max(np.linalg.norm(ref @ f) for f in forms) <= 1e-14
    kernel = hom_kernels[n]
    rank = n ** 4 - n ** 2 + 1
    for block in (forms, kernel, np.vstack([forms, kernel])):
        s = np.linalg.svd(block, compute_uv=False)
        assert np.count_nonzero(s > 1e-9 * s[0]) == rank


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_is_invertible(n):
    s = np.linalg.svd(system_template(n).T, compute_uv=False)
    assert s[-1] > 0.1 and s[0] / s[-1] < 10


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_actions_match_left_act_and_right_act(n):
    # the left residual in closed form, R_{E_pq} = I_{n^3} (x) E_qp, and the
    # summed residual, against the action matrices of the defining formulas
    rng = np.random.default_rng(40 + n)
    Z = rng.standard_normal((n ** 4,) * 2) + 1j * rng.standard_normal((n ** 4,) * 2)
    X = Z + Z.conj().T
    total = 0.0
    for p, q in itertools.product(range(n), repeat=2):
        a, a_star = unit(n, p, q), unit(n, q, p)
        L, L_star = left_action(a), left_action(a_star)
        R, R_star = right_action(a), right_action(a_star)
        EL = X @ L - L_star.T @ X
        np.testing.assert_allclose(left_residual(X, n, p, q), EL, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(R, np.kron(np.eye(n ** 3), a_star))
        total += np.vdot(EL, EL).real + np.linalg.norm(X @ R - R_star.T @ X) ** 2
    assert _intertwining_residual_sq(X, n) == pytest.approx(total, rel=1e-12)


def test_hom_kernel_is_trivial_on_the_last_factor(hom_kernels):
    # every solution of the action rows is X = Y (x) I_n: it commutes with
    # I_{n^3} (x) G for any G, so the lift loses no kernel direction
    rng = np.random.default_rng(14)
    for n, kernel in hom_kernels.items():
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = np.kron(np.eye(n ** 3), G)
        for x in kernel:
            X = hermitian_decode(x, n ** 4)
            gap = np.linalg.norm(X @ C - C @ X)
            assert gap <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(C)
        tpl = xspace.system_template(n)
        reduced = nullspace(tpl.hom @ tpl.lift)
        assert reduced.shape == (kernel.shape[0], n ** 6)
    assert [len(hom_kernels[n]) for n in (2, 3)] == [13, 73]


def test_lift_has_orthonormal_columns():
    for n in (2, 3):
        E = scipy_csr(xspace.system_template(n).lift)
        assert E.shape == (n ** 8, n ** 6)
        assert abs(E.T @ E - np.eye(n ** 6)).max() <= 1e-15


def test_dedup_survives_key_collisions(monkeypatch):
    expect = xspace.system_template(2).hom
    monkeypatch.setattr(xspace, "_row_keys",
                        lambda R: np.zeros(R.shape[0], dtype=np.uint64))
    got = xspace._build_template(2).hom
    assert got.shape == expect.shape
    assert (scipy_csr(got) != scipy_csr(expect)).nnz == 0


def test_assemble_size_cap():
    spec = make_spec(DensityState.tracial(6), [])
    with pytest.raises(SizeCapExceeded):
        assemble(spec, 0.0)


def test_system_shape(gns_2x2):
    system = assemble(gns_2x2, 0.0)
    assert system.unknowns == 4 ** 4 == 256
    assert system.A.shape == (32, 13)
    assert system.b_target.shape == (32,)


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
        Xs = [lifted(system, q) for q in (sol.q0_coords, *sol.basis_array)]
        Xs += [hermitian_decode(x, side) for x in hom_kernels[n]]
        for _ in range(8):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t, u = random_tensor(rng, n, 3), random_tensor(rng, n, 3)
            As = A.conj().T
            moved = [(left_action(A) @ t, left_action(As) @ u),
                     (right_action(A) @ t, right_action(As) @ u)]
            for X in Xs:
                scale = max(1.0, np.linalg.norm(X))
                for at, asu in moved:
                    lhs = np.vdot(u, X @ at)
                    rhs = np.vdot(asu, X @ t)
                    assert abs(lhs - rhs) <= 1e-8 * scale


def test_permuted_basis_same_consistency(preset_table, preset_problems, relabel):
    # renaming the levels permutes the matrix-unit basis
    for pid, preset in preset_table.items():
        p = preset_problems[pid]
        renamed = parse_problem(relabel(preset.problem, np.roll(np.arange(p.spec.n), 1)))
        base = assemble(p.spec, p.s)
        shuffled = assemble(renamed.spec, renamed.s)
        assert (np.linalg.norm(shuffled.b_target)
                == pytest.approx(np.linalg.norm(base.b_target)))
        base, shuffled = solve_affine(base), solve_affine(shuffled)
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
    assert len(rhs) == np.count_nonzero(system.b_target)
    for line in rhs:
        idx, val = line.split()
        assert abs(system.b_target[int(idx)] - float(val)) <= 1e-16


def test_systems_share_the_template_and_differ_only_in_b(gns_2x2, monkeypatch):
    system = assemble(gns_2x2, 0.0)
    other = assemble(gns_2x2, 0.5)
    assert other.template is system.template is system_template(2)
    assert other.G is system.G is system_template(2).G
    assert not np.allclose(other.b_target, system.b_target)
    assert other.hom_row_count == 0
    # deciding never stacks the full matrix, through ConstraintSystem.A or
    # the template
    monkeypatch.setattr(SystemTemplate, "G_csr", property(
        lambda self: pytest.fail("SystemTemplate.G_csr was built")))
    assert decide(gns_2x2, 0.0).kind == "FEASIBLE"


def test_the_template_holds_the_stacked_matrix(gns_2x2):
    system, other = assemble(gns_2x2, 0.0), assemble(gns_2x2, 0.5)
    assert system.A is other.A is system_template(2).G_csr
    assert system.A.nnz == np.count_nonzero(system.G)
    assert not system.A.data.flags.writeable
    clear_caches()
    assert assemble(gns_2x2, 0.0).A is not system.A


def test_residual_of_equals_the_stacked_residual(preset_problems):
    # a lifted point satisfies the intertwining equations, and the target
    # rows are its target equations: its residual over X is ||A q - b||
    rng = np.random.default_rng(13)
    for problem in preset_problems.values():
        system = assemble(problem.spec, problem.s)
        G = np.zeros(system.A.shape)
        G[system.A.entry_rows, system.A.indices] = system.A.data
        for q in (solve_affine(system).q0_coords,
                  rng.standard_normal(system.template.unknowns)):
            X = lifted(system, q)
            expect = np.linalg.norm(G @ q - system.b_target)
            assert abs(system.matrix_residual(X) - expect) <= 1e-12 * max(1.0, expect)
            assert system.residual_of(hermitian_encode(X)) == pytest.approx(
                system.matrix_residual(X), rel=1e-9, abs=1e-14)
        Z = rng.standard_normal((system.m ** 2,) * 2)
        assert system.matrix_residual(Z + Z.T) > 1.0     # not a form of the bimodule
