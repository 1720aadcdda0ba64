"""Affine solution sets, PSD search, witnesses, and verdicts."""

import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmsderiv.cli import main
from qmsderiv.constraints import (DEFAULT_SIZE_CAP, assemble, clear_caches,
                                  system_template)
import qmsderiv.feasibility as feasibility
from qmsderiv.errors import DimensionMismatch, ToolError
from qmsderiv.feasibility import (DEFAULT_PSD_TOL, AffineSolutionSet,
                                  EXIT_CODES, FEASIBLE, INDETERMINATE,
                                  NOT_CONSISTENT, NOT_PSD, decide, is_witness,
                                  psd_search, solve_affine, verdict_for,
                                  witness_check, witness_hunt)
from qmsderiv.linalg import DEFAULT_RANK_TOL, herm_eig, hermitian_encode
from qmsderiv.problems import parse_problem
from qmsderiv.qms import DensityState, make_spec

PI = math.pi
E = math.e

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checker  # noqa: E402
import gen  # noqa: E402
from generic import generic_corpus  # noqa: E402
from test_cli import chain_problem  # noqa: E402

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
    return {pid: decide(p.spec, p.s) for pid, p in preset_problems.items()}


def lifted(sol, q):
    tpl = sol.system.template
    return tpl.lift(tpl.matrix(q))


def known_witness_vector():
    # psi(E12 (x) E22 + E13 (x) E32) for n = 3, zero-based layout
    v = np.zeros(81, dtype=complex)
    v[27 * 0 + 9 * 1 + 3 * 1 + 1] = 1.0  # E12 (x) E22
    v[27 * 0 + 9 * 2 + 3 * 2 + 1] = 1.0  # E13 (x) E32
    return v


def known_witness_value():
    return -(E ** 2 + 2 * E * (PI - 1) + PI * (PI - 2)) / (1 + PI ** 2 + E ** 2)


def tracial3_doc():
    """A tracial n = 3 problem: two seeded jump pairs (V, V*) at omega = 0."""
    rng = np.random.default_rng(5)
    jumps = []
    for _ in range(2):
        V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        jumps += [{"V": [[[z.real, z.imag] for z in row] for row in M], "omega": 0.0}
                  for M in (V, V.conj().T)]
    return {"n": 3, "density": {"diag": [1 / 3] * 3}, "jumps": jumps, "s": 0.0}


def scaled_doc(doc, c):
    """doc with its generator multiplied by c: every jump weight times c."""
    return {**doc, "jumps": [{**j, "weight": c * j.get("weight", 1.0)}
                             for j in doc["jumps"]]}


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
        assert w[0] >= -1e-9 * np.linalg.norm(X)


def test_3x3_gns_not_consistent(solutions, verdicts):
    v = verdicts["3x3-gns"]
    assert v.kind == NOT_CONSISTENT
    assert v.exit_code == 10
    sol = solutions["3x3-gns"]
    assert not sol.consistent
    # far above the bound even when the unit-norm rows count toward it
    A, b = sol.system.A, sol.system.b_target
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
    reduced = system.template.unknowns
    sol = AffineSolutionSet(system, np.zeros(reduced), np.zeros((0, reduced)),
                            0.0)
    value, coupling = witness_check(sol, np.ones(16, dtype=complex))
    assert value == 0.0
    assert coupling == 0.0


def test_witness_check_dimension_error(solutions):
    with pytest.raises(DimensionMismatch):
        witness_check(solutions["3x3-kms"], np.ones(5, dtype=complex))


def test_witness_check_takes_any_vector_of_x_space(solutions):
    # v need not be a lifted u (x) e_1: its form is read through T v, and
    # equals v* X v and v* N_k v computed on the lifted matrices
    rng = np.random.default_rng(22)
    for pid in ("2x2-gns", "3x3-kms", "3x3-gns"):
        sol = solutions[pid]
        side = sol.side
        X0 = lifted(sol, sol.q0_coords)
        Ns = [lifted(sol, b) for b in sol.basis_array]
        for _ in range(3):
            v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
            v /= np.linalg.norm(v)
            value, coupling = witness_check(sol, v)
            assert abs(value - (v.conj() @ X0 @ v).real) <= 1e-12
            brute = max((abs(v.conj() @ N @ v) for N in Ns), default=0.0)
            assert abs(coupling - brute) <= 1e-12


def test_solution_set_membership(solutions):
    sol = solutions["3x3-kms"]
    rng = np.random.default_rng(21)
    system = sol.system
    B = sol.basis_array
    for _ in range(5):
        X = lifted(sol, sol.q0_coords + B.T @ rng.standard_normal(B.shape[0]))
        assert system.matrix_residual(X) <= sol.residual + system.residual_bound(1e-8)
    # min-norm particular solution is orthogonal to the solution subspace
    if len(B):
        assert np.max(np.abs(B @ sol.q0_coords)) <= 1e-8


def test_nullspace_dims_frozen(solutions):
    assert solutions["2x2-gns"].dim == 0
    assert solutions["2x2-kms"].dim == 0
    assert solutions["3x3-gns"].dim == 20
    assert solutions["3x3-kms"].dim == 20


def test_psd_search_independent_of_basis_choice(solutions):
    # the decision at q0 depends on the solution set, not on its basis
    sol = solutions["3x3-kms"]
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((sol.dim,) * 2))
    rotated = AffineSolutionSet(sol.system, sol.q0_coords, Q @ sol.basis_array,
                                sol.residual)
    base, turned = psd_search(sol), psd_search(rotated)
    assert turned.kind == base.kind
    assert abs(turned.diagnostics["cone_gap"]
               - base.diagnostics["cone_gap"]) <= 1e-6


def test_psd_search_climbs_from_a_shifted_base_point(solutions):
    # the same affine set written from another point: the set moves back to
    # its min-norm q0, and the verdict and witness are those of the original
    sol = solutions["3x3-kms"]
    B = sol.basis_array
    point = sol.q0_coords + 0.5 * (B[0] + B[1])
    shifted = AffineSolutionSet(sol.system, point, B, sol.residual)
    gap = psd_search(sol).diagnostics["cone_gap"]
    assert herm_eig(sol.system.template.matrix(point))[0][0] < gap - 0.01
    np.testing.assert_allclose(shifted.q0_coords, sol.q0_coords, atol=1e-12)
    verdict = psd_search(shifted)
    assert verdict.kind == NOT_PSD
    assert verdict.diagnostics["stop"] == "x0_witness"
    assert abs(verdict.diagnostics["cone_gap"] - gap) <= 1e-6
    assert verdict.witness_coupling <= 1e-8


def test_psd_search_climbs_back_to_a_certificate():
    # tracial3's solution set written from q0 + t B[0], with t large enough
    # that Q is not PSD there: the set moves back to its min-norm q0, which
    # is certified over X
    problem = parse_problem(tracial3_doc())
    sol = solve_affine(assemble(problem.spec, problem.s))
    B = sol.basis_array
    point = sol.q0_coords + 3.0 * B[0]
    shifted = AffineSolutionSet(sol.system, point, B, sol.residual)
    assert herm_eig(sol.system.template.matrix(point))[0][0] < -0.1
    verdict = psd_search(shifted)
    assert verdict.kind == FEASIBLE
    assert verdict.diagnostics["stop"] == "x0_certificate"
    system = sol.system
    assert system.matrix_residual(verdict.certificate) <= system.residual_bound(1e-8)


def test_no_point_of_the_set_beats_q0():
    # the fact that lets psd_search decide at q0: on generator data q0 is
    # J-even, so no point q0 + B^T t has a larger least eigenvalue
    rng = np.random.default_rng(16)
    for doc in (gen.presets()[3].doc, gen.pinned_kms().doc, tracial3_doc()):
        problem = parse_problem(doc)
        sol = solve_affine(assemble(problem.spec, problem.s))
        tpl, q0, B = sol.system.template, sol.q0_coords, sol.basis_array
        scale = np.linalg.norm(q0)
        top = herm_eig(tpl.matrix(q0))[0][0] + 1e-12 * scale
        for radius in (1e-6, 1e-3, 0.1, 1.0, 10.0):
            for _ in range(40):
                t = rng.standard_normal(sol.dim)
                q = q0 + (radius * scale / np.linalg.norm(t)) * (B.T @ t)
                assert herm_eig(tpl.matrix(q))[0][0] <= top, (doc["n"], radius)


def solved(doc):
    problem = parse_problem(doc)
    return solve_affine(assemble(problem.spec, problem.s))


def guard_residual(sol):
    """||G Jq0 - b||, J the template's transposition-conjugation."""
    system = sol.system
    return np.linalg.norm(system.G @ system.template.conjugate(sol.q0_coords)
                          - system.b_target)


@pytest.mark.parametrize("n", range(2, DEFAULT_SIZE_CAP + 1))
def test_conjugation_is_a_signed_permutation_and_the_kernel_is_odd(n):
    sol = solved(chain_problem(n))
    tpl = sol.system.template
    J = np.array([tpl.conjugate(e) for e in np.eye(tpl.unknowns)]).T
    assert set(np.unique(J)) <= {-1.0, 0.0, 1.0}
    assert (np.count_nonzero(J, axis=0) == 1).all()
    assert (np.count_nonzero(J, axis=1) == 1).all()
    np.testing.assert_array_equal(J @ J, np.eye(tpl.unknowns))
    # an antiunitary congruence: Q2 -> conj(Q2), and Q's spectrum is kept
    q = np.random.default_rng(n).standard_normal(tpl.unknowns)
    Q, JQ = tpl.matrix(q), tpl.matrix(tpl.conjugate(q))
    np.testing.assert_array_equal(JQ[-n:, -n:], Q[-n:, -n:].conj())
    np.testing.assert_allclose(np.linalg.eigvalsh(JQ), np.linalg.eigvalsh(Q),
                               atol=1e-12)
    for N in sol.basis_array:
        assert np.linalg.norm(tpl.conjugate(N) + N) <= 1e-13


@pytest.mark.parametrize("doc", [
    gen.presets()[3].doc, gen.pinned_kms().doc, tracial3_doc(), chain_problem(4)],
    ids=["3x3-kms", "pinned", "tracial3", "chain4"])
def test_q0_is_even_on_generator_data(doc):
    sol = solved(doc)
    q0 = sol.q0_coords
    assert sol.dim > 0
    assert (np.linalg.norm(sol.system.template.conjugate(q0) - q0)
            <= 1e-12 * np.linalg.norm(q0))
    assert guard_residual(sol) <= sol.consistency_bound


@pytest.fixture(scope="module")
def generic_decisions():
    # seed 1 gives 110 FEASIBLE, 129 NOT_CONSISTENT, 59 NOT_PSD and
    # 2 INDETERMINATE, both at n = 3 with a degenerate density
    out = []
    for case in generic_corpus(1):
        sol = solved(case.doc)
        out.append((case.name, sol, verdict_for(sol)))
    return out


def test_generic_corpus_is_undecided_only_where_the_guard_fails(
        generic_decisions):
    kinds = [v.kind for _, _, v in generic_decisions]
    assert set(kinds) == {FEASIBLE, NOT_CONSISTENT, NOT_PSD, INDETERMINATE}
    assert kinds.count(INDETERMINATE) == 2
    for name, sol, verdict in generic_decisions:
        if not sol.consistent:
            continue
        guard = guard_residual(sol)
        if sol.dim == 0 or guard <= sol.consistency_bound:
            assert verdict.kind != INDETERMINATE, name
        if verdict.kind == INDETERMINATE:
            diag = verdict.diagnostics
            assert diag["stop"] == "x0_undecided", name
            assert diag["symmetry_residual"] > diag["consistency_bound"], name
            assert abs(diag["symmetry_residual"] - guard) <= 1e-12 * guard, name


def test_generic_corpus_evidence_passes_its_checks(generic_decisions):
    for name, sol, verdict in generic_decisions:
        system = sol.system
        if verdict.kind == FEASIBLE:
            assert (system.matrix_residual(verdict.certificate)
                    <= system.residual_bound(1e-8)), name
        elif verdict.kind == NOT_PSD:
            value, coupling = witness_check(sol, verdict.witness_vector)
            assert is_witness(value, coupling, np.linalg.norm(sol.q0_coords)), name


def test_degenerate_density_is_undecided_and_says_why():
    # density proportional to diag(1, 1, 3.5), the pair E12 / E21 at
    # omega = 0 and s = 0: q0 is not J-even, so it need not maximise
    # lambda_min, and no eigenvector of Q0 is a witness
    d = np.array([1.0, 1.0, 3.5]) / 5.5
    E12 = np.zeros((3, 3), dtype=complex)
    E12[0, 1] = 1.0
    doc = gen.problem_doc(np.diag(d).astype(complex),
                          [(E12, 0.0, 1.0), (E12.T.copy(), 0.0, 1.0)], 0.0)
    problem = parse_problem(doc)
    report = decide(problem.spec, problem.s).as_dict()
    diag = report["diagnostics"]
    assert report["kind"] == INDETERMINATE
    assert diag["stop"] == "x0_undecided"
    assert abs(diag["cone_gap"] - (-0.07576)) <= 1e-5
    assert diag["symmetry_residual"] > 1e6 * diag["consistency_bound"]
    assert "certificate" not in report and "witness" not in report


def test_psd_search_cone_gap_bounds_the_witness(verdicts):
    # weak duality: a unit u's value u* Q u is at least the largest
    # lambda_min of Q over the solution set, which the search reports as its
    # cone gap; the lifted witness v has T v = u (x) e_1 and v* X v = u* Q u
    v = verdicts["3x3-kms"]
    gap = v.diagnostics["cone_gap"]
    assert abs(gap - (-0.2067)) <= 1e-4
    u = v.reduced_witness
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert v.witness_value >= gap - 1e-8
    w = v.template.T @ v.witness_vector
    np.testing.assert_allclose(w[[0, 9, 18, 27, 36, 45, 54, 63]], u[:8], atol=1e-14)
    np.testing.assert_allclose(w[[72, 75, 78]], u[8:], atol=1e-14)
    mask = np.ones(81, dtype=bool)
    mask[[0, 9, 18, 27, 36, 45, 54, 63, 72, 75, 78]] = False
    assert np.abs(w[mask]).max() <= 1e-14


def test_psd_search_stops_at_a_witness(verdicts):
    # the least eigenvector of Q0 is a witness at 3x3-kms
    v = verdicts["3x3-kms"]
    assert v.diagnostics["stop"] == "x0_witness"
    assert "symmetry_residual" not in v.diagnostics
    assert v.witness_coupling <= 1e-8


def test_stop_reasons_of_the_presets(verdicts):
    assert verdicts["2x2-gns"].diagnostics["stop"] == "x0_certificate"
    assert verdicts["2x2-kms"].diagnostics["stop"] == "x0_certificate"
    assert "stop" not in verdicts["3x3-gns"].diagnostics
    assert verdicts["3x3-kms"].diagnostics["stop"] == "x0_witness"


def test_decide_takes_one_eigendecomposition_when_q0_settles(
        preset_problems, monkeypatch):
    # Q0's eigendecomposition serves both the certificate try and the
    # witness hunt
    import qmsderiv.feasibility as feasibility
    calls = []

    def counted(M, *args, **kw):
        calls.append(M.shape)
        return herm_eig(M, *args, **kw)

    monkeypatch.setattr(feasibility, "herm_eig", counted)
    problem = preset_problems["3x3-kms"]
    verdict = decide(problem.spec, problem.s)
    assert verdict.kind == NOT_PSD
    assert verdict.diagnostics["stop"] == "x0_witness"
    assert len(calls) == 1


def test_pinned_problem_is_not_psd_after_one_eigensolve():
    # Q0's least eigenvector is a witness; its lift passes the benchmark's
    # independent checker, which builds the system with scipy
    case = gen.pinned_kms()
    problem = parse_problem(case.doc)
    verdict = decide(problem.spec, problem.s)
    assert verdict.kind == NOT_PSD
    assert verdict.diagnostics["stop"] == "x0_witness"
    assert verdict.witness_value < -0.05
    system = checker.System(case.doc, checker.action_matrices(3))
    ok, msg, value = checker.check_witness(system, verdict.witness_vector)
    assert ok, msg
    assert abs(value - verdict.witness_value) <= 1e-9


def test_verdicts_keep_compact_evidence(solutions, verdicts):
    # a certificate is kept as the coordinates p of the PSD part of Q, and
    # X = lift(Q(p)) is rebuilt bit for bit on every read: the lift of Q0's
    # PSD part up to rounding. A witness is kept as the vector u of Q,
    # without the eigenvector matrix it came from, and reported as
    # T^{-1}(u (x) e_1)
    for pid in ("2x2-gns", "2x2-kms"):
        v = verdicts[pid]
        p = v.certificate_coords
        assert p.shape == (13,) and p.base is None
        X = v.certificate
        assert X.tobytes() == v.certificate.tobytes()
        assert np.array_equal(X, X.conj().T)
        sol = solutions[pid]
        w, V = herm_eig(sol.system.template.matrix(sol.q0_coords))
        assert v.diagnostics["certificate_min_eig"] == w[0]
        P = (V * np.clip(w, 0.0, None)) @ V.conj().T
        np.testing.assert_allclose(X, sol.system.template.lift(P), rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.spectrum, np.linalg.eigvalsh(X), atol=1e-12)
    kms = verdicts["3x3-kms"]
    assert kms.certificate is None and kms.spectrum is None
    assert kms.reduced_witness.shape == (8 + 3,)
    assert kms.reduced_witness.base is None
    u, v = kms.reduced_witness, kms.witness_vector
    assert abs(np.vdot(v, lifted(solutions["3x3-kms"], solutions["3x3-kms"].q0_coords) @ v)
               - kms.witness_value) <= 1e-12
    assert abs(kms.witness_value - (u.conj() @ kms.template.matrix(
        solutions["3x3-kms"].q0_coords) @ u).real) <= 1e-12


def test_a_corpus_round_keeps_little_memory():
    # a benchmark-shaped round of decisions, every verdict kept: certificates
    # and witnesses kept in q, and diagnostics whose per-size part is shared,
    # keep it small (about 9.5 KB for 17 verdicts)
    problems = [parse_problem(case.doc) for case in gen.warm_corpus(1)]

    def round_of_decisions():
        return [decide(p.spec, p.s) for p in problems]

    round_of_decisions()    # fills the template, kernel and target-SVD caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = round_of_decisions()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 17
    assert retained <= 12 * 1024


def test_witness_hunt_deterministic(solutions):
    sol = solutions["3x3-kms"]
    first = witness_hunt(sol, sol.q0_coords)
    second = witness_hunt(sol, sol.q0_coords)
    assert first is not None and second is not None
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_witness_hunt_finds_nothing_on_feasible(solutions):
    for pid in ("2x2-gns", "2x2-kms"):
        sol = solutions[pid]
        assert witness_hunt(sol, sol.q0_coords) is None


def test_psd_search_requires_consistency(solutions):
    with pytest.raises(DimensionMismatch):
        psd_search(solutions["3x3-gns"])


def test_zero_generator_feasible(tmp_path):
    # b = 0: X = 0 is the certificate, held to an exact zero residual bound
    doc = {"n": 2, "density": {"diag": [0.5, 0.5]}, "jumps": [], "s": 0.0}
    problem = parse_problem(doc)
    v = decide(problem.spec, problem.s)
    assert v.kind == FEASIBLE
    assert v.residual == v.diagnostics["consistency_bound"] == 0.0
    assert not np.asarray(v.certificate).any()
    path, out = tmp_path / "zero.json", tmp_path / "zero.report.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_tracial_random_instances_feasible():
    rng = np.random.default_rng(30)
    for trial in range(6):
        n = 2 if trial % 2 == 0 else 3
        state = DensityState.tracial(n)
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spec = make_spec(state, [(V, 0.0), (V.conj().T, 0.0)])
        verdict = decide(spec, 0.0)
        assert verdict.kind == FEASIBLE, f"trial {trial} gave {verdict.kind}"


def test_scale_equivariance(preset_problems, verdicts):
    spec = preset_problems["2x2-gns"].spec
    c = 1.3
    scaled = make_spec(spec.state,
                       [(c * j.V, j.omega, j.weight) for j in spec.jumps])
    verdict = decide(scaled, 0.0)
    assert verdict.kind == verdicts["2x2-gns"].kind == FEASIBLE
    # |c|^2-scaled certificate still solves the scaled system
    system = assemble(scaled, 0.0)
    X = np.asarray(verdicts["2x2-gns"].certificate) * c ** 2
    assert system.residual_of(hermitian_encode(X)) <= system.residual_bound(1e-8)


def test_scaled_generators_keep_their_verdict(preset_table, tmp_path):
    # L = d* d gives c L = (sqrt(c) d)* (sqrt(c) d): the verdict cannot
    # depend on c > 0, and -c L, negative where L is not zero, is never d* d
    kinds = {code: kind for kind, code in EXIT_CODES.items()}
    docs = {pid: preset.problem for pid, preset in preset_table.items()}
    docs["tracial3"] = tracial3_doc()

    def check(name, doc):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
        path.write_text(json.dumps(doc))
        kind = kinds[main(["check", str(path), "--out", str(out)])]
        if kind in (FEASIBLE, NOT_PSD):
            assert main(["verify", str(out)]) == 0, name
        return kind

    for pid, doc in docs.items():
        kind = check(pid, doc)
        for c in (1e-12, 1e-8, 1e-4, 1e4, 1e8):
            assert check(f"{pid}-{c:g}", scaled_doc(doc, c)) == kind, (pid, c)
        if kind == FEASIBLE:
            for c in (1.0, 1e-6, 1e-10):
                assert check(f"{pid}-neg{c:g}", scaled_doc(doc, -c)) != FEASIBLE, (pid, c)


def test_basis_permutation_equivariance(preset_table, verdicts, relabel,
                                        tmp_path):
    # renaming the levels permutes the matrix-unit basis: every preset keeps
    # its verdict kind, and the renamed problem's evidence passes verify
    for pid, preset in preset_table.items():
        n = preset.problem["n"]
        path, out = tmp_path / f"{pid}.json", tmp_path / f"{pid}.report.json"
        path.write_text(json.dumps(relabel(preset.problem, np.roll(np.arange(n), 1))))
        assert main(["check", str(path), "--out", str(out)]) == verdicts[pid].exit_code
        assert main(["verify", str(out)]) == 0


def test_verdict_serializes_to_json(verdicts):
    for pid, v in verdicts.items():
        doc = json.loads(json.dumps(v.as_dict()))
        assert doc["kind"] == v.kind
        assert "residual" in doc and "nullspace_dim" in doc
        assert "tolerances" in doc
        if v.kind == FEASIBLE:
            assert "certificate" in doc and "spectrum" in doc
        if v.kind == NOT_PSD:
            w = doc["witness"]
            assert set(w) == {"vector", "value", "coupling"}


def test_solve_affine_diagnostics(solutions):
    diag = solutions["3x3-kms"].diagnostics
    for key in ("hom_kernel_dim", "target_rank", "solution_dim", "residual",
                "consistency_bound", "target_sv_min_kept",
                "target_sv_max_dropped"):
        assert key in diag
    # the rank cut of G, the only one, sits far from both sides
    assert diag["target_sv_min_kept"] > 0.5
    assert diag["target_sv_max_dropped"] < 1e-13
    # the per-size part is the template's one mapping, shared by every set
    # of the size
    tpl = solutions["3x3-kms"].system.template
    assert solutions["3x3-gns"].system.template is tpl
    assert tpl.target_svd.diagnostics.items() <= diag.items()


@pytest.mark.parametrize("n", range(2, DEFAULT_SIZE_CAP + 1))
def test_the_rank_cut_of_g_sits_in_a_wide_gap(n):
    # G depends on the size alone, and at every size its kept and dropped
    # singular values are apart by twelve orders: every cut between them,
    # the fixed DEFAULT_RANK_TOL among them, gives the same solution space
    diag = solved(chain_problem(n)).diagnostics
    sv_max = diag["target_sv_max"]
    assert diag["target_sv_min_kept"] >= 1e-2 * sv_max
    assert diag["target_sv_max_dropped"] <= 1e-14 * sv_max
    assert 1e-14 < DEFAULT_RANK_TOL < 1e-2


def test_the_solution_set_carries_its_tolerance(systems):
    # tol enters once, in solve_affine: the set's bound is the one its
    # certificate is judged at, and the verdict reports that tol
    system = systems["2x2-gns"]
    for tol in (1e-8, 1e-6):
        sol = solve_affine(system, tol=tol)
        assert sol.tol == tol
        assert sol.consistency_bound == system.residual_bound(tol)
        verdict = verdict_for(sol)
        assert verdict.kind == FEASIBLE
        assert verdict.residual <= sol.consistency_bound
        assert verdict.tolerances["feasibility"] == tol
        assert verdict.tolerances["rank"] == DEFAULT_RANK_TOL
        assert verdict.tolerances["psd"] == DEFAULT_PSD_TOL
    hand_built = AffineSolutionSet(system, sol.q0_coords, sol.basis_array,
                                   sol.residual)
    assert hand_built.consistency_bound == system.residual_bound(1e-8)


@pytest.mark.parametrize("pid", ["3x3-kms", "zero"])
@pytest.mark.parametrize("tol", [1e-8, 1e-3])
def test_a_hand_built_set_derives_its_consistency(systems, pid, tol):
    # a set is consistent exactly when its residual is at most its own
    # tol * ||b||; for b = 0 (no jumps) that bound is an exact zero
    system = (assemble(make_spec(DensityState.tracial(2), []), 0.0)
              if pid == "zero" else systems[pid])
    sol = solve_affine(system)
    bound = system.residual_bound(tol)
    assert (bound == 0.0) == (pid == "zero")
    for residual in (0.0, bound, np.nextafter(bound, np.inf), 2 * bound + 1e-300):
        built = AffineSolutionSet(system, sol.q0_coords, sol.basis_array,
                                  residual, tol)
        assert built.consistency_bound == bound
        assert built.consistent == (residual <= bound)


def test_every_verdict_reads_its_size_diagnostics_from_the_template(
        solutions, verdicts):
    for pid, v in verdicts.items():
        tpl = solutions[pid].system.template
        assert v.template is tpl
        assert tpl.target_svd.diagnostics.items() <= v.diagnostics.items()
    assert {v.kind for v in verdicts.values()} == {FEASIBLE, NOT_CONSISTENT,
                                                   NOT_PSD}


def test_clear_caches_drops_the_svd_with_the_template():
    tpl = system_template(2)
    svd = feasibility._target_svd(tpl)
    assert feasibility._target_svd(tpl) is svd is tpl.target_svd
    clear_caches()
    fresh = system_template(2)
    assert fresh is not tpl and "target_svd" not in vars(fresh)
    again = feasibility._target_svd(fresh)
    assert again is not svd
    np.testing.assert_array_equal(again.basis, svd.basis)
    assert again.diagnostics == svd.diagnostics


def test_decisions_do_not_import_scipy_optimize(tmp_path):
    # importing scipy.sparse costs about 0.26 s and 22 MB, scipy.optimize
    # 0.2-0.3 s and 16 MB, more than a cold 2x2 decision: the program runs
    # on numpy alone, with its own CSR layer
    code = textwrap.dedent("""
        import sys
        import qmsderiv
        from qmsderiv import cli, decide, parse_problem, presets, sweep

        def check(stage):
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            assert not loaded, f"{{stage}} imported {{loaded[:3]}}"

        check("import qmsderiv")
        for pid in ("2x2-gns", "2x2-kms", "3x3-gns", "3x3-kms"):
            p = parse_problem(presets()[pid].problem)
            decide(p.spec, p.s)
            check("decide " + pid)
        sweep(2, seed=0)
        check("sweep")
        assert cli.main(["repro", "2x2-gns", "--out", {report!r}]) == 0
        assert cli.main(["verify", {report!r}]) == 0
        check("verify")
    """).format(report=str(tmp_path / "report.json"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("pid", ["2x2-gns", "3x3-gns"])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(
        preset_problems, monkeypatch, pid, tol):
    # at tol -1, 0 or nan no residual would pass (2x2-gns NOT_CONSISTENT),
    # at inf every residual would (3x3-gns NOT_PSD)
    problem = preset_problems[pid]
    system = assemble(problem.spec, problem.s)
    solved = []
    real = feasibility._solve_stacked
    monkeypatch.setattr(feasibility, "_solve_stacked",
                        lambda *a: solved.append(a) or real(*a))
    with pytest.raises(ToolError, match="positive and finite"):
        solve_affine(system, tol)
    with pytest.raises(ToolError, match="positive and finite"):
        decide(problem.spec, problem.s, tol)
    assert solved == []


def test_a_one_level_algebra_is_refused():
    # M_1 has no traceless part, so the template has no Q1 block
    spec = make_spec(DensityState.tracial(1), [])
    with pytest.raises(ToolError, match="below 2"):
        assemble(spec, 0.0)
    with pytest.raises(ToolError, match="below 2"):
        decide(spec, 0.0)
