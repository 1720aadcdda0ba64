"""Parametric generator family, solvability predicate, and sweeps."""

import hashlib
import itertools
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

import qmsderiv.parametric as parametric
import qmsderiv.qms as qms
from qmsderiv.constraints import _state_factor, assemble
from qmsderiv.errors import DimensionMismatch, ToolError
from qmsderiv.feasibility import solve_affine
from qmsderiv.parametric import (CSV_COLUMNS, LambdaPoint, YMatrix,
                                 _predicate, _sample_rhs,
                                 agreement_rate, build_LY,
                                 diag_jump_identity, predicate_coefficients,
                                 predicate_lhs, project_to_hyperplane,
                                 sample_inputs, solvable_predicate, sweep)
from qmsderiv.qms import lindblad_apply, gns_symmetry_check, validate_spec

PI = math.pi
E = math.e


def unit3(i, j):
    M = np.zeros((3, 3), dtype=complex)
    M[i, j] = 1.0
    return M


def test_ymatrix_roundtrip():
    y = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    np.testing.assert_allclose(YMatrix.from_six(y).six(), y, atol=0)


@pytest.mark.parametrize("scale", [1e-14, 1e-8, 1.0, 1e8])
def test_ymatrix_symmetry_is_judged_at_its_own_scale(scale):
    # entries 2 and 1 at (1, 2) and (2, 1) are asymmetric at every scale; an
    # asymmetry at rounding level of the largest entry is symmetrized away
    with pytest.raises(DimensionMismatch, match="symmetric"):
        YMatrix(scale * np.array([[1.0, 2.0, 0], [1.0, 1.0, 0], [0, 0, 1.0]]))
    Y = scale * np.full((3, 3), 0.5)
    Y[0, 1] *= 1.0 + 1e-13
    entries = YMatrix(Y).entries
    assert (entries == entries.T).all()
    np.testing.assert_allclose(entries, scale * np.full((3, 3), 0.5), rtol=1e-12)


def test_ymatrix_zero_is_exactly_symmetric():
    assert not YMatrix.zero().entries.any()


def test_ymatrix_rejects_asymmetric():
    with pytest.raises(DimensionMismatch):
        YMatrix(np.array([[1.0, 2.0, 0], [0.5, 1.0, 0], [0, 0, 1.0]]))


def test_ymatrix_negative_entries_gated():
    Y = np.diag([-1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        YMatrix(Y)
    assert YMatrix(Y, allow_negative=True).entries[0, 0] == -1.0


def test_lambda_point_validation():
    with pytest.raises(DimensionMismatch):
        LambdaPoint(0.0, 1.0)
    with pytest.raises(DimensionMismatch):
        LambdaPoint(1.0, -2.0)


@pytest.mark.parametrize("lam", [1e200, 1e-320])
def test_lambda_point_rejects_squares_out_of_range(lam):
    with pytest.raises(DimensionMismatch, match="out of range"):
        LambdaPoint(lam, 1.0)


def test_lambda_point_computes_its_data_once():
    p = LambdaPoint(PI, E)
    assert p.state() is p.state()
    assert predicate_coefficients(p) is predicate_coefficients(p)
    assert not predicate_coefficients(p).flags.writeable
    assert p.omegas is p.omegas
    # equality and hashing still see only (lambda2, lambda3)
    assert p == LambdaPoint(PI, E) and hash(p) == hash(LambdaPoint(PI, E))


def test_lambda_point_state():
    p = LambdaPoint(PI, E)
    D = p.state().D
    norm = 1 + PI ** 2 + E ** 2
    np.testing.assert_allclose(np.diag(D).real,
                               [1 / norm, PI ** 2 / norm, E ** 2 / norm],
                               atol=1e-14)


def test_predicate_coefficients_closed_form():
    p = LambdaPoint(1.7, 0.4)
    l2s, l3s = p.lambda2 ** 2, p.lambda3 ** 2
    c = predicate_coefficients(p)
    expect = np.array([
        l3s - l2s,
        (l3s - 1 - l2s) * (l2s - 1) / p.lambda2,
        (l2s - 1 - l3s) * (1 - l3s) / p.lambda3,
        1 - l3s,
        (1 - l3s - l2s) * (l3s - l2s) / (p.lambda3 * p.lambda2),
        l2s - 1,
    ])
    np.testing.assert_allclose(c, expect, atol=0)


def test_predicate_linearity():
    rng = np.random.default_rng(0)
    p = LambdaPoint(0.8, 2.5)
    y1, y2 = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
    a, b = 1.75, -0.4
    lhs = predicate_lhs(p, YMatrix.from_six(a * y1 + b * y2,
                                            allow_negative=True))
    rhs = (a * predicate_lhs(p, YMatrix.from_six(y1))
           + b * predicate_lhs(p, YMatrix.from_six(y2)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_predicate_identity_weights_always_solvable():
    # Y = I zeroes the functional: coefficients of y11, y22, y33 telescope
    for p in (LambdaPoint(PI, E), LambdaPoint(0.3, 5.0), LambdaPoint(2.0, 2.0)):
        assert solvable_predicate(p, YMatrix(np.eye(3)))


def test_predicate_single_offdiagonal_weight():
    # only Y23 = Y32 = 1 at the transcendental pin: lhs is the known
    # closed form and is far from zero
    p = LambdaPoint(PI, E ** PI)
    Y = YMatrix.from_six([0, 0, 0, 0, 1.0, 0])
    l2s, l3s = PI ** 2, E ** (2 * PI)
    expect = (1 - l3s - l2s) * (l3s - l2s) / (E ** PI * PI)
    assert abs(predicate_lhs(p, Y) - expect) <= 1e-9 * abs(expect)
    assert not solvable_predicate(p, Y)


def test_predicate_tracial_point_always_true():
    p = LambdaPoint(1.0, 1.0)
    np.testing.assert_allclose(predicate_coefficients(p), 0, atol=0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        R = rng.uniform(0, 1, (3, 3))
        assert solvable_predicate(p, YMatrix(0.5 * (R + R.T)))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solvable_predicate_rejects_bad_tol(tol):
    # the predicate's tolerance is the constant DEFAULT_PREDICATE_TOL: no
    # caller sets one, so every tol is an unexpected argument
    p, Y = LambdaPoint(0.3, 2.5), YMatrix(np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(TypeError):
        solvable_predicate(p, Y, tol)
    with pytest.raises(TypeError, match="tol"):
        solvable_predicate(p, Y, tol=tol)


def test_predicate_scale_invariance():
    p = LambdaPoint(0.9, 1.8)
    Y = project_to_hyperplane(p, YMatrix(np.full((3, 3), 0.5)))
    big = YMatrix(Y.entries * 1e6, allow_negative=True)
    assert solvable_predicate(p, Y)
    assert solvable_predicate(p, big)


def test_predicate_has_no_floor():
    # a tiny Y is judged at its own scale, not against an absolute floor:
    # DEFAULT_PREDICATE_TOL * max(1, sum |c_i y_i|) would call it solvable
    lhs, flag = _predicate(np.array([1.0, 2.0]), np.array([1e-11, 1e-11]))
    assert lhs == pytest.approx(3e-11, rel=1e-15)
    assert flag is False


@pytest.mark.parametrize("project", [False, True])
def test_predicate_flag_is_scale_free(project):
    # the functional is linear in Y, so c.y and c.(k y) get the same flag
    for _, p, Y in sample_inputs(20, 11, project=project):
        c, y = p.coefficients, Y.six()
        flag = _predicate(c, y)[1]
        assert flag is project
        for k in 10.0 ** np.arange(-12, 9):
            assert _predicate(c, k * y)[1] is flag


def test_projection_lands_on_hyperplane_and_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = LambdaPoint(*np.exp(rng.uniform(-2, 2, 2)))
        R = rng.uniform(0, 1, (3, 3))
        Y = YMatrix(0.5 * (R + R.T))
        proj = project_to_hyperplane(p, Y)
        assert solvable_predicate(p, proj)
        again = project_to_hyperplane(p, proj)
        np.testing.assert_allclose(again.entries, proj.entries, atol=1e-12)


def test_projection_identity_when_coefficients_vanish():
    p = LambdaPoint(1.0, 1.0)
    Y = YMatrix(np.full((3, 3), 0.25))
    np.testing.assert_allclose(project_to_hyperplane(p, Y).entries, Y.entries,
                               atol=0)


def test_build_LY_structure():
    p = LambdaPoint(PI, E ** PI)
    Y = YMatrix.from_six([0.3, 0, 0.7, 0.1, 0, 0.2])
    spec = build_LY(p, Y)
    assert validate_spec(spec).ok
    assert gns_symmetry_check(spec) <= 1e-9
    lam = {0: 1.0, 1: PI, 2: E ** PI}
    for j in spec.jumps:
        (i, k) = np.argwhere(j.V).ravel()
        assert j.weight == Y.entries[i, k]
        assert abs(j.omega + 2 * (math.log(lam[i]) - math.log(lam[k]))) <= 1e-12


def test_build_LY_reproduces_reference_generator(preset_problems):
    # single Y23 weight at (pi, e) is exactly the 3x3 preset generator
    spec_ref = preset_problems["3x3-kms"].spec
    spec_y = build_LY(LambdaPoint(PI, E), YMatrix.from_six([0, 0, 0, 0, 1, 0]))
    np.testing.assert_allclose(spec_y.state.D, spec_ref.state.D, atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(6):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = lindblad_apply(spec_y, A)
        rhs = lindblad_apply(spec_ref, A)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1, np.linalg.norm(rhs))


@pytest.mark.parametrize("abc", [(1.0, 2.0, 3.0), (0.5, -1.2, 0.0),
                                 (-2.0, -2.0, 4.0)])
def test_diag_jump_identity(abc):
    assert diag_jump_identity(*abc) <= 1e-12


def test_sample_inputs_deterministic():
    a = sample_inputs(10, 99)
    b = sample_inputs(10, 99)
    for (ka, pa, ya), (kb, pb, yb) in zip(a, b):
        assert ka == kb and pa == pb
        np.testing.assert_array_equal(ya.entries, yb.entries)


def test_sample_inputs_projection_flag():
    for _, p, Y in sample_inputs(6, 4, project=True):
        assert solvable_predicate(p, Y)


def test_sweep_raw_agreement():
    records = sweep(12, seed=5)
    assert len(records) == 12
    assert all(r.error is None for r in records)
    assert agreement_rate(records) == 1.0


def test_sweep_projected_all_consistent():
    records = sweep(8, seed=6, project=True)
    assert all(r.consistent and r.agree for r in records)


def test_sweep_pinned_lambdas_constant():
    records = sweep(5, seed=7, pin=(PI, E ** PI))
    assert {(r.p.lambda2, r.p.lambda3) for r in records} == {(PI, E ** PI)}
    assert agreement_rate(records) == 1.0


def test_sweep_near_exceptional_set_is_inconsistent():
    # predicate value -2.6e-5 leaves a residual of 1.4e-6: far above
    # tol * ||b||, but below tol * ||A||_F with ||A||_F ~ 150
    rec = sweep(200, seed=8)[65]
    assert (round(rec.p.lambda2, 4), round(rec.p.lambda3, 4)) == (2.3195, 1.0512)
    assert rec.error is None
    assert rec.consistent is False
    assert rec.agree is True


def test_sweep_threads_match_serial():
    serial = sweep(6, seed=8)
    parallel = sweep(6, seed=8, threads=3)
    for a, b in zip(serial, parallel):
        assert a.sample_id == b.sample_id
        assert a.predicate == b.predicate
        assert a.consistent == b.consistent
        assert a.agree == b.agree
        assert a.residual == b.residual


@pytest.mark.parametrize("kw", [{"count": 200, "seed": 8},
                                {"count": 40, "seed": 3, "project": True,
                                 "pin": (PI, E ** PI)}])
def test_sweep_matches_per_sample_solve(kw):
    records = sweep(**kw)
    assert len(records) == kw["count"]
    for r in records:
        assert r.error is None
        system = assemble(build_LY(r.p, r.Y), 0.0)
        sol = solve_affine(system)
        assert r.predicate == solvable_predicate(r.p, r.Y)
        assert r.consistent == sol.consistent
        assert r.agree == (r.predicate == sol.consistent)
        scale = max(1.0, float(np.linalg.norm(system.b_target)))
        assert abs(r.residual - sol.residual) <= 1e-12 * scale


def test_sweep_records_are_a_sequence():
    raw = sweep(20, seed=4)
    projected = sweep(20, seed=4, project=True)
    assert isinstance(raw, Sequence) and len(raw) == 20
    assert all(r.Y.allow_negative is False for r in raw)
    assert all(r.Y.allow_negative is True for r in projected)
    assert [r.sample_id for r in raw] == list(range(20))
    assert raw[-1].sample_id == 19 and raw[-20].sample_id == 0
    assert raw[-1].residual == raw[19].residual
    with pytest.raises(IndexError):
        raw[20]
    with pytest.raises(IndexError):
        raw[-21]
    for (_, p, Y), r in zip(sample_inputs(20, 4), raw):
        assert r.p == p
        np.testing.assert_array_equal(r.Y.entries, Y.entries)
    empty = sweep(0, seed=4)
    assert len(empty) == 0 and list(empty) == []
    assert agreement_rate(empty) == 1.0


def _record_fields(r):
    return (r.sample_id, r.p, r.Y.six().tobytes(), r.Y.allow_negative,
            r.predicate_lhs, r.predicate, r.consistent, r.residual, r.agree,
            r.error)


@pytest.mark.parametrize("kw", [{"seed": 4},
                                {"seed": 4, "pin": (0.3, 2.5), "project": True}])
def test_sweep_records_index_iteration_and_on_record_agree(kw):
    seen = []
    records = sweep(20, on_record=seen.append, **kw)
    walked = [_record_fields(r) for r in records]
    assert [_record_fields(r) for r in seen] == walked
    assert [_record_fields(records[k]) for k in range(20)] == walked
    assert _record_fields(records[-3]) == walked[17]


def test_sweep_records_walk_the_stream_once(monkeypatch):
    records = sweep(20, seed=4, pin=(0.3, 2.5))
    calls = []
    real = parametric.sample_inputs

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(parametric, "sample_inputs", counted)
    assert len(list(records)) == 20 and len(calls) == 1
    assert records[7].sample_id == 7 and len(calls) == 2


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kw", [{"pin": (PI, E ** PI)},
                                {"pin": (0.3, 2.5), "project": True},
                                {}, {"project": True}])
def test_sweep_rhs_equals_assemble_bit_for_bit(monkeypatch, kw, s):
    stacked = []
    real = parametric._solve_stacked

    def spy(system, B):
        stacked.append(B.copy())
        return real(system, B)

    monkeypatch.setattr(parametric, "_solve_stacked", spy)
    records = sweep(20, seed=5, s=s, **kw)
    B = np.concatenate(stacked)
    assert len(stacked) == 2 and len(B) == 20
    for row, r in zip(B, records):
        assert row.tobytes() == assemble(build_LY(r.p, r.Y), s).b_target.tobytes()


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("six", [[0.0, 0.2, 0.3, 0.4, 0.5, 0.6],
                                 [0.1, 0.0, 0.3, 0.4, 0.0, 0.6],
                                 [-0.4, 0.2, 0.0, 0.7, -0.1, 0.0],
                                 [0.0] * 6])
def test_sample_rhs_skips_zero_weights_as_build_LY_does(six, s):
    p = LambdaPoint(0.3, 2.5)
    Y = YMatrix.from_six(six, allow_negative=True)
    rhs = _sample_rhs(_state_factor(p.state(), s), p.bohr_factors, Y.entries)
    assert rhs.tobytes() == assemble(build_LY(p, Y), s).b_target.tobytes()


def _kept_bytes_per_sample(count, **kw):
    tracemalloc.start()
    try:
        records = sweep(count, **kw)
        held, peak = tracemalloc.get_traced_memory()
        del records
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (held - left) / count, peak - held


def test_sweep_memory_is_flat():
    # the records keep only what the sweep computed, 9 bytes a sample (a
    # residual and a consistency flag), and solving a chunk at a time keeps
    # the transient memory small
    pin = (PI, E ** PI)
    sweep(2, seed=0, pin=pin)
    kept, transient = _kept_bytes_per_sample(2000, seed=1, pin=pin)
    assert kept <= 10
    assert transient <= 1.5e6


@pytest.mark.parametrize("project", [False, True])
def test_short_pinned_sweep_keeps_little(project):
    # a 50-sample call, as the benchmark makes them: the fixed cost of the
    # records (their arguments and two arrays) is shared by few samples
    pin = (PI, E ** PI)
    sweep(2, seed=0, pin=pin)
    kept, _ = _kept_bytes_per_sample(50, seed=1, pin=pin, project=project)
    assert kept <= 15


def _columns_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(np.array([r.p.lambda2, r.p.lambda3, *r.Y.six(),
                           r.predicate_lhs, r.residual]).tobytes())
        h.update(bytes([r.predicate, r.consistent, r.agree, r.error is None]))
    return h.hexdigest()


@pytest.mark.parametrize("kw,digest", [
    ({"pin": (PI, E ** PI), "seed": 3},
     "191afb5903d0c8bebc26e07c019fc43e36141ac6b893aceaee100a8d4d2a9b04"),
    ({"pin": (PI, E ** PI), "seed": 3, "project": True},
     "eec9c7fbba604a581931bc7e3abf8d0edc9867c6d8f399d551262a274a0524fd"),
    ({"pin": (0.3, 2.5), "seed": 5},
     "e60963ae68ccfd775cc9e50f2346c0cefcd334641588a28de01d682f69356360"),
    ({"pin": (0.3, 2.5), "seed": 5, "project": True},
     "489e405ba1259dedb15bc32269af54894b3c2e458a4be112db59ea79c80aba00"),
    ({"seed": 8},
     "1db39d065825e26f21a66b63324bccc2d76c4a7510f4ee4c4e0093e51502777d"),
])
def test_sweep_columns_pinned(kw, digest):
    # digests of 40-sample sweeps taken from a sweep that rebuilt the point
    # for every sample and kept one column per field: sharing the pinned
    # point and packing the columns change no value by a bit
    assert _columns_digest(sweep(40, **kw)) == digest


def test_pinned_sweep_builds_one_state(monkeypatch):
    built = []
    post_init = qms.DensityState.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(qms.DensityState, "__post_init__", counted)
    records = sweep(20, seed=2, pin=(0.3, 2.5), project=True)
    assert len(built) == 1 and agreement_rate(records) == 1.0
    built.clear()
    sweep(5, seed=2)
    assert len(built) == 5


@pytest.mark.parametrize("pin", [(1e200, 1.0), (1.0, 1e-320), (1e150, 1.0)])
def test_unusable_pin_fails_before_any_sample(pin):
    # squares out of range, or predicate coefficients that overflow
    with pytest.raises(ToolError):
        sample_inputs(5, 0, pin=pin)
    seen = []
    with pytest.raises(ToolError):
        sweep(5, seed=0, pin=pin, on_record=seen.append)
    assert seen == []


@pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("pin", [None, (0.3, 2.5)])
def test_out_of_range_s_fails_before_any_sample(monkeypatch, s, pin):
    # an unusable s fails the whole sweep at once, like an unusable pin,
    # instead of one error record per sample
    drawn = []
    real = parametric._draw_samples
    monkeypatch.setattr(parametric, "_draw_samples",
                        lambda *a: drawn.append(a) or real(*a))
    seen = []
    with pytest.raises(ToolError, match="outside"):
        sweep(3, seed=1, s=s, pin=pin, on_record=seen.append)
    assert seen == [] and drawn == []


@pytest.mark.parametrize("bad", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
    {"predicate_tol": 0.0}, {"predicate_tol": -1.0},
    {"predicate_tol": math.nan}, {"predicate_tol": math.inf},
    {"count": -1}, {"seed": -1}, {"count": 2.0}, {"seed": None},
])
@pytest.mark.parametrize("pin", [None, (0.3, 2.5)])
def test_unusable_arguments_fail_before_any_sample(monkeypatch, bad, pin):
    # at tol = inf every raw sample would pass as consistent, and a negative
    # count or seed would reach numpy as a ValueError after the pin is built;
    # predicate_tol is no longer a parameter, so any value is a TypeError
    drawn = []
    real = parametric._draw_samples
    monkeypatch.setattr(parametric, "_draw_samples",
                        lambda *a: drawn.append(a) or real(*a))
    seen = []
    kw = {"count": 3, "seed": 1, **bad}
    error = TypeError if "predicate_tol" in bad else ToolError
    with pytest.raises(error, match=next(iter(bad))):
        sweep(pin=pin, on_record=seen.append, **kw)
    assert seen == [] and drawn == []


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("project", [False, True])
def test_extreme_usable_pins_record_no_error(s, project):
    # every refusal comes before the first draw: at the most extreme usable
    # pins each sample is solved, with a finite residual and no error
    for pin in itertools.product((1e-30, 1e30), repeat=2):
        records = sweep(16, seed=1, pin=pin, s=s, project=project)
        assert all(r.error is None and math.isfinite(r.residual)
                   for r in records)


def test_csv_row_matches_columns():
    records = sweep(2, seed=9)
    for r in records:
        row = r.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == str(r.sample_id)
        assert row[CSV_COLUMNS.index("agree")] == "true"


def test_agreement_rate_empty():
    assert agreement_rate([]) == 1.0
