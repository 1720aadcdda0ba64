"""Command-line entry points, reports, and the verify subcommand."""

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

import qmsderiv.cli as cli
from qmsderiv.cli import canonical_json, fingerprint_of, main
from qmsderiv.constraints import assemble
from qmsderiv.feasibility import _certify, solve_affine
from qmsderiv.linalg import herm_eig


BAD_TOLS = ["-1", "0", "nan", "inf"]

SRC = Path(__file__).resolve().parent.parent / "src"

TRACIAL_2X2 = {
    "n": 2,
    "density": {"diag": [0.5, 0.5]},
    "jumps": [
        {"V": [[0, 1], [0, 0]], "omega": 0.0},
        {"V": [[0, 0], [1, 0]], "omega": 0.0},
    ],
    "s": 0.0,
}


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRACIAL_2X2))
    return str(path)


@pytest.mark.parametrize("key,value", [("seed", 3), ("max_iter", 400),
                                       ("restarts", 2)])
def test_check_rejects_removed_search_knobs(tmp_path, capsys, key, value):
    path = tmp_path / "knob.json"
    path.write_text(json.dumps(dict(TRACIAL_2X2, **{key: value})))
    assert main(["check", str(path)]) == 2
    assert f"unknown keys ['{key}']" in capsys.readouterr().err


def test_check_seed_flag_is_a_usage_error(problem_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", problem_file, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_check_stdout_report(problem_file, capsys):
    assert main(["check", problem_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["kind"] == "FEASIBLE"
    assert report["fingerprint"] == fingerprint_of(report)
    assert report["input"] == TRACIAL_2X2
    assert report["system"]["unknowns"] == 256
    assert report["solution_set"]["consistent"] is True


def test_check_writes_report_atomically(problem_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", problem_file, "--out", str(out)]) == 0
    assert out.exists()
    assert not [f for f in os.listdir(tmp_path) if ".tmp" in f]
    summary = capsys.readouterr().out
    assert "kind=FEASIBLE" in summary
    json.loads(out.read_text())


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def test_check_rejects_bad_trace(tmp_path, capsys):
    doc = dict(TRACIAL_2X2, density={"diag": [0.7, 0.5]})
    path = tmp_path / "badtrace.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "trace" in capsys.readouterr().err


def test_check_rejects_unknown_keys(tmp_path, capsys):
    doc = dict(TRACIAL_2X2, surprise=1)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "unknown" in capsys.readouterr().err


def test_check_not_consistent_exit_code(preset_table, tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(preset_table["3x3-gns"].problem))
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 10


def test_check_dump_system_flag(problem_file, tmp_path, capsys):
    dump = tmp_path / "system.txt"
    assert main(["check", problem_file, "--dump-system", str(dump),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert dump.exists() and (tmp_path / "system.txt.rhs").exists()


def test_repro_unknown_id(capsys):
    assert main(["repro", "4x4-gns"]) == 2
    err = capsys.readouterr().err
    for pid in ("2x2-gns", "2x2-kms", "3x3-gns", "3x3-kms"):
        assert pid in err


def test_repro_match(tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert main(["repro", "2x2-kms", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["match"] is True
    assert report["command"]["expected"] == "FEASIBLE"
    assert report["verdict"]["kind"] == "FEASIBLE"
    assert fingerprint_of(report) == report["fingerprint"]


def test_check_writes_one_line_of_canonical_json(problem_file, tmp_path,
                                                 capsys):
    out = tmp_path / "r.json"
    assert main(["check", problem_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == canonical_json(json.loads(text)) + "\n"


def test_repro_fingerprints_its_report_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(report):
        calls.append(1)
        return fingerprint_of(report)

    monkeypatch.setattr(cli, "fingerprint_of", counted)
    assert main(["repro", "2x2-gns", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_verify_accepts_the_indented_layout(problem_file, tmp_path, capsys):
    # reports written as json.dumps(indent=2) still verify: verify reads
    # any layout and the fingerprint hashes the canonical encoding
    out = tmp_path / "r.json"
    assert main(["check", problem_file, "--out", str(out)]) == 0
    out.write_text(json.dumps(json.loads(out.read_text()), indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "verified" in capsys.readouterr().out


def test_reports_fingerprint_stable_across_runs(problem_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", problem_file, "--out", str(a)]) == 0
    assert main(["check", problem_file, "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["fingerprint"] == rb["fingerprint"]
    strip = lambda r: {k: v for k, v in r.items()
                       if k not in ("timestamp", "timings", "fingerprint")}
    assert canonical_json(strip(ra)) == canonical_json(strip(rb))


def test_sweep_csv_and_exit(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 6, "seed": 11}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("sample_id,lambda2,lambda3,y11,y12,y13,y22,y23,y33,"
                        "predicate_lhs,predicate,consistent,residual,agree")
    assert len(lines) == 7
    assert "agreement=" in capsys.readouterr().out


def test_sweep_zero_samples(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"count": 0}))
    out = tmp_path / "zero.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "sample_id,lambda2,lambda3,y11,y12,y13,y22,y23,y33,"
        "predicate_lhs,predicate,consistent,residual,agree"]


def test_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"count": 2, "smaples": 5}))
    assert main(["sweep", str(cfg)]) == 2


def test_sweep_rejects_the_retired_predicate_tol(tmp_path, capsys):
    # the predicate's tolerance is a constant; only tol is a sweep option
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 2, "predicate_tol": 1e-10}))
    assert main(["sweep", str(cfg)]) == 2
    assert "unknown keys ['predicate_tol']" in capsys.readouterr().err


def test_sweep_rejects_half_pin(tmp_path, capsys):
    cfg = tmp_path / "halfpin.json"
    cfg.write_text(json.dumps({"count": 2, "lambda2": 3.0}))
    assert main(["sweep", str(cfg)]) == 2


@pytest.mark.parametrize("bad", [
    {"s": 2.0},
    {"lambda2": -1.0, "lambda3": 1.0},
    {"lambda2": 1.0, "lambda3": float("inf")},
    {"tol": "x"},
    {"predicate_tol": "x"},
    {"agree_threshold": "x"},
    {"project": "yes"},
    {"seed": "x"},
])
def test_sweep_rejects_bad_config_values(tmp_path, capsys, bad):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"count": 2, **bad}))
    assert main(["sweep", str(cfg)]) == 2
    assert "input error" in capsys.readouterr().err


def test_sweep_rejects_negative_seed_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 2}))
    assert main(["sweep", str(cfg), "--seed", "-1"]) == 2
    assert "input error" in capsys.readouterr().err


def test_sweep_refuses_a_count_it_cannot_hold(tmp_path, capsys):
    # unchecked, this count printed numpy's "Maximum allowed dimension
    # exceeded" traceback with exit 1, before any memory was taken;
    # test_parametric checks that the refusal precedes every allocation
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"count": 10 ** 400}))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "big.csv")]) == 2
    assert "input error: count: must be at most 1000000" in capsys.readouterr().err
    assert not (tmp_path / "big.csv").exists()


def test_sweep_command_holds_no_record(tmp_path, capsys):
    # each row is written as its record comes: the command kept every
    # SweepRecord until the end, 2.4 KB an unpinned sample, and peaked
    # 12.3 MB above its start over these 4000 samples
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 2}))
    main(["sweep", str(cfg), "--out", str(tmp_path / "warm.csv")])
    cfg.write_text(json.dumps({"count": 4000, "seed": 3}))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 4001


@pytest.mark.parametrize("threshold", [-1, -1e-12, 1.0000001, 5])
def test_sweep_refuses_a_threshold_outside_the_unit_interval(tmp_path, capsys,
                                                             threshold):
    # unchecked, a threshold of 5 failed every sweep and -1 passed it
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 2, "agree_threshold": threshold}))
    assert main(["sweep", str(cfg)]) == 2
    assert "agree_threshold: must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", [0, 1])
def test_sweep_accepts_the_threshold_bounds(tmp_path, capsys, threshold):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 3, "agree_threshold": threshold}))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0


def test_sweep_flushes_partial_on_interrupt(tmp_path, capsys, monkeypatch):
    from qmsderiv.parametric import sweep as real_sweep

    def interrupted(count, seed, on_record=None, **kw):
        records = real_sweep(2, seed, on_record=on_record, **kw)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sweep", interrupted)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 50, "seed": 11}))
    out = tmp_path / "partial.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 130
    assert len(out.read_text().splitlines()) == 3  # header + 2 flushed rows
    assert "interrupted" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rank_tol", "psd_tol"])
def test_check_rejects_the_retired_tolerance_keys(tmp_path, capsys, key):
    # the rank cut and the PSD slack are fixed; only tol is an option
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**chain_problem(2), key: 1e-9}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and key in err


@pytest.mark.parametrize("pin", [1e200, 1e-320])
def test_sweep_rejects_unusable_pin(tmp_path, capsys, pin):
    # the square of lambda2 leaves the float range: the pinned point cannot
    # be built, so no sample is drawn and no CSV is written
    cfg = tmp_path / "pin.json"
    cfg.write_text(json.dumps({"count": 4, "lambda2": pin, "lambda3": 1.0}))
    out = tmp_path / "pin.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_pinned_sweep_csv_is_pinned(tmp_path, capsys):
    # golden file written by a sweep that rebuilt the pinned point for every
    # sample: sharing it changes no byte of the CSV
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 10, "seed": 11, "lambda2": 0.3,
                               "lambda3": 2.5, "project": True}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / "sweep_pinned10.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_check_rejects_bad_tol(problem_file, capsys, tol):
    assert main(["check", problem_file, f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_sweep_rejects_bad_tol(tmp_path, capsys, tol):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"count": 2}))
    assert main(["sweep", str(cfg), f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verify_rejects_bad_tol(problem_file, tmp_path, capsys, tol):
    out = tmp_path / "rep.json"
    assert main(["check", problem_file, "--out", str(out)]) == 0
    assert main(["verify", str(out), f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_roundtrip(problem_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["check", problem_file, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_detects_edited_report(problem_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["check", problem_file, "--out", str(out)])
    report = json.loads(out.read_text())
    report["verdict"]["residual"] = 0.0
    out.write_text(json.dumps(report))
    assert main(["verify", str(out)]) == 1
    assert "fingerprint" in capsys.readouterr().out


def test_verify_detects_forged_certificate(problem_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["check", problem_file, "--out", str(out)])
    report = json.loads(out.read_text())
    cert = report["verdict"]["certificate"]
    cert[0][0] = [cert[0][0][0] + 0.5, cert[0][0][1]]  # breaks the residual
    report["fingerprint"] = fingerprint_of(report)  # forge a matching hash
    out.write_text(json.dumps(report))
    assert main(["verify", str(out)]) == 1
    assert "residual" in capsys.readouterr().out


def test_certificate_checks_use_the_consistency_bound(preset_problems, tmp_path,
                                                     capsys):
    # a PSD point with residual 10 * residual_bound: a bound that also
    # counted ||A||_F would take it
    problem = preset_problems["2x2-gns"]
    system = assemble(problem.spec, problem.s)
    sol = solve_affine(system)
    tpl = system.template
    h = np.eye(tpl.unknowns)[0]             # Q1's (0, 0) entry
    bound = system.residual_bound(1e-8)
    step = 10 * bound / np.linalg.norm(tpl.G @ h)
    q = sol.q0_coords + step * h
    X = tpl.lift(tpl.matrix(q))
    assert system.matrix_residual(X) == pytest.approx(10 * bound, rel=1e-6)
    assert _certify(sol, q, herm_eig(tpl.matrix(q))) is None

    out = tmp_path / "rep.json"
    assert main(["repro", "2x2-gns", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["verdict"]["certificate"] = [
        [[float(z.real), float(z.imag)] for z in row] for row in X]
    report["fingerprint"] = fingerprint_of(report)
    out.write_text(json.dumps(report))
    assert main(["verify", str(out)]) == 1
    assert "certificate residual" in capsys.readouterr().out


def test_verify_rejects_a_zero_certificate_of_a_tiny_generator(tmp_path, capsys):
    # the residual bound scales with ||b||: X = 0 leaves a residual of ||b||
    # however small the generator is
    doc = {**TRACIAL_2X2, "jumps": [{**j, "weight": 1e-10} for j in TRACIAL_2X2["jumps"]]}
    path, out = tmp_path / "tiny.json", tmp_path / "tiny.report.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["verdict"]["certificate"] = [
        [[0.0, 0.0] for _ in row] for row in report["verdict"]["certificate"]]
    report["fingerprint"] = fingerprint_of(report)
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert "certificate residual" in capsys.readouterr().out


def test_verify_rejects_non_report(tmp_path, capsys):
    path = tmp_path / "x.json"
    for doc in ({"hello": 1}, [], "input verdict fingerprint"):
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2


def test_verify_infeasibility_reports(tmp_path, capsys):
    # NOT_CONSISTENT: re-solve confirms the residual; NOT_PSD: the stored
    # witness is re-evaluated against a fresh solution set
    gns, kms = tmp_path / "gns.json", tmp_path / "kms.json"
    assert main(["repro", "3x3-gns", "--out", str(gns)]) == 0
    assert main(["repro", "3x3-kms", "--out", str(kms)]) == 0
    assert main(["verify", str(gns)]) == 0
    assert main(["verify", str(kms)]) == 0
    out = capsys.readouterr().out
    assert "least-squares residual" in out
    assert "witness value" in out

    report = json.loads(kms.read_text())
    vec = report["verdict"]["witness"]["vector"]
    for entry in vec:
        entry[0], entry[1] = 0.0, 0.0  # zero vector couples to nothing
    report["fingerprint"] = fingerprint_of(report)
    kms.write_text(json.dumps(report))
    assert main(["verify", str(kms)]) == 1
    assert "not negative" in capsys.readouterr().out


@pytest.fixture(scope="module")
def evidence_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("evidence")
    paths = {}
    for pid in ("2x2-gns", "3x3-kms"):
        paths[pid] = root / f"{pid}.json"
        assert main(["repro", pid, "--out", str(paths[pid])]) == 0
    return paths


def _bad_certificate_entry(verdict):
    verdict["certificate"][0][0] = ["x", 0]


def _bad_witness_entry(verdict):
    verdict["witness"]["vector"][0] = ["x", 0]


def _witness_without_vector(verdict):
    del verdict["witness"]["vector"]


@pytest.mark.parametrize("pid,damage", [
    ("2x2-gns", _bad_certificate_entry),
    ("3x3-kms", _bad_witness_entry),
    ("3x3-kms", _witness_without_vector),
])
def test_verify_malformed_evidence_is_an_input_error(evidence_reports, tmp_path,
                                                     capsys, pid, damage):
    report = json.loads(evidence_reports[pid].read_text())
    damage(report["verdict"])
    report["fingerprint"] = fingerprint_of(report)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("command", [], "command: expected an object"),
    ("command", None, "command: expected an object"),
    ("command.s", "x", "command.s: expected a number"),
    ("command.s", 2.0, "command.s: must lie in [0, 1]"),
    ("command.s", True, "command.s: expected a number"),
    ("command.s", 10 ** 400, "command.s: lies beyond the float range"),
    ("verdict", [], "verdict: expected an object"),
    ("input", "chain6", "algebra size 6 exceeds cap 5"),
], ids=["command-list", "command-null", "s-string", "s-above-1", "s-bool",
        "s-huge", "verdict-list", "input-over-cap"])
def test_verify_refuses_a_malformed_report(evidence_reports, tmp_path, capsys,
                                           field, value, message):
    # re-fingerprinted forgeries: exit 2, an input error naming the field,
    # not a traceback or exit 1, the code of a failed verification
    report = json.loads(evidence_reports["2x2-gns"].read_text())
    if field == "command.s":
        report["command"]["s"] = value
    else:
        report[field] = chain_problem(6) if value == "chain6" else value
    report["fingerprint"] = fingerprint_of(report)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 2
    assert f"input error: malformed report: {message}" in capsys.readouterr().err


def chain_problem(n):
    """The n-level chain at s = 1/2: density proportional to
    diag(1, 2, 4, ...) and matrix-unit jump pairs between neighbours."""
    d = [2.0 ** i / (2.0 ** n - 1.0) for i in range(n)]
    jumps = []
    for i in range(n - 1):
        up = [[1.0 if (r, c) == (i, i + 1) else 0.0 for c in range(n)]
              for r in range(n)]
        omega = -math.log(d[i] / d[i + 1])
        jumps += [{"V": up, "omega": omega},
                  {"V": [list(row) for row in zip(*up)], "omega": -omega}]
    return {"n": n, "density": {"diag": d}, "jumps": jumps, "s": 0.5}


def tracial_chain(n):
    """The n-level chain at the tracial state, s = 0: FEASIBLE."""
    jumps = []
    for i in range(n - 1):
        for r, c in ((i, i + 1), (i + 1, i)):
            jumps.append({"V": [[1.0 if (a, b) == (r, c) else 0.0
                                 for b in range(n)] for a in range(n)]})
    return {"n": n, "density": {"diag": [1.0 / n] * n}, "jumps": jumps,
            "s": 0.0}


@pytest.fixture(scope="module")
def n3_evidence_reports(tmp_path_factory):
    """check reports at n = 3, keyed by their evidence: an 81 x 81
    certificate (FEASIBLE) and an 81-entry witness vector (NOT_PSD)."""
    root = tmp_path_factory.mktemp("n3")
    paths = {}
    for evidence, doc, code in (("certificate", tracial_chain(3), 0),
                                ("witness.vector", chain_problem(3), 11)):
        problem, out = root / "problem.json", root / f"{evidence}.json"
        problem.write_text(json.dumps(doc))
        assert main(["check", str(problem), "--out", str(out)]) == code
        paths[evidence] = out
    return paths


def _evidence_of(verdict, evidence):
    if evidence == "certificate":
        return verdict["certificate"]
    return verdict["witness"]["vector"]


@pytest.mark.parametrize("evidence", ["certificate", "witness.vector"])
def test_untouched_n3_evidence_verifies(n3_evidence_reports, capsys, evidence):
    assert main(["verify", str(n3_evidence_reports[evidence])]) == 0


@pytest.mark.parametrize("evidence", ["certificate", "witness.vector"])
@pytest.mark.parametrize("entry,at", [
    (True, ""), ("0.5", ""), (None, ""), ([0.5], ""), ([0.5, 0.0, 0.0], ""),
    ({"re": 0.5}, ""), (math.nan, ""), (math.inf, ""),
    ([False, 0.0], "[0]"), ([0.5, "x"], "[1]"), ([0.5, None], "[1]"),
    ([-math.inf, 0.0], "[0]"), ([0.5, math.nan], "[1]"),
    ("short row", ""),
])
def test_verify_names_the_first_bad_evidence_entry(
        n3_evidence_reports, tmp_path, capsys, evidence, entry, at):
    # planted deep in the evidence, ahead of a second bad entry: verify
    # refuses with exit 2 and names the first one by its JSON path
    report = json.loads(n3_evidence_reports[evidence].read_text())
    values = _evidence_of(report["verdict"], evidence)
    if evidence == "certificate":
        values, later, path = values[40], values[70], "certificate[40]"
    else:
        later, path = values, "witness.vector"
    later[70] = True
    if entry == "short row":
        del values[-1]
        expected = f"{path}: expected 81 entries"
    else:
        k = 17 if evidence == "certificate" else 40
        values[k] = entry
        expected = f"{path}[{k}]{at}: "
    report["fingerprint"] = fingerprint_of(report)
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(report))
    assert main(["verify", str(damaged)]) == 2
    assert f"input error: malformed evidence: {expected}" in capsys.readouterr().err


HUGE = 10 ** 400    # an integer beyond the float range


@pytest.mark.parametrize("evidence", ["certificate", "witness.vector"])
@pytest.mark.parametrize("entry,at", [
    (HUGE, ""), ([HUGE, 0.0], "[0]"), ([0.5, -HUGE], "[1]"),
], ids=["number", "real-part", "imaginary-part"])
def test_verify_names_an_evidence_entry_beyond_the_float_range(
        n3_evidence_reports, tmp_path, capsys, evidence, entry, at):
    # the entries of a pair go through numpy at once, where the integer
    # overflows; the entry-by-entry decode then names it
    report = json.loads(n3_evidence_reports[evidence].read_text())
    values = _evidence_of(report["verdict"], evidence)
    path = "witness.vector"
    if evidence == "certificate":
        values, path = values[40], "certificate[40]"
    values[17] = entry
    report["fingerprint"] = fingerprint_of(report)
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(report))
    assert main(["verify", str(damaged)]) == 2
    assert (f"input error: malformed evidence: {path}[17]{at}: lies beyond "
            "the float range") in capsys.readouterr().err


@pytest.mark.parametrize("digits,message", [
    (401, "jumps[0].weight: lies beyond the float range"),
    (5000, "is not valid JSON"),
])
def test_check_refuses_a_weight_beyond_the_float_range(tmp_path, capsys,
                                                       digits, message):
    # 401 digits parse as a Python int and overflow float; past 4300 digits
    # the JSON reader itself refuses the integer
    doc = json.loads(json.dumps(TRACIAL_2X2))
    doc["jumps"][0]["weight"] = 7
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"weight": 7',
                                            '"weight": 1' + "0" * (digits - 1)))
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_five_level_chain_is_not_psd_and_verifies(tmp_path, capsys):
    # n = 5 is within the size cap; its witness passes verify
    path, out = tmp_path / "chain5.json", tmp_path / "chain5.report.json"
    path.write_text(json.dumps(chain_problem(5)))
    assert main(["check", str(path), "--out", str(out)]) == 11
    report = json.loads(out.read_text())
    assert report["verdict"]["diagnostics"]["stop"] == "x0_witness"
    assert report["system"]["unknowns"] == 5 ** 8
    assert main(["verify", str(out)]) == 0
    assert "witness value" in capsys.readouterr().out


def _forged_2x2_gns(tmp_path, forge):
    """The 2x2-gns repro report with its verdict edited by forge, under a
    matching fingerprint: what a forger can write."""
    out = tmp_path / "rep.json"
    assert main(["repro", "2x2-gns", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    forge(report["verdict"])
    report["fingerprint"] = fingerprint_of(report)
    out.write_text(json.dumps(report))
    return out


@pytest.mark.parametrize("report_tol", [1e300, math.inf])
def test_verify_ignores_the_reports_own_tolerance(tmp_path, capsys, report_tol):
    # an identity certificate leaves a residual of 7.35 at 2x2-gns; a huge
    # tolerance written into the report must not make it pass
    def forge(verdict):
        side = len(verdict["certificate"])
        verdict["certificate"] = [[[float(r == c), 0.0] for c in range(side)]
                                  for r in range(side)]
        verdict["tolerances"]["feasibility"] = report_tol

    out = _forged_2x2_gns(tmp_path, forge)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "certificate residual" in printed and "at tol 1e-08" in printed


def test_verify_ignores_a_tiny_tolerance_in_the_report(tmp_path, capsys):
    # 2x2-gns is consistent at the verifier's tol: relabelling it
    # NOT_CONSISTENT at tol 1e-300 must not verify
    def forge(verdict):
        verdict["kind"] = "NOT_CONSISTENT"
        verdict["tolerances"]["feasibility"] = 1e-300

    out = _forged_2x2_gns(tmp_path, forge)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert "consistent after all" in capsys.readouterr().out


def test_verify_at_the_tol_a_report_was_made_at(problem_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["check", problem_file, "--tol", "1e-6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "1e-6"]) == 0
    assert "verified at tol 1e-06:" in capsys.readouterr().out


def test_verify_rejects_a_non_hermitian_certificate(tmp_path, capsys):
    # one rule for the Hermitian defect: 1e-9 of ||X|| fails it
    def forge(verdict):
        X = np.array([[complex(*z) for z in row]
                      for row in verdict["certificate"]])
        X[0, 1] += 1e-9 * np.linalg.norm(X)
        verdict["certificate"] = [[[z.real, z.imag] for z in row] for row in X]

    out = _forged_2x2_gns(tmp_path, forge)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert "certificate is not Hermitian" in capsys.readouterr().out


def test_check_rejects_a_one_level_algebra(tmp_path, capsys):
    # M_1 has no traceless part: n < 2 is an input error, exit 2, not a crash
    path = tmp_path / "n1.json"
    path.write_text(json.dumps(
        {"n": 1, "density": {"diag": [1.0]}, "jumps": [], "s": 0.0}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "n: must be at least 2" in err


def _run_fresh(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


def test_main_leaves_the_collector_alone(tmp_path, capsys):
    # main() runs in long-lived processes: only the process entry freezes
    frozen = gc.get_freeze_count()
    out = str(tmp_path / "r.json")
    assert main(["repro", "3x3-kms", "--out", out]) == 0
    assert main(["verify", out]) == 0
    assert gc.get_freeze_count() == frozen


def test_entry_freezes_the_imports_before_the_command(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    assert cli.entry() == 7
    assert calls == ["freeze", "main"]


def test_a_fresh_import_makes_no_dataclass_and_freezes_nothing(tmp_path):
    code = textwrap.dedent("""
        import gc, sys
        import qmsderiv.cli
        assert "dataclasses" not in sys.modules, "dataclasses imported"
        assert gc.get_freeze_count() == 0, gc.get_freeze_count()
    """)
    done = _run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("pid", ["2x2-gns", "2x2-kms", "3x3-gns", "3x3-kms"])
def test_the_module_entry_writes_the_in_process_report(tmp_path, capsys, pid):
    done = _run_fresh(["-m", "qmsderiv.cli", "repro", pid, "--out",
                       "fresh.json"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert main(["repro", pid, "--out", str(tmp_path / "here.json")]) == 0

    def stable(name):
        report = json.loads((tmp_path / name).read_text())
        del report["timestamp"], report["timings"]
        return report

    assert stable("fresh.json") == stable("here.json")
