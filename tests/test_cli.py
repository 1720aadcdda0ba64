"""Command-line entry points, reports, and the verify subcommand."""

import json
import os

import numpy as np
import pytest

import qmsderiv.cli as cli
from qmsderiv.cli import canonical_json, fingerprint_of, main
from qmsderiv.constraints import assemble
from qmsderiv.feasibility import _certify, solve_affine
from qmsderiv.linalg import hermitian_decode, hermitian_encode


TRACIAL_2X2 = {
    "n": 2,
    "density": {"diag": [0.5, 0.5]},
    "jumps": [
        {"V": [[0, 1], [0, 0]], "omega": 0.0},
        {"V": [[0, 0], [1, 0]], "omega": 0.0},
    ],
    "s": 0.0,
    "seed": 3,
}


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRACIAL_2X2))
    return str(path)


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


def test_sweep_rejects_half_pin(tmp_path, capsys):
    cfg = tmp_path / "halfpin.json"
    cfg.write_text(json.dumps({"count": 2, "lambda2": 3.0}))
    assert main(["sweep", str(cfg)]) == 2


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
    h = hermitian_encode(np.diag(np.eye(16)[0]))
    bound = system.residual_bound(1e-8)
    x = sol.x0_coords + (10 * bound / np.linalg.norm(system.A @ h)) * h
    assert system.residual_of(x) == pytest.approx(10 * bound, rel=1e-6)
    assert _certify(sol, x, 1e-8, 1e-9, {"tolerances": {}}) is None

    out = tmp_path / "rep.json"
    assert main(["repro", "2x2-gns", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["verdict"]["certificate"] = [
        [[float(z.real), float(z.imag)] for z in row]
        for row in hermitian_decode(x, 16)]
    report["fingerprint"] = fingerprint_of(report)
    out.write_text(json.dumps(report))
    assert main(["verify", str(out)]) == 1
    assert "certificate residual" in capsys.readouterr().out


def test_verify_rejects_non_report(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"hello": 1}))
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
