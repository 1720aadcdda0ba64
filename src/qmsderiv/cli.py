"""Command-line front end: check, repro, sweep, verify.

check runs the full pipeline on a problem file and writes a run report;
repro does the same for a built-in preset and compares the verdict kind
against the expected one; sweep drives the parametric comparison and writes
a CSV; verify re-checks a persisted report's certificate or witness from
nothing but the report itself.

Exit codes: 0 FEASIBLE (or: repro matched / sweep above threshold / report
verified), 10 NOT_CONSISTENT, 11 NOT_PSD, 12 INDETERMINATE, 1 repro
mismatch / sweep below threshold / verification failure, 2 input errors.

Reports are reproducible: the same input and seed give byte-identical
reports apart from the timestamp and wall-clock timings, and a fingerprint
over everything else is embedded so verify can detect edits.
"""

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .constraints import assemble, dump_system
from .errors import SchemaError, ToolError
from .feasibility import (DEFAULT_PSD_TOL, DEFAULT_WITNESS_COUPLING_TOL,
                          DEFAULT_WITNESS_VALUE_TOL, FEASIBLE, INDETERMINATE,
                          NOT_CONSISTENT, NOT_PSD, solve_affine, verdict_for,
                          witness_check)
from .linalg import DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, herm_eig, hermitian_encode
from .parametric import CSV_COLUMNS, agreement_rate, sweep
from .problems import load_problem, parse_matrix, parse_problem, presets
from .qms import validate_spec

VOLATILE_KEYS = ("timestamp", "timings", "fingerprint")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_of(report):
    stripped = {k: v for k, v in report.items() if k not in VOLATILE_KEYS}
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def build_report(problem, validation, system, sol, verdict, timings,
                 command):
    report = {
        "tool": {"name": "qmsderiv", "version": __version__},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "input": problem.document,
        "input_sha256": hashlib.sha256(
            canonical_json(problem.document).encode()).hexdigest(),
        "validation": validation.as_dict(),
        "system": {
            "n": system.n,
            "s": system.s,
            "unknowns": system.unknowns,
            "rows": system.counts["rows_total"],
            "counts": dict(system.counts),
        },
        "solution_set": None if sol is None else {
            "consistent": sol.consistent,
            "residual": sol.residual,
            "dim": sol.dim,
            "hom_kernel_dim": sol.diagnostics["hom_kernel_dim"],
            "target_rank": sol.diagnostics["target_rank"],
        },
        "verdict": verdict.as_dict(),
        "timings": timings,
    }
    report["fingerprint"] = fingerprint_of(report)
    return report


def _emit_report(report, out):
    text = json.dumps(report, indent=2) + "\n"
    if out:
        atomic_write(out, text)
        kind = report["verdict"]["kind"]
        print(f"kind={kind} residual={report['verdict']['residual']:.3e} "
              f"nullspace_dim={report['verdict']['nullspace_dim']} -> {out}")
    else:
        sys.stdout.write(text)


def run_pipeline(problem, args):
    """Validate, assemble, solve, search; returns (report, verdict)."""
    opts = dict(problem.options)
    s = problem.s if args.s is None else args.s
    tol = opts.get("tol", DEFAULT_FEAS_TOL) if args.tol is None else args.tol
    rank_tol = opts.get("rank_tol", DEFAULT_RANK_TOL)
    psd_tol = opts.get("psd_tol", DEFAULT_PSD_TOL)
    seed = opts.get("seed", 0) if getattr(args, "seed", None) is None else args.seed
    max_iter = opts.get("max_iter", 400)
    restarts = opts.get("restarts", 2)

    timings = {}
    t = time.perf_counter()
    validation = validate_spec(problem.spec)
    timings["validate"] = time.perf_counter() - t
    if not validation.ok:
        raise SchemaError("jumps", "; ".join(validation.messages))

    t = time.perf_counter()
    system = assemble(problem.spec, s)
    timings["assemble"] = time.perf_counter() - t
    if getattr(args, "dump_system", None):
        dump_system(system, args.dump_system)

    t = time.perf_counter()
    sol = solve_affine(system, tol=tol, rank_tol=rank_tol)
    timings["solve"] = time.perf_counter() - t

    t = time.perf_counter()
    verdict = verdict_for(sol, tol=tol, rank_tol=rank_tol, psd_tol=psd_tol,
                          max_iter=max_iter, restarts=restarts, seed=seed)
    timings["psd_search"] = time.perf_counter() - t
    verdict.diagnostics["system_counts"] = dict(system.counts)

    command = {
        "kind": args.command,
        "s": s,
        "tol": tol,
        "rank_tol": rank_tol,
        "psd_tol": psd_tol,
        "seed": seed,
    }
    report = build_report(problem, validation, system, sol, verdict,
                          timings, command)
    return report, verdict


def cmd_check(args):
    try:
        problem = load_problem(args.problem)
        report, verdict = run_pipeline(problem, args)
    except (SchemaError, ToolError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit_report(report, args.out)
    return verdict.exit_code


def cmd_repro(args):
    table = presets()
    preset = table.get(args.id)
    if preset is None:
        print(f"unknown preset '{args.id}'; valid ids: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(preset.problem)
        report, verdict = run_pipeline(problem, args)
    except (SchemaError, ToolError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report["command"]["preset"] = args.id
    report["command"]["expected"] = preset.expected
    report["match"] = verdict.kind == preset.expected
    report["fingerprint"] = fingerprint_of(report)
    _emit_report(report, args.out)
    if not report["match"]:
        print(f"expected {preset.expected}, got {verdict.kind}",
              file=sys.stderr)
        return 1
    return 0


SWEEP_KEYS = {"count", "seed", "project", "lambda2", "lambda3", "s",
              "agree_threshold", "predicate_tol", "tol"}


def _load_sweep_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("", "sweep config must be a JSON object")
    unknown = set(doc) - SWEEP_KEYS
    if unknown:
        raise SchemaError("", f"unknown keys {sorted(unknown)}")
    if ("lambda2" in doc) != ("lambda3" in doc):
        raise SchemaError("", "pin both lambda2 and lambda3 or neither")
    count = doc.get("count", 200)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise SchemaError("count", "must be a nonnegative integer")
    return doc


def _write_csv(path, records):
    rows = [",".join(CSV_COLUMNS)]
    rows += [",".join(r.csv_row()) for r in records if r is not None]
    atomic_write(path, "\n".join(rows) + "\n")


def cmd_sweep(args):
    try:
        cfg = _load_sweep_config(args.config)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    count = cfg.get("count", 200)
    seed = cfg.get("seed", 42) if args.seed is None else args.seed
    pin = None
    if "lambda2" in cfg:
        pin = (float(cfg["lambda2"]), float(cfg["lambda3"]))
    threshold = float(cfg.get("agree_threshold", 0.99))
    collected = []
    try:
        records = sweep(
            count, seed,
            project=bool(cfg.get("project", False)),
            pin=pin,
            s=float(cfg.get("s", 0.0)),
            tol=float(cfg.get("tol", DEFAULT_FEAS_TOL)) if args.tol is None else args.tol,
            predicate_tol=float(cfg.get("predicate_tol", 1e-10)),
            on_record=collected.append)
    except KeyboardInterrupt:
        if args.out:
            _write_csv(args.out, sorted(collected, key=lambda r: r.sample_id))
            print(f"interrupted; {len(collected)} records flushed to {args.out}",
                  file=sys.stderr)
        return 130
    if args.out:
        _write_csv(args.out, records)
    else:
        sys.stdout.write("\n".join(
            [",".join(CSV_COLUMNS)] + [",".join(r.csv_row()) for r in records]
        ) + "\n")
    rate = agreement_rate(records)
    errors = sum(1 for r in records if r.error is not None)
    print(f"samples={count} agreement={rate:.4f} errors={errors} "
          f"threshold={threshold} -> {'ok' if rate >= threshold else 'below'}",
          file=sys.stdout if args.out else sys.stderr)
    return 0 if rate >= threshold else 1


def _json_to_cvector(value, m, path):
    if not isinstance(value, list) or len(value) != m:
        raise SchemaError(path, f"expected {m} entries")
    v = np.zeros(m, dtype=complex)
    for k, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(f"{path}[{k}]", "expected [re, im]")
        v[k] = complex(float(entry[0]), float(entry[1]))
    return v


def cmd_verify(args):
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: cannot load report: {exc}", file=sys.stderr)
        return 2
    for key in ("input", "verdict", "fingerprint"):
        if key not in report:
            print(f"input error: report missing '{key}'", file=sys.stderr)
            return 2
    if fingerprint_of(report) != report["fingerprint"]:
        print("verification FAILED: fingerprint mismatch (report edited?)")
        return 1
    try:
        problem = parse_problem(report["input"])
    except (SchemaError, ToolError) as exc:
        print(f"input error: echoed problem invalid: {exc}", file=sys.stderr)
        return 2

    verdict = report["verdict"]
    kind = verdict.get("kind")
    tols = verdict.get("tolerances", {})
    tol = tols.get("feasibility", DEFAULT_FEAS_TOL) if args.tol is None else args.tol
    rank_tol = tols.get("rank", DEFAULT_RANK_TOL)
    psd_tol = tols.get("psd", DEFAULT_PSD_TOL)
    s = report.get("command", {}).get("s", problem.s)

    system = assemble(problem.spec, s)
    side = system.m ** 2

    def fail(msg):
        print(f"verification FAILED: {msg}")
        return 1

    if kind == FEASIBLE:
        if "certificate" not in verdict:
            return fail("FEASIBLE verdict carries no certificate")
        X = parse_matrix(verdict["certificate"], side, "certificate")
        if np.linalg.norm(X - X.conj().T) > 1e-10 * max(1.0, np.linalg.norm(X)):
            return fail("certificate is not Hermitian")
        residual = system.residual_of(hermitian_encode(X))
        bound = system.residual_bound(tol)
        if residual > bound:
            return fail(f"certificate residual {residual:.3e} exceeds "
                        f"{bound:.3e}")
        w, _ = herm_eig(X)
        scale_x = max(1.0, float(np.linalg.norm(X)))
        if w[0] < -psd_tol * scale_x:
            return fail(f"certificate min eigenvalue {w[0]:.3e} below "
                        f"-{psd_tol * scale_x:.3e}")
        print(f"verified: certificate residual {residual:.3e}, "
              f"min eig {w[0]:.3e}")
        return 0

    sol = solve_affine(system, tol=tol, rank_tol=rank_tol)
    if kind == NOT_CONSISTENT:
        if sol.consistent:
            return fail("system is consistent after all "
                        f"(residual {sol.residual:.3e})")
        print(f"verified: least-squares residual {sol.residual:.3e} exceeds "
              f"{sol.diagnostics['consistency_bound']:.3e}")
        return 0
    if kind == NOT_PSD:
        if not sol.consistent:
            return fail("system is not even consistent")
        witness = verdict.get("witness")
        if not witness:
            return fail("NOT_PSD verdict carries no witness")
        v = _json_to_cvector(witness["vector"], side, "witness.vector")
        value, coupling = witness_check(sol, v)
        if coupling > tols.get("witness_coupling", DEFAULT_WITNESS_COUPLING_TOL):
            return fail(f"witness couples to the solution set ({coupling:.3e})")
        if value >= -tols.get("witness_value", DEFAULT_WITNESS_VALUE_TOL):
            return fail(f"witness form value {value:.3e} is not negative")
        print(f"verified: witness value {value:.6f}, coupling {coupling:.3e}")
        return 0
    if kind == INDETERMINATE:
        print("verified: INDETERMINATE verdict makes no claim; "
              "input echo and fingerprint are intact")
        return 0
    return fail(f"unknown verdict kind {kind!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qmsderiv",
        description="Decide whether a state-symmetric Lindblad generator is "
                    "the square of a derivation into a *-bimodule.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the decision on a problem file")
    p_check.add_argument("problem", help="problem JSON path")
    p_check.add_argument("--out", help="write the report here (default stdout)")
    p_check.add_argument("--s", type=float, default=None,
                         help="override the inner-product parameter")
    p_check.add_argument("--tol", type=float, default=None,
                         help="override the feasibility tolerance")
    p_check.add_argument("--seed", type=int, default=None,
                         help="override the search seed")
    p_check.add_argument("--dump-system", metavar="PATH",
                         help="dump the assembled system as sorted triplets")
    p_check.set_defaults(func=cmd_check)

    p_repro = sub.add_parser("repro", help="run a built-in reference problem")
    p_repro.add_argument("id", help="preset id (see error message for the list)")
    p_repro.add_argument("--out", help="write the report here (default stdout)")
    p_repro.add_argument("--dump-system", metavar="PATH")
    p_repro.set_defaults(func=cmd_repro, s=None, tol=None, seed=None)

    p_sweep = sub.add_parser("sweep", help="parametric predicate-vs-system sweep")
    p_sweep.add_argument("config", help="sweep config JSON path")
    p_sweep.add_argument("--out", help="write the CSV here (default stdout)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_sweep.add_argument("--tol", type=float, default=None,
                         help="override the feasibility tolerance")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify",
                              help="re-check a report from its own contents")
    p_verify.add_argument("report", help="report JSON path")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override the feasibility tolerance")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
