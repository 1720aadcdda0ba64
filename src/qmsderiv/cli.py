"""Command-line front end: check, repro, sweep, verify.

check runs the full pipeline on a problem file and writes a run report;
repro does the same for a built-in preset and compares the verdict kind
against the expected one; sweep drives the parametric comparison and writes
a CSV; verify re-checks a persisted report's certificate or witness from
nothing but the report itself.

Exit codes: 0 FEASIBLE (or: repro matched / sweep above threshold / report
verified), 10 NOT_CONSISTENT, 11 NOT_PSD, 12 INDETERMINATE, 1 repro
mismatch / sweep below threshold / verification failure, 2 input errors.

Reports are reproducible: the same input gives byte-identical
reports apart from the timestamp and wall-clock timings, and a fingerprint
over everything else is embedded so verify can detect edits.
"""

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .constraints import assemble, dump_system
from .errors import SchemaError, ToolError
from .feasibility import (DEFAULT_PSD_TOL, FEASIBLE, INDETERMINATE,
                          NOT_CONSISTENT, NOT_PSD, is_witness, psd_passes,
                          solve_affine, verdict_for, witness_check)
from .linalg import DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, herm_eig
from .parametric import CSV_COLUMNS, agreement_rate, sweep
from .problems import (load_problem, load_sweep_config, parse_matrix,
                       parse_problem, parse_vector, presets)
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


def tol_override(args, default):
    """The --tol value when given, else default; like the tolerances of
    problem and config files it must be positive and finite."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SchemaError("--tol", f"must be positive and finite, got {args.tol}")
    return args.tol


def run_pipeline(problem, args):
    """Validate, assemble, solve, search; returns (report, verdict)."""
    opts = dict(problem.options)
    s = problem.s if args.s is None else args.s
    tol = tol_override(args, opts.get("tol", DEFAULT_FEAS_TOL))
    rank_tol = opts.get("rank_tol", DEFAULT_RANK_TOL)
    psd_tol = opts.get("psd_tol", DEFAULT_PSD_TOL)

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
    verdict = verdict_for(sol, tol=tol, rank_tol=rank_tol, psd_tol=psd_tol)
    timings["psd_search"] = time.perf_counter() - t

    command = {
        "kind": args.command,
        "s": s,
        "tol": tol,
        "rank_tol": rank_tol,
        "psd_tol": psd_tol,
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


def _write_csv(path, records):
    rows = [",".join(CSV_COLUMNS)]
    rows += [",".join(r.csv_row()) for r in records if r is not None]
    atomic_write(path, "\n".join(rows) + "\n")


def cmd_sweep(args):
    try:
        cfg = load_sweep_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise SchemaError("--seed", "must be nonnegative")
        tol = tol_override(args, cfg["tol"])
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    count = cfg["count"]
    seed = cfg["seed"] if args.seed is None else args.seed
    threshold = cfg["agree_threshold"]
    collected = []
    try:
        records = sweep(
            count, seed, project=cfg["project"], pin=cfg["pin"], s=cfg["s"],
            tol=tol, predicate_tol=cfg["predicate_tol"],
            on_record=collected.append)
    except ToolError as exc:
        # an unusable pin fails before any sample is drawn
        print(f"input error: {exc}", file=sys.stderr)
        return 2
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


def cmd_verify(args):
    try:
        tol = tol_override(args, None)
        with open(args.report) as fh:
            report = json.load(fh)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
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
    if tol is None:
        tol = tols.get("feasibility", DEFAULT_FEAS_TOL)
    rank_tol = tols.get("rank", DEFAULT_RANK_TOL)
    psd_tol = tols.get("psd", DEFAULT_PSD_TOL)
    s = report.get("command", {}).get("s", problem.s)

    system = assemble(problem.spec, s)
    side = system.m ** 2
    witness = verdict.get("witness")
    try:
        if kind == FEASIBLE and "certificate" in verdict:
            X = parse_matrix(verdict["certificate"], side, "certificate")
        if kind == NOT_PSD and witness:
            if not isinstance(witness, dict):
                raise SchemaError("witness", "expected an object")
            v = parse_vector(witness.get("vector"), side, "witness.vector")
    except (SchemaError, ToolError) as exc:
        print(f"input error: malformed evidence: {exc}", file=sys.stderr)
        return 2

    def fail(msg):
        print(f"verification FAILED: {msg}")
        return 1

    if kind == FEASIBLE:
        if "certificate" not in verdict:
            return fail("FEASIBLE verdict carries no certificate")
        norm_x = np.linalg.norm(X)
        if np.linalg.norm(X - X.conj().T) > 1e-10 * norm_x:
            return fail("certificate is not Hermitian")
        residual = system.matrix_residual(X)
        bound = system.residual_bound(tol)
        if residual > bound:
            return fail(f"certificate residual {residual:.3e} exceeds "
                        f"{bound:.3e}")
        w, _ = herm_eig(X)
        if not psd_passes(w[0], norm_x, psd_tol):
            return fail(f"certificate min eigenvalue {w[0]:.3e} below "
                        f"-{psd_tol * norm_x:.3e}")
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
        if not witness:
            return fail("NOT_PSD verdict carries no witness")
        value, coupling = witness_check(sol, v)
        if not is_witness(value, coupling, np.linalg.norm(sol.q0_coords)):
            return fail(f"witness form is not negative on the whole solution "
                        f"set (value {value:.3e}, coupling {coupling:.3e})")
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
    p_check.add_argument("--dump-system", metavar="PATH",
                         help="dump the assembled system as sorted triplets")
    p_check.set_defaults(func=cmd_check)

    p_repro = sub.add_parser("repro", help="run a built-in reference problem")
    p_repro.add_argument("id", help="preset id (see error message for the list)")
    p_repro.add_argument("--out", help="write the report here (default stdout)")
    p_repro.add_argument("--dump-system", metavar="PATH")
    p_repro.set_defaults(func=cmd_repro, s=None, tol=None)

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
