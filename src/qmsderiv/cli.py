"""Command-line front end: check, repro, sweep, verify.

check runs the full pipeline on a problem file and writes a run report;
repro does the same for a built-in preset and compares the verdict kind
against the expected one; sweep drives the parametric comparison and writes
a CSV; verify re-checks a persisted report's certificate or witness from
nothing but the report itself, at the verifier's tolerance: --tol or the
default, never the tolerance the report echoes.

Exit codes: 0 FEASIBLE (or: repro matched / sweep above threshold / report
verified), 10 NOT_CONSISTENT, 11 NOT_PSD, 12 INDETERMINATE, 1 repro
mismatch / sweep below threshold / verification failure, 2 input errors.

A report is one line of canonical JSON, the encoding its fingerprint hashes.
The same input gives byte-identical reports apart from the timestamp and
timings, and the fingerprint over everything else lets verify detect edits.
"""

import argparse
import datetime
import gc
import hashlib
import json
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
from .linalg import (DEFAULT_FEAS_TOL, DEFAULT_RANK_TOL, check_tol, herm_eig,
                     is_hermitian)
from .parametric import CSV_COLUMNS, sweep
from .problems import (load_problem, load_sweep_config, parse_matrix,
                       parse_problem, parse_s, parse_vector, presets,
                       read_json)
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
                 command, **extra):
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
            "rows": system.template.counts["rows_total"],
            "counts": dict(system.template.counts),
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
        **extra,
    }
    report["fingerprint"] = fingerprint_of(report)
    return report


def _emit_report(report, out):
    text = canonical_json(report) + "\n"
    if out:
        atomic_write(out, text)
        v = report["verdict"]
        print(f"kind={v['kind']} residual={v['residual']:.3e} "
              f"nullspace_dim={v['nullspace_dim']} -> {out}")
    else:
        sys.stdout.write(text)


def tol_override(args, default):
    """The --tol value when given, else default; like the tolerances of
    problem and config files it must be positive and finite."""
    return default if args.tol is None else check_tol(args.tol, "--tol")


def run_pipeline(problem, args, preset=None):
    """Validate, assemble, solve, search; returns (report, verdict)."""
    opts = dict(problem.options)
    s = problem.s if args.s is None else args.s
    tol = tol_override(args, opts.get("tol", DEFAULT_FEAS_TOL))

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
    sol = solve_affine(system, tol=tol)
    timings["solve"] = time.perf_counter() - t

    t = time.perf_counter()
    verdict = verdict_for(sol)
    timings["psd_search"] = time.perf_counter() - t

    command = {
        "kind": args.command,
        "s": s,
        "tol": tol,
        "rank_tol": DEFAULT_RANK_TOL,
        "psd_tol": DEFAULT_PSD_TOL,
    }
    extra = {}
    if preset is not None:
        command.update(preset=args.id, expected=preset.expected)
        extra["match"] = verdict.kind == preset.expected
    report = build_report(problem, validation, system, sol, verdict,
                          timings, command, **extra)
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
        report, verdict = run_pipeline(problem, args, preset)
    except (SchemaError, ToolError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit_report(report, args.out)
    if not report["match"]:
        print(f"expected {preset.expected}, got {verdict.kind}",
              file=sys.stderr)
        return 1
    return 0


class _CsvStream:
    """The sweep's on_record: writes each record's CSV row as it comes and
    counts agreements, keeping no record. Opens nothing before a row."""

    def __init__(self, path):
        self.path, self.fh, self.rows, self.agreed = path, None, 0, 0

    def _file(self):
        if self.fh is None:
            self.fh = (open(f"{self.path}.tmp.{os.getpid()}", "w")
                       if self.path else sys.stdout)
            self.fh.write(",".join(CSV_COLUMNS) + "\n")
        return self.fh

    def __call__(self, record):
        self._file().write(",".join(record.csv_row()) + "\n")
        self.rows, self.agreed = self.rows + 1, self.agreed + record.agree

    def finish(self):
        """Complete the CSV (the temporary file becomes path) and return the
        agreement rate, 1 when empty."""
        if self._file() is not sys.stdout:
            self.fh.close()
            os.replace(self.fh.name, self.path)
        return self.agreed / self.rows if self.rows else 1.0


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
    # on_record sees every record, in sample order (samples run in one
    # thread); the returned ones would redraw them
    csv = _CsvStream(args.out)
    try:
        sweep(count, seed, project=cfg["project"], pin=cfg["pin"], s=cfg["s"],
              tol=tol, on_record=csv)
    except ToolError as exc:
        # an unusable pin or count fails before any sample is drawn
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        csv.finish()
        if args.out:
            print(f"interrupted; {csv.rows} records flushed to {args.out}",
                  file=sys.stderr)
        return 130
    rate = csv.finish()
    # no sample fails once the sweep has started; errors=0 keeps the format
    print(f"samples={count} agreement={rate:.4f} errors=0 "
          f"threshold={threshold} -> {'ok' if rate >= threshold else 'below'}",
          file=sys.stdout if args.out else sys.stderr)
    return 0 if rate >= threshold else 1


def cmd_verify(args):
    try:
        tol = tol_override(args, DEFAULT_FEAS_TOL)
        report = read_json(args.report)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    for key in ("input", "verdict", "fingerprint"):
        if not isinstance(report, dict) or key not in report:
            print(f"input error: report missing '{key}'", file=sys.stderr)
            return 2
    if fingerprint_of(report) != report["fingerprint"]:
        print("verification FAILED: fingerprint mismatch (report edited?)")
        return 1
    verdict, command = report["verdict"], report.get("command", {})
    try:
        problem = parse_problem(report["input"])
        for key, value in (("verdict", verdict), ("command", command)):
            if not isinstance(value, dict):
                raise SchemaError(key, "expected an object")
        s = parse_s(command["s"], "command.s") if "s" in command else problem.s
        system = assemble(problem.spec, s)
    except (SchemaError, ToolError) as exc:
        print(f"input error: malformed report: {exc}", file=sys.stderr)
        return 2
    kind = verdict.get("kind")
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
        print(f"verification FAILED at tol {tol:g}: {msg}")
        return 1

    def verified(msg):
        print(f"verified at tol {tol:g}: {msg}")
        return 0

    if kind == FEASIBLE:
        if "certificate" not in verdict:
            return fail("FEASIBLE verdict carries no certificate")
        if not is_hermitian(X):
            return fail("certificate is not Hermitian")
        residual = system.matrix_residual(X)
        bound = system.residual_bound(tol)
        if residual > bound:
            return fail(f"certificate residual {residual:.3e} exceeds "
                        f"{bound:.3e}")
        w, _ = herm_eig(X)
        norm_x = np.linalg.norm(X)
        if not psd_passes(w[0], norm_x):
            return fail(f"certificate min eigenvalue {w[0]:.3e} below "
                        f"-{DEFAULT_PSD_TOL * norm_x:.3e}")
        return verified(f"certificate residual {residual:.3e}, "
                        f"min eig {w[0]:.3e}")

    sol = solve_affine(system, tol=tol)
    if kind == NOT_CONSISTENT:
        if sol.consistent:
            return fail("system is consistent after all "
                        f"(residual {sol.residual:.3e})")
        return verified(f"least-squares residual {sol.residual:.3e} exceeds "
                        f"{sol.consistency_bound:.3e}")
    if kind == NOT_PSD:
        if not sol.consistent:
            return fail("system is not even consistent")
        if not witness:
            return fail("NOT_PSD verdict carries no witness")
        value, coupling = witness_check(sol, v)
        if not is_witness(value, coupling, np.linalg.norm(sol.q0_coords)):
            return fail(f"witness form is not negative on the whole solution "
                        f"set (value {value:.3e}, coupling {coupling:.3e})")
        return verified(f"witness value {value:.6f}, coupling {coupling:.3e}")
    if kind == INDETERMINATE:
        return verified("INDETERMINATE verdict makes no claim; "
                        "input echo and fingerprint are intact")
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
                          help="judge at this tolerance, not the report's "
                               f"(default {DEFAULT_FEAS_TOL:g})")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


def entry():
    """main() for a process that runs one command and exits (the console
    script and ``python -m qmsderiv.cli``). gc.freeze() keeps the command's
    full collections and the one at exit from walking the ~21,000 tracked
    objects of the imports (numpy's and the package's): a process that
    imports the command line takes 115 ms instead of 131 (2-vCPU machine,
    medians of 30). main() and the package's import leave the collector
    alone, because they also run in long-lived processes."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
