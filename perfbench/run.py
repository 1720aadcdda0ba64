"""Benchmark for qmsderiv: cold command line, warm decision corpus, sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one operation at a time, from one process):

  cli-cold     fresh-process ``qmsderiv check`` then ``qmsderiv verify`` on the
               four presets and seeded n=2 / n=3 problems, plus one fresh
               ``qmsderiv sweep`` per round
  warm-decide  ``decide`` on a seeded corpus in a process whose caches were
               filled during set-up
  sweep-rhs    samples of ``sweep`` at pinned points of the three-level family,
               half raw and half projected, serial

Every run attempts whole rounds of the same operations until ``--seconds``
have passed, then checks every output against answers known from outside
the program (see gen.py and checker.py). The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, end-to-end
ones with ``--trace 0`` and per-layer ones with ``--trace 1``. README.md
describes the metrics.
"""

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, the program and the benchmark's own numpy modules are imported inside
# the functions that need them, so that set-up can time a fresh import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-cold", "warm-decide", "sweep-rhs")
SETUPS = 3                 # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 120        # seconds; a stuck child is killed and counts as failed
SWEEP_POINTS = 2           # pinned family points per sweep-rhs run
SWEEP_SAMPLES = 50         # samples per sweep call (the first one assembles)
CLI_SWEEP_SAMPLES = 10

EXIT_KINDS = {0: "FEASIBLE", 10: "NOT_CONSISTENT", 11: "NOT_PSD",
              12: "INDETERMINATE"}


class Run:
    """Outcome of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []          # wrong answers or rejected evidence
        self.metrics = {}         # end-to-end, name -> (value, unit)
        self.figures = {}         # the ROADMAP's figures, printed for reading
        self.processes = []       # traced span records
        self.report_bytes = []
        self.loop_s = 0.0

    def wrong(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = "... more errors"


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd, timeout=CHILD_TIMEOUT):
    """(exit code or None on timeout, wall seconds, stderr tail)."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t, "timed out"
    return proc.returncode, time.perf_counter() - t, proc.stderr[-300:]


def median(values):
    return float(statistics.median(values)) if values else float("nan")


def trimmed_mean(values, share=0.1):
    """Mean without the lowest and the highest ``share`` of the values.

    The machine switches between a fast and a slow state (up to 2x apart)
    every few seconds; a median of short operations jumps between the two
    when a run spends about half its time in each, while a mean moves with
    the share of time spent in each. Trimming keeps a rare stall out.
    """
    values = sorted(values)
    k = int(len(values) * share)
    kept = values[k:len(values) - k]
    return float(sum(kept) / len(kept)) if kept else float("nan")


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Checking evidence
# ---------------------------------------------------------------------------

class Evidence:
    """Checker systems and verdicts, each distinct piece of evidence once."""

    def __init__(self):
        import checker
        self.checker = checker
        self.actions = {}
        self.systems = {}
        self.seen = {}

    def system(self, case):
        if case.name not in self.systems:
            if case.n not in self.actions:
                self.actions[case.n] = self.checker.action_matrices(case.n)
            self.systems[case.name] = self.checker.System(
                case.doc, self.actions[case.n])
        return self.systems[case.name]

    def known_answer(self, run, case):
        """Confirm a NOT_PSD answer through the case's own witness."""
        import gen
        key = ("known", case.name)
        if case.witness is None or key in self.seen:
            return
        ok, msg, value = self.checker.check_witness(self.system(case), case.witness)
        self.seen[key] = ok
        if not ok:
            run.wrong(f"{case.name}: known witness rejected: {msg}")
        elif case.witness_value is not None and abs(value - case.witness_value) > 1e-6:
            run.wrong(f"{case.name}: witness value {value} != closed form "
                      f"{case.witness_value}")
        if case.name == "3x3-kms" and abs(value - gen.paper_witness_value()) > 1e-6:
            run.wrong(f"3x3-kms witness value {value} != paper's "
                      f"{gen.paper_witness_value()}")

    def certificate(self, run, case, X):
        key = ("cert", case.name, _digest(X))
        if key not in self.seen:
            ok, msg = self.checker.check_certificate(self.system(case), X)
            self.seen[key] = ok
            if not ok:
                run.wrong(f"{case.name}: {msg}")

    def witness(self, run, case, v):
        key = ("witness", case.name, _digest(v))
        if key not in self.seen:
            ok, msg, _ = self.checker.check_witness(self.system(case), v)
            self.seen[key] = ok
            if not ok:
                run.wrong(f"{case.name}: program's {msg}")


def judge(run, evidence, case, kind, certificate=None, witness=None):
    """Count one decision: INDETERMINATE or no answer fails, a wrong one errs."""
    import numpy as np
    evidence.known_answer(run, case)
    if kind is None or kind == "INDETERMINATE":
        run.failed += 1
        return
    if kind != case.expected:
        run.wrong(f"{case.name}: {kind}, known answer {case.expected}")
    elif kind == "FEASIBLE":
        evidence.certificate(run, case, np.asarray(certificate, dtype=complex))
    elif kind == "NOT_PSD":
        evidence.witness(run, case, np.asarray(witness, dtype=complex))


def on_hyperplane(l2, l3, y):
    """Known consistency of a family sample, from the restated predicate."""
    import gen
    import numpy as np
    c = gen.predicate_coefficients(l2, l3)
    y = np.asarray(y, dtype=float)
    return abs(float(c @ y)) <= 1e-9 * max(1.0, float(np.abs(c * y).sum()))


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def cli_inputs(seed, workdir):
    import gen
    cases = gen.cli_cases(seed)
    for case in cases:
        (workdir / f"{case.name}.json").write_text(json.dumps(case.doc))
    l2, l3 = gen.sweep_points(seed, 1)[0]
    (workdir / "sweep.json").write_text(json.dumps(
        {"count": CLI_SWEEP_SAMPLES, "seed": seed, "lambda2": l2, "lambda3": l3}))
    return cases, (l2, l3)


def cli_cold(args, run):
    import gen  # noqa: F401  (numpy is imported before set-up is timed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _cli_cold(args, run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_cold(args, run, workdir):
    py = sys.executable
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        cases, point = cli_inputs(args.seed, workdir)
        # a discarded fresh import warms the OS file cache, nothing inside
        # the program
        code, _, err = run_child([py, "-c", "import qmsderiv"])
        if code != 0:
            raise SystemExit(f"error: cannot import qmsderiv from {SRC}: {err}")
        setups.append(time.perf_counter() - t)

    span_files = []

    def command(label, *argv):
        if args.trace:
            spans = workdir / f"spans-{len(span_files)}-{label}.json"
            span_files.append(spans)
            return [py, str(HERE / "launch.py"), str(spans), label, *argv]
        return [py, "-m", "qmsderiv.cli", *argv]

    ops = []        # (case, check code, check s, report path, verify code, verify s)
    sweeps = []     # (code, seconds, csv path)
    rounds = 0
    t_loop = time.perf_counter()
    while True:
        for case in cases:
            report = workdir / f"{case.name}.r{rounds}.report.json"
            c_code, c_s, _ = run_child(command(case.name, "check",
                                               str(workdir / f"{case.name}.json"),
                                               "--out", str(report)))
            v_code, v_s = None, 0.0
            if report.is_file():
                v_code, v_s, _ = run_child(command(case.name, "verify", str(report)))
            ops.append((case, c_code, c_s, report, v_code, v_s))
        csv_path = workdir / f"sweep.r{rounds}.csv"
        code, s, _ = run_child(command("sweep", "sweep", str(workdir / "sweep.json"),
                                       "--out", str(csv_path)))
        sweeps.append((code, s, csv_path))
        rounds += 1
        if time.perf_counter() - t_loop >= args.seconds:
            break
    run.loop_s = time.perf_counter() - t_loop
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

    evidence = Evidence()
    for case, c_code, c_s, report, v_code, v_s in ops:
        run.attempted += 1
        kind = EXIT_KINDS.get(c_code)
        if kind is None or not report.is_file():
            run.failed += 1
            continue
        run.report_bytes.append(report.stat().st_size)
        verdict = json.loads(report.read_text())["verdict"]
        if verdict["kind"] != kind:
            run.wrong(f"{case.name}: exit code {c_code} but report says {verdict['kind']}")
        if v_code != 0:
            run.wrong(f"{case.name}: qmsderiv verify exited {v_code}")
        certificate = witness = None
        if kind == "FEASIBLE":
            certificate = [[complex(*z) for z in row] for row in verdict["certificate"]]
        elif kind == "NOT_PSD":
            witness = [complex(*z) for z in verdict["witness"]["vector"]]
        judge(run, evidence, case, kind, certificate, witness)
    for code, _, csv_path in sweeps:
        run.attempted += 1
        if code is None or not csv_path.is_file():
            run.failed += 1
            continue
        if code != 0:
            run.wrong(f"qmsderiv sweep exited {code}")
        check_sweep_csv(run, csv_path, point)

    n2 = [op for op in ops if op[0].n == 2]
    n3 = [op for op in ops if op[0].n == 3]
    # the operations at the median time of their kind: the first LAPACK call
    # of a fresh process sometimes stalls for seconds, and one such child
    # would otherwise carry the whole run
    kinds = ([op[2] + op[5] for op in n2], [op[2] + op[5] for op in n3],
             [s for _, s, _ in sweeps])
    typical_s = sum(len(times) * median(times) for times in kinds)
    run.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "latency_s": (median(kinds[1]), "s"),
        "throughput_per_s": ((len(ops) + len(sweeps)) / typical_s, "1/s"),
    }
    run.figures = {
        "check_n2_s": (median([op[2] for op in n2]), "s", len(n2)),
        "check_n3_s": (median([op[2] for op in n3]), "s", len(n3)),
        "verify_n3_s": (median([op[5] for op in n3]), "s", len(n3)),
        "sweep_cli_s": (median([s for _, s, _ in sweeps]), "s", len(sweeps)),
    }
    run.processes = [json.loads(path.read_text())
                     for path in span_files if path.is_file()]


def check_sweep_csv(run, path, point):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    if len(rows) != CLI_SWEEP_SAMPLES:
        run.wrong(f"sweep CSV has {len(rows)} rows, expected {CLI_SWEEP_SAMPLES}")
    for row in rows:
        l2, l3 = float(row["lambda2"]), float(row["lambda3"])
        if abs(l2 - point[0]) > 1e-12 * point[0] or abs(l3 - point[1]) > 1e-12 * point[1]:
            run.wrong(f"sweep row at ({l2}, {l3}), pinned at {point}")
        y = [float(row[k]) for k in ("y11", "y12", "y13", "y22", "y23", "y33")]
        expected = on_hyperplane(l2, l3, y)
        if row["consistent"] != str(expected).lower():
            run.wrong(f"sweep sample {row['sample_id']}: consistent="
                      f"{row['consistent']}, predicate says {expected}")


# ---------------------------------------------------------------------------
# warm-decide and sweep-rhs: one long-lived process
# ---------------------------------------------------------------------------

# the set-up sweep runs at the paper's transcendental point
SETUP_PIN = (3.141592653589793, 23.140692632779267)


def warm_setup(workload, seed, tracer=None):
    """Import, generate inputs and fill every cache; (seconds, state)."""
    t = time.perf_counter()
    import qmsderiv
    import_s = time.perf_counter() - t
    if tracer is not None:
        tracer.install()
    import gen

    def label(name):
        if tracer is not None:
            tracer.op = "setup/" + name

    presets = gen.presets()
    cases = gen.warm_corpus(seed) if workload == "warm-decide" else presets
    parsed = []
    for case in cases:
        label(case.name)
        problem = qmsderiv.parse_problem(case.doc)
        report = qmsderiv.validate_spec(problem.spec)
        if not report.ok:
            raise SystemExit(f"error: {case.name} fails validation: {report.messages}")
        parsed.append((case, problem))
    # deciding the presets fills the template, kernel and target-SVD caches
    # at n=2 and n=3; the two-sample sweep runs the right-hand-side path once
    names = {case.name for case in presets}
    for case, problem in parsed:
        if case.name in names:
            label(case.name)
            qmsderiv.decide(problem.spec, problem.s)
    label("sweep")
    qmsderiv.sweep(2, seed=0, pin=SETUP_PIN)
    points = gen.sweep_points(seed, SWEEP_POINTS) if workload == "sweep-rhs" else []
    if tracer is not None:
        tracer.op = "sweep"
    return time.perf_counter() - t, {"import_s": import_s, "parsed": parsed,
                                     "points": points}


def setup_probes(args):
    """Set-up times of fresh processes, each doing the whole set-up."""
    times = []
    for _ in range(SETUPS - 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def in_process(args, run):
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    probes = [] if args.trace else setup_probes(args)
    setup_s, state = warm_setup(args.workload, args.seed, tracer)
    if args.workload == "warm-decide":
        warm_decide(args, run, state, tracer)
    else:
        sweep_rhs(args, run, state, tracer)
    run.metrics["setup_s"] = (median(probes + [setup_s]), "s")
    if tracer is not None:
        run.processes = [tracer.record(state["import_s"])]


def warm_decide(args, run, state, tracer):
    import qmsderiv
    parsed = state["parsed"]
    ops = []        # (case, seconds, verdict or None)
    t_loop = time.perf_counter()
    while True:
        for case, problem in parsed:
            if tracer is not None:
                tracer.op = case.name
            t = time.perf_counter()
            try:
                verdict = qmsderiv.decide(problem.spec, problem.s)
            except qmsderiv.ToolError:
                verdict = None
            ops.append((case, time.perf_counter() - t, verdict))
        if time.perf_counter() - t_loop >= args.seconds:
            break
    run.loop_s = time.perf_counter() - t_loop
    rss = peak_rss_mb(resource.RUSAGE_SELF)

    evidence = Evidence()
    for case, _, verdict in ops:
        run.attempted += 1
        if verdict is None:
            judge(run, evidence, case, None)
        else:
            judge(run, evidence, case, verdict.kind, verdict.certificate,
                  verdict.witness_vector)
    n2 = [op[1] for op in ops if op[0].n == 2]
    n3 = [op[1] for op in ops if op[0].n == 3]
    # decisions that need no PSD search to the end: the known answer is
    # NOT_CONSISTENT or FEASIBLE (chosen by the generator, not by timing)
    quick = [op[1] for op in ops if op[0].n == 3 and op[0].expected != "NOT_PSD"]
    run.metrics = {
        "peak_rss_mb": (rss, "MB"),
        "latency_s": (trimmed_mean(quick), "s"),
        "throughput_per_s": (len(ops) / run.loop_s, "1/s"),
    }
    run.figures = {
        "decide_n2_s": (median(n2), "s", len(n2)),
        "decide_n3_s": (median(n3), "s", len(n3)),
        "decides_per_s": (len(ops) / run.loop_s, "1/s", len(ops)),
    }


def sweep_rhs(args, run, state, tracer):
    import qmsderiv
    calls = []      # (records, projected, seconds)
    rounds = 0
    t_loop = time.perf_counter()
    while True:
        for k, point in enumerate(state["points"]):
            for projected in (False, True):
                sweep_seed = ((args.seed * 1000 + rounds) * SWEEP_POINTS + k) * 2 \
                    + projected
                t = time.perf_counter()
                records = qmsderiv.sweep(SWEEP_SAMPLES, seed=sweep_seed, pin=point,
                                         project=projected, threads=1)
                calls.append((records, projected, time.perf_counter() - t))
        rounds += 1
        if time.perf_counter() - t_loop >= args.seconds:
            break
    run.loop_s = time.perf_counter() - t_loop
    rss = peak_rss_mb(resource.RUSAGE_SELF)

    for records, projected, _ in calls:
        if len(records) != SWEEP_SAMPLES:
            run.wrong(f"sweep returned {len(records)} records, "
                      f"asked for {SWEEP_SAMPLES}")
        for rec in records:
            run.attempted += 1
            if rec.error is not None:
                run.failed += 1
                continue
            on_plane = on_hyperplane(rec.p.lambda2, rec.p.lambda3, rec.Y.six())
            if projected and not on_plane:
                run.wrong(f"projected sample {rec.sample_id} is off the hyperplane")
            if rec.consistent != on_plane:
                run.wrong(f"sample {rec.sample_id} at ({rec.p.lambda2:.4g}, "
                          f"{rec.p.lambda3:.4g}): consistent={rec.consistent}, "
                          f"predicate says {on_plane}")
    samples = SWEEP_SAMPLES * len(calls)
    run.metrics = {
        "peak_rss_mb": (rss, "MB"),
        "latency_s": (trimmed_mean([s / SWEEP_SAMPLES for _, _, s in calls]), "s"),
        "throughput_per_s": (samples / run.loop_s, "1/s"),
    }
    run.figures = {
        "sweep_samples_per_s": (samples / run.loop_s, "1/s", samples),
    }


# ---------------------------------------------------------------------------

def layer_output(args, run):
    import tracing
    cost = tracing.span_cost()
    spans = sum(1 for p in run.processes for rec in p["spans"]
                if not rec[4].startswith("setup/"))    # those of the timed loop
    metrics = tracing.layer_metrics(run.processes, run.attempted,
                                    run.report_bytes, SRC)
    metrics["trace.overhead_share"] = (spans * cost / run.loop_s, "ratio")
    selfs = tracing.self_times(run.processes)
    print(f"tracing: {spans} timed spans in {len(run.processes)} processes, "
          f"{cost * 1e6:.2f} us each, about {spans * cost:.3f} s of "
          f"{run.loop_s:.3f} s timed")
    for module, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  self time {module:12s} {value:10.4f} s")
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps({"self_times": selfs, "processes": run.processes}))
    print(f"spans written to {dump.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qmsderiv" / "__init__.py").is_file():
        print(f"error: no qmsderiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_s, _ = warm_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # byte-compile the sources once, so that no timed import compiles them
    compileall.compile_dir(str(SRC), quiet=1)

    run = Run()
    if args.workload == "cli-cold":
        cli_cold(args, run)
    else:
        in_process(args, run)

    for name, (value, unit, count) in run.figures.items():
        basis = f"{count} operations" if unit.startswith("1/") else f"median of {count}"
        print(f"{name:22s} {value:12.6g} {unit:4s} ({basis})")
    for msg in run.errors:
        print(f"WRONG: {msg}")
    if args.trace:
        metrics = layer_output(args, run)
    else:
        metrics = run.metrics
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"wrong {len(run.errors)}, timed loop {run.loop_s:.2f} s")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
