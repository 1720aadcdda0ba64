"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_24.json [--seeds 1 5]

Extracts REV with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` there and in the working tree, alternately, PAIRS
times for every workload of BENCHMARK.json and every seed, each run as
long as BENCHMARK.json's ``run_seconds``; even pairs run the parent first,
odd pairs the change. Both sides must hold the same ``perfbench/`` and
``BENCHMARK.json``, so they differ only in the program.

The output holds every run and, per workload and seed, each side's failed
share (failed over attempted, all runs), whether every run was ``correct``
and, per end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the pairs the change won (ties count for neither side), ``gain``
(it won at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range) and
``within_bound`` (its median is not worse than the parent's by more than
the metric's bound). Each side's revision and ``src/`` line count are
recorded with them. One invocation writes the whole file, rewriting it
after each workload and seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """The files of rev, as git archive gives them, under dest."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def src_lines(root):
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_once(root, workload, seed, seconds):
    """The last line of one perfbench run, parsed: correct, attempted,
    failed and metrics."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {root} exited "
                         f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, spec):
    """The summary of one workload and seed from its pairs, each a dict
    with a "parent" and a "change" run; spec lists BENCHMARK.json's
    end-to-end metrics."""
    out = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        attempted = sum(r["attempted"] for r in runs)
        out[side] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / attempted
            if attempted else 0.0,
        }
    metrics = {}
    for m in spec:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        if name not in pairs[0]["parent"]["metrics"]:
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        parent, change = _spread(values["parent"]), _spread(values["change"])
        won = sum(sign * (c - p) < 0
                  for p, c in zip(values["parent"], values["change"]))
        better_by = sign * (parent["median"] - change["median"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "pairs_won": won, "pairs": len(pairs),
            "gain": won >= 0.9 * len(pairs)
            and better_by > parent["q3"] - parent["q1"],
            "within_bound": -better_by <= m["bound"] * abs(parent["median"]),
        }
    out["metrics"] = metrics
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if git("diff", "--stat", args.parent, "--", "perfbench", "BENCHMARK.json"):
        raise SystemExit("error: perfbench/ or BENCHMARK.json differ from "
                         f"{args.parent}; the sides must run one benchmark")
    dirty = git("status", "--porcelain", "--", "src")
    result = {
        "seconds": seconds,
        "parent": {"revision": git("rev-parse", args.parent)},
        "change": {"revision": git("rev-parse", "HEAD")
                   + ("+working-tree" if dirty else "")},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, roots["parent"])
        for side in SIDES:
            result[side]["src_lines"] = src_lines(roots[side])
        for workload in (w["name"] for w in bench["workloads"]):
            result["workloads"][workload] = {}
            for seed in args.seeds:
                pairs = []
                for k in range(PAIRS):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(roots[side], workload, seed,
                                              seconds)
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {k + 1}/{PAIRS}",
                          file=sys.stderr)
                summary = summarize(pairs, bench["end_to_end"])
                summary["runs"] = pairs
                result["workloads"][workload][str(seed)] = summary
                Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
