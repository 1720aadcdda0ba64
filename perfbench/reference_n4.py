"""One traced cold decision at n=4, for the reference figures in README.md.

    python3 perfbench/reference_n4.py

The problem is a four-level chain at s = 1/2: density proportional to
diag(1, 2, 4, 8) and matrix-unit jump pairs between neighbouring levels.
It takes one to two minutes and about half a gigabyte, which is why no
timed workload contains it.
"""

import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402


def chain_doc():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    d /= d.sum()
    jumps = []
    for i in range(3):
        up = np.zeros((4, 4), dtype=complex)
        up[i, i + 1] = 1.0
        om = -math.log(d[i] / d[i + 1])
        jumps += [(up, om, 1.0), (up.T.copy(), -om, 1.0)]
    return gen.problem_doc(np.diag(d).astype(complex), jumps, 0.5)


def main():
    t = time.perf_counter()
    import qmsderiv
    import_s = time.perf_counter() - t
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "n4-chain"
    problem = qmsderiv.parse_problem(chain_doc())
    t = time.perf_counter()
    verdict = qmsderiv.decide(problem.spec, problem.s)
    wall = time.perf_counter() - t
    stages = {}
    for rec in tracer.spans:
        stages[rec[0]] = stages.get(rec[0], 0.0) + rec[2] - rec[1]
    print(f"verdict {verdict.kind}, decide {wall:.1f} s, import {import_s:.2f} s, "
          f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    print(f"PSD iterations {verdict.diagnostics.get('iterations', 0)}, "
          f"solution dim {verdict.nullspace_dim}")
    for name in ("constraints.system_template", "linalg.nullspace",
                 "feasibility._target_svd", "constraints.assemble",
                 "feasibility.solve_affine", "feasibility.psd_search",
                 "feasibility.witness_hunt", "linalg.herm_eig"):
        print(f"  {name:32s} {stages.get(name, 0.0):9.3f} s (inclusive)")
    kernel = [rec[6]["kernel_dim"] for rec in tracer.spans
              if rec[0] == "linalg.nullspace" and rec[6]]
    print(f"kernel dim {kernel}")


if __name__ == "__main__":
    main()
