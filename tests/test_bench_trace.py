"""The benchmark's tracer reads system sizes off every assembled system."""

import json
import subprocess
import sys
from pathlib import Path

from qmsderiv.constraints import assemble
from qmsderiv.parametric import build_LY, sample_inputs

ROOT = Path(__file__).resolve().parents[1]

# run in a child process: installing the tracer rewraps the package in place
SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracing import Tracer
tracer = Tracer()
tracer.install()
import qmsderiv
problem = qmsderiv.parse_problem(qmsderiv.presets()["2x2-gns"].problem)
qmsderiv.decide(problem.spec, problem.s)
qmsderiv.sweep(2, seed=0)
print(json.dumps([span[6] for span in tracer.spans
                  if span[0] == "constraints.assemble"]))
"""


def test_assemble_spans_carry_hom_rows_and_nnz(preset_problems):
    script = SCRIPT.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    problem = preset_problems["2x2-gns"]
    systems = [assemble(problem.spec, problem.s)]
    systems += [assemble(build_LY(p, Y), 0.0) for _, p, Y in sample_inputs(2, 0)]
    assert json.loads(run.stdout) == [
        {"hom_rows": s.hom_row_count, "nnz": s.A.nnz} for s in systems]
