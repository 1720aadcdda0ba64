"""The benchmark's tracer reads system sizes off every assembled system."""

import json
import subprocess
import sys
from pathlib import Path

from qmsderiv.constraints import assemble

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
    # the decide assembles its one system; the sweep reads its right-hand
    # sides off the template and assembles none
    problem = preset_problems["2x2-gns"]
    system = assemble(problem.spec, problem.s)
    assert json.loads(run.stdout) == [
        {"hom_rows": system.hom_row_count, "nnz": system.A.nnz}]
