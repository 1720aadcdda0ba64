import numpy as np
import pytest

from qmsderiv.problems import parse_problem, presets
from qmsderiv.qms import DensityState, make_spec

# outcome per acceptance criterion, filled by the logreport hook
_CRITERIA = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _CRITERIA[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERIA):
        parts = name.split("_")
        label = " ".join(parts[3:])
        status = "PASS" if _CRITERIA[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {parts[2]} ({label}): {status}")


@pytest.fixture(scope="session")
def preset_table():
    return presets()


@pytest.fixture(scope="session")
def preset_problems(preset_table):
    return {pid: parse_problem(p.problem) for pid, p in preset_table.items()}


@pytest.fixture(scope="session")
def random_spec():
    """Builder of seeded specs with a non-diagonal density, arbitrary jumps
    and signed weights (not validated: L need not be symmetric)."""
    def build(seed, n, jumps=3):
        rng = np.random.default_rng(seed)

        def cmat():
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        W = cmat()
        D = W @ W.conj().T + 0.1 * np.eye(n)
        state = DensityState.from_matrix(D / np.trace(D).real)
        return make_spec(state, [(cmat(), rng.standard_normal(),
                                  rng.standard_normal()) for _ in range(jumps)])
    return build


@pytest.fixture(scope="session")
def relabel():
    """Builder of a problem document with its levels renamed, level i
    becoming perm[i]: D and every jump are conjugated by one permutation
    matrix, which permutes the matrix-unit basis and nothing else."""
    def as_json(M):
        return [[[float(z.real), float(z.imag)] for z in row] for row in M]

    def build(doc, perm):
        problem = parse_problem(doc)
        P = np.eye(problem.spec.n)[:, perm]
        return {"n": problem.spec.n, "s": problem.s,
                "density": as_json(P @ problem.spec.state.D @ P.T),
                "jumps": [{"V": as_json(P @ j.V @ P.T), "omega": j.omega,
                           "weight": j.weight} for j in problem.spec.jumps]}
    return build
