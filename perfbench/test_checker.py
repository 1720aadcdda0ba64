"""Self-tests of the benchmark's checker and generator.

    python3 -m pytest perfbench/test_checker.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import gen  # noqa: E402


@pytest.fixture(scope="module")
def actions3():
    return checker.action_matrices(3)


def _decide(case):
    from qmsderiv import decide, parse_problem
    problem = parse_problem(case.doc)
    return decide(problem.spec, problem.s)


def test_paper_witness_value(actions3):
    kms = gen.presets()[3]
    ok, _, value = checker.check_witness(checker.System(kms.doc, actions3), kms.witness)
    assert ok
    assert abs(gen.paper_witness_value() - (-1.2388)) < 5e-5
    assert abs(value - gen.paper_witness_value()) <= 1e-6


def test_rejects_forged_witness(actions3):
    kms = gen.presets()[3]
    system = checker.System(kms.doc, actions3)
    forged = kms.witness.copy()
    forged[gen.psi(3, 1, 1, 1, 1)] = 0.5          # leaves the row space
    ok, msg, _ = checker.check_witness(system, forged)
    assert not ok and "row space" in msg
    # the same two-term vector where its value is positive (l2 + l3 < 2)
    weak = gen.kms_pair(0.5, 0.6, "weak")
    ok, msg, value = checker.check_witness(checker.System(weak.doc, actions3), weak.witness)
    assert not ok and value > 0 and "not negative" in msg
    assert abs(value - weak.witness_value) <= 1e-6


def test_rejects_perturbed_certificate():
    case = gen.presets()[0]
    system = checker.System(case.doc, checker.action_matrices(2))
    X = np.asarray(_decide(case).certificate)
    assert checker.check_certificate(system, X)[0]
    ok, msg = checker.check_certificate(system, X + 1e-4 * np.eye(X.shape[0]))
    assert not ok and "residual" in msg
    shifted = X - (np.linalg.eigvalsh(X)[-1] + 1.0) * np.eye(X.shape[0])
    assert not checker.check_certificate(system, shifted)[0]


def test_rotated_twin_keeps_its_witness(actions3):
    rng = np.random.default_rng(7)
    case = gen.kms_member(rng, "kms")
    twin = gen.rotate(case, gen.random_unitary(rng, 3), "kms-rot")
    ok, _, value = checker.check_witness(checker.System(twin.doc, actions3), twin.witness)
    assert ok and abs(value - case.witness_value) <= 1e-6


def test_pinned_problem_is_not_psd(actions3):
    case = gen.pinned_kms()
    assert case.expected == gen.NOT_PSD
    ok, msg, _ = checker.check_witness(checker.System(case.doc, actions3), case.witness)
    assert ok, msg


def test_restated_predicate_matches_docstring_form():
    from qmsderiv.parametric import LambdaPoint, predicate_coefficients
    for l2, l3 in ((0.7, 2.2), (math.pi, math.e ** math.pi), (3.0, 0.4)):
        assert np.allclose(gen.predicate_coefficients(l2, l3),
                           predicate_coefficients(LambdaPoint(l2, l3)),
                           rtol=1e-12, atol=1e-12)


def test_generator_is_seeded():
    a = [c.doc for c in gen.warm_corpus(3)]
    assert a == [c.doc for c in gen.warm_corpus(3)]
    assert a != [c.doc for c in gen.warm_corpus(4)]
    assert gen.pinned_kms().doc == gen.pinned_kms().doc
