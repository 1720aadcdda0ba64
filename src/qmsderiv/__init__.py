"""Feasibility of derivation-squared form for symmetric Lindblad generators.

Given a faithful state on a matrix algebra and a detailed-balanced Lindblad
generator, decide whether the generator can be written as delta* compose
delta for a derivation delta into a two-sided module, by solving the linear
constraint system for the module's defining Hermitian form and searching
its solution set for a positive semidefinite point.
"""

import os

# a second BLAS thread only waits at these sizes (81 x 81 at n = 3)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constraints import (ConstraintSystem, assemble, dump_system,
                          left_action, psi_vector, right_action, target_form)
from .errors import (DimensionMismatch, NoConvergence, NotHermitian,
                     SchemaError, SizeCapExceeded, ToolError)
from .feasibility import (AffineSolutionSet, EXIT_CODES, FEASIBLE,
                          FeasibilityVerdict, INDETERMINATE, NOT_CONSISTENT,
                          NOT_PSD, decide, psd_search, solve_affine,
                          verdict_for, witness_check, witness_hunt)
from .linalg import hermitian_decode, hermitian_encode
from .parametric import (LambdaPoint, SweepRecord, YMatrix, agreement_rate,
                         build_LY, diag_jump_identity, predicate_coefficients,
                         predicate_lhs, project_to_hyperplane,
                         solvable_predicate, sweep)
from .problems import ProblemFile, Preset, load_problem, parse_problem, presets
from .qms import (DensityState, Jump, LindbladSpec, ValidationReport,
                  derive_omega, gns_symmetry_check, lindblad_apply, make_spec,
                  modular_conjugate, s_inner, validate_spec)

__version__ = "0.1.0"

__all__ = [
    "AffineSolutionSet",
    "ConstraintSystem",
    "DensityState",
    "DimensionMismatch",
    "EXIT_CODES",
    "FEASIBLE",
    "FeasibilityVerdict",
    "INDETERMINATE",
    "Jump",
    "LambdaPoint",
    "LindbladSpec",
    "NOT_CONSISTENT",
    "NOT_PSD",
    "NoConvergence",
    "NotHermitian",
    "Preset",
    "ProblemFile",
    "SchemaError",
    "SizeCapExceeded",
    "SweepRecord",
    "ToolError",
    "ValidationReport",
    "YMatrix",
    "agreement_rate",
    "assemble",
    "build_LY",
    "decide",
    "derive_omega",
    "diag_jump_identity",
    "dump_system",
    "gns_symmetry_check",
    "hermitian_decode",
    "hermitian_encode",
    "left_action",
    "lindblad_apply",
    "load_problem",
    "make_spec",
    "modular_conjugate",
    "parse_problem",
    "predicate_coefficients",
    "predicate_lhs",
    "presets",
    "project_to_hyperplane",
    "psd_search",
    "psi_vector",
    "right_action",
    "s_inner",
    "solvable_predicate",
    "solve_affine",
    "sweep",
    "target_form",
    "validate_spec",
    "verdict_for",
    "witness_check",
    "witness_hunt",
]
