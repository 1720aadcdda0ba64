"""Feasibility of derivation-squared form for symmetric Lindblad generators.

Given a faithful state on a matrix algebra and a detailed-balanced Lindblad
generator, decide whether the generator can be written as delta* compose
delta for a derivation delta into a two-sided module, by solving the linear
constraint system for the module's defining Hermitian form and searching
its solution set for a positive semidefinite point.
"""

from .constraints import (ConstraintSystem, TensorElem, assemble, dump_system,
                          left_act, psi_index, right_act, target_form)
from .errors import (DimensionMismatch, IndexOutOfRange, NoConvergence,
                     NotHermitian, SchemaError, SizeCapExceeded, ToolError)
from .feasibility import (AffineSolutionSet, EXIT_CODES, FEASIBLE,
                          FeasibilityVerdict, INDETERMINATE, NOT_CONSISTENT,
                          NOT_PSD, decide, psd_search, solve_affine,
                          verdict_for, witness_check, witness_hunt)
from .linalg import hermitian_decode, hermitian_encode, nullspace
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
    "IndexOutOfRange",
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
    "TensorElem",
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
    "left_act",
    "lindblad_apply",
    "load_problem",
    "make_spec",
    "modular_conjugate",
    "nullspace",
    "parse_problem",
    "predicate_coefficients",
    "predicate_lhs",
    "presets",
    "project_to_hyperplane",
    "psd_search",
    "psi_index",
    "right_act",
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
