"""Problem-file schema, strict validation, and built-in reproduction presets.

A problem file is a single JSON object:

    {
      "n": 2,
      "density": {"diag": [0.66, 0.34]}   or a full matrix,
      "jumps": [{"V": [[0, 1], [0, 0]], "omega": -0.65, "weight": 1.0}],
      "s": 0.0,
      "tol": 1e-8
    }

Matrix entries are numbers (real) or [re, im] pairs; "density" may instead
be {"diag": [...]} for diagonal states. "omega" may be omitted per jump to
have the Bohr frequency derived from the state. Validation is strict:
unknown keys anywhere are rejected, and every error carries the JSON path
it refers to.

A sweep config (parse_sweep_config) is checked the same way: every key is
optional, and a value of the wrong type or out of range is a SchemaError.

The presets reproduce the package's four reference problems on M_2 and
M_3; their transcendental constants are evaluated once at import time in
binary64, and the evaluated values are what gets echoed into reports.
"""

import contextlib
import json
import math

import numpy as np

from .errors import SchemaError
from .linalg import DEFAULT_FEAS_TOL
from .qms import DensityState, make_spec

TOP_KEYS = {"n", "density", "jumps", "s", "tol"}


def _require(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _as_number(value, path):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:
        raise SchemaError(path, "lies beyond the float range") from None
    _require(math.isfinite(v), path, "must be finite")
    return v


def parse_s(value, path):
    """The inner-product parameter s: a number in [0, 1]."""
    s = _as_number(value, path)
    _require(0.0 <= s <= 1.0, path, "must lie in [0, 1]")
    return s


def _as_int(value, path):
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_entry(value, path):
    # number or [re, im]
    if isinstance(value, list):
        _require(len(value) == 2, path, "complex entry must be [re, im]")
        return complex(_as_number(value[0], path + "[0]"),
                       _as_number(value[1], path + "[1]"))
    return complex(_as_number(value, path), 0.0)


_type_of = np.frompyfunc(type, 1, 1)


def parse_vector(value, n, path):
    """Decode a length-n complex vector from a JSON list.

    Types, shape and finiteness are checked once, with numpy; the type test
    refuses bools, which a float conversion would read as 0 and 1. Only a
    vector that fails them, mixes numbers and [re, im] pairs or holds an
    integer beyond the float range, is decoded entry by entry, which names
    the first bad entry's path.
    """
    _require(isinstance(value, list) and len(value) == n,
             path, f"expected {n} entries")
    a = np.array(value, dtype=object)
    kind = _type_of(a)
    if a.shape in ((n,), (n, 2)) and ((kind == float) | (kind == int)).all():
        with contextlib.suppress(OverflowError):
            x = a.astype(float)
            if np.isfinite(x).all():
                return x.astype(complex) if x.ndim == 1 else x.view(complex)[:, 0]
    return np.array([_as_entry(entry, f"{path}[{k}]")
                     for k, entry in enumerate(value)], dtype=complex)


def parse_matrix(value, n, path):
    """Decode an n x n complex matrix from nested JSON lists."""
    _require(isinstance(value, list) and len(value) == n,
             path, f"expected {n} rows")
    return np.array([parse_vector(row, n, f"{path}[{i}]")
                     for i, row in enumerate(value)], dtype=complex)


def parse_density(value, n, path):
    if isinstance(value, dict):
        unknown = set(value) - {"diag"}
        _require(not unknown, path, f"unknown keys {sorted(unknown)}")
        _require("diag" in value, path, "expected 'diag' or a matrix")
        diag = value["diag"]
        _require(isinstance(diag, list) and len(diag) == n,
                 path + ".diag", f"expected {n} values")
        vals = [_as_number(v, f"{path}.diag[{k}]") for k, v in enumerate(diag)]
        return np.diag(np.array(vals, dtype=complex))
    return parse_matrix(value, n, path)


class ProblemFile:
    """Validated problem: the raw JSON echo plus constructed model objects
    (spec is a LindbladSpec); tol is the file's tolerance, None when absent."""

    def __init__(self, document, n, spec, s, tol):
        self.document, self.n, self.spec = document, n, spec
        self.s, self.tol = s, tol


def parse_problem(doc):
    """Validate a problem document and build the model objects.

    Raises SchemaError with a JSON path for structural problems; model
    invariant violations (non-positive density, trace off 1, sigma
    eigenvector failures) surface as the model's own ToolErrors.
    """
    _require(isinstance(doc, dict), "", "problem must be a JSON object")
    unknown = set(doc) - TOP_KEYS
    _require(not unknown, "", f"unknown keys {sorted(unknown)}")
    for key in ("n", "density", "jumps", "s"):
        _require(key in doc, "", f"missing required key '{key}'")

    n = _as_int(doc["n"], "n")
    _require(2 <= n, "n", "must be at least 2")
    s = parse_s(doc["s"], "s")

    D = parse_density(doc["density"], n, "density")
    state = DensityState.from_matrix(D)

    jumps_doc = doc["jumps"]
    _require(isinstance(jumps_doc, list), "jumps", "expected a list")
    jumps = []
    for k, item in enumerate(jumps_doc):
        path = f"jumps[{k}]"
        _require(isinstance(item, dict), path, "expected an object")
        unknown = set(item) - {"V", "omega", "weight"}
        _require(not unknown, path, f"unknown keys {sorted(unknown)}")
        _require("V" in item, path, "missing required key 'V'")
        V = parse_matrix(item["V"], n, path + ".V")
        omega = (_as_number(item["omega"], path + ".omega")
                 if "omega" in item else None)
        weight = (_as_number(item["weight"], path + ".weight")
                  if "weight" in item else 1.0)
        jumps.append((V, omega, weight))
    spec = make_spec(state, jumps)

    # the one optional setting; the rank cut and the PSD slack are fixed
    tol = None
    if "tol" in doc:
        tol = _as_number(doc["tol"], "tol")
        _require(tol > 0, "tol", "must be positive")
    return ProblemFile(doc, n, spec, s, tol)


def read_json(path):
    """The JSON document at path; SchemaError when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:     # a JSONDecodeError, or an over-long integer
        raise SchemaError("", f"{path} is not valid JSON: {exc}") from exc


def load_problem(path):
    return parse_problem(read_json(path))


SWEEP_KEYS = {"count", "seed", "project", "lambda2", "lambda3", "s",
              "agree_threshold", "tol"}


def parse_sweep_config(doc):
    """Validate a sweep config document and fill in its defaults.

    Every key is optional. Returns a dict with count, seed, project, pin
    ((lambda2, lambda3) or None), s, tol and agree_threshold.
    """
    _require(isinstance(doc, dict), "", "sweep config must be a JSON object")
    unknown = set(doc) - SWEEP_KEYS
    _require(not unknown, "", f"unknown keys {sorted(unknown)}")
    _require(("lambda2" in doc) == ("lambda3" in doc), "",
             "pin both lambda2 and lambda3 or neither")
    cfg = {"project": doc.get("project", False), "pin": None}
    _require(isinstance(cfg["project"], bool), "project", "expected true or false")
    for key, default in (("count", 200), ("seed", 42)):
        cfg[key] = _as_int(doc.get(key, default), key)
        _require(cfg[key] >= 0, key, "must be nonnegative")
    cfg["s"] = parse_s(doc.get("s", 0.0), "s")
    for key, default in (("tol", DEFAULT_FEAS_TOL), ("agree_threshold", 0.99)):
        cfg[key] = _as_number(doc.get(key, default), key)
    _require(cfg["tol"] > 0, "tol", "must be positive")
    _require(0.0 <= cfg["agree_threshold"] <= 1.0, "agree_threshold",
             "must lie in [0, 1]")
    if "lambda2" in doc:
        cfg["pin"] = (_as_number(doc["lambda2"], "lambda2"),
                      _as_number(doc["lambda3"], "lambda3"))
        for key, value in zip(("lambda2", "lambda3"), cfg["pin"]):
            _require(value > 0, key, "must be positive")
    return cfg


def load_sweep_config(path):
    return parse_sweep_config(read_json(path))


# ---------------------------------------------------------------------------
# Reference presets
# ---------------------------------------------------------------------------

class Preset:
    """A reference problem document, its expected verdict kind and a note."""

    def __init__(self, problem, expected, note):
        self.problem, self.expected, self.note = problem, expected, note


def _preset_2x2(s):
    pi = math.pi
    omega1 = -math.log((pi + 1.0) / (pi - 1.0))
    return {
        "n": 2,
        "density": {"diag": [(1.0 + 1.0 / pi) / 2.0, (1.0 - 1.0 / pi) / 2.0]},
        "jumps": [
            {"V": [[0, 1], [0, 0]], "omega": omega1},
            {"V": [[0, 0], [1, 0]], "omega": -omega1},
        ],
        "s": s,
    }


def _preset_3x3(s):
    pi, e = math.pi, math.e
    norm = 1.0 + pi ** 2 + e ** 2
    omega1 = -math.log(pi ** 2 / e ** 2)
    return {
        "n": 3,
        "density": {"diag": [1.0 / norm, pi ** 2 / norm, e ** 2 / norm]},
        "jumps": [
            {"V": [[0, 0, 0], [0, 0, 1], [0, 0, 0]], "omega": omega1},
            {"V": [[0, 0, 0], [0, 0, 0], [0, 1, 0]], "omega": -omega1},
        ],
        "s": s,
    }


def presets():
    """The four reference problems keyed by id."""
    return {
        "2x2-gns": Preset(_preset_2x2(0.0), "FEASIBLE",
                          "raising/lowering pair on M_2, GNS inner product"),
        "2x2-kms": Preset(_preset_2x2(0.5), "FEASIBLE",
                          "raising/lowering pair on M_2, KMS inner product"),
        "3x3-gns": Preset(_preset_3x3(0.0), "NOT_CONSISTENT",
                          "single off-diagonal pair on M_3, GNS inner product"),
        "3x3-kms": Preset(_preset_3x3(0.5), "NOT_PSD",
                          "single off-diagonal pair on M_3, KMS inner product"),
    }
