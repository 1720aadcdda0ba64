"""Spans around the program's public functions, installed from outside.

``install`` wraps every public function of the seven modules, the method
``ConstraintSystem.with_target_form``, and one private stage that no public
function isolates, ``feasibility._target_svd``. Each wrapper replaces the
original wherever a module of the package holds a reference to it, so calls
between modules are traced too. Nothing under ``src/`` changes.

A span is (name, start, end, parent, op, n, info): ``parent`` indexes the
enclosing span, ``op`` is the label of the operation that caused it (the
problem's name, prefixed ``setup/`` during set-up), ``n`` the algebra size
where the call reveals it, ``info`` a few result counts.
Spans stay in memory and are written out at the end of the run.
"""

import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

MODULES = ("cli", "problems", "qms", "constraints", "linalg", "feasibility",
           "parametric")
PRIVATE_STAGES = {"feasibility": ("_target_svd",)}
METHODS = {"constraints": (("ConstraintSystem", "with_target_form"),)}

# seed-independent problems: their counts repeat exactly on every run
FIXED_OPS = ("2x2-gns", "2x2-kms", "3x3-gns", "3x3-kms", "kms-2pair-rotated")


def _n_of_cols(cols):
    # Hermitian coordinates of an n^4 x n^4 matrix: n^8 unknowns
    return round(cols ** 0.125)


def _size(name, args):
    try:
        if name == "constraints.system_template":
            return int(args[0])
        if name == "linalg.nullspace":
            return _n_of_cols(args[0].shape[1])
        if name in ("constraints.assemble", "feasibility.decide",
                    "constraints.target_form"):
            return int(args[0].n)
        if name in ("feasibility.solve_affine", "feasibility._target_svd",
                    "constraints.ConstraintSystem.with_target_form"):
            return int(args[0].n)
        if name in ("feasibility.psd_search", "feasibility.witness_hunt",
                    "feasibility.verdict_for"):
            return int(args[0].system.n)
    except (AttributeError, IndexError, TypeError, ValueError):
        return None
    return None


def _info(name, result):
    if name == "linalg.nullspace":
        return {"kernel_dim": int(result.shape[0])}
    if name == "constraints.assemble":
        return {"hom_rows": int(result.hom_row_count), "nnz": int(result.A.nnz)}
    if name == "parametric.sweep":
        return {"samples": len(result)}
    if name == "feasibility.psd_search":
        d = result.diagnostics
        return {"kind": result.kind, "iterations": int(d.get("iterations", 0)),
                "restarts_used": d.get("restarts_used")}
    return None


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup/"

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   _size(name, args), None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[6] = _info(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the package's public functions in place; returns the count."""
        mods = {name: importlib.import_module(f"qmsderiv.{name}")
                for name in MODULES}
        holders = [importlib.import_module("qmsderiv"), *mods.values()]
        replaced = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_STAGES.get(name, ()):
                    continue
                replaced[id(obj)] = (obj, self.wrap(f"{name}.{attr}", obj))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, attr, hit[1])
        for name, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(mods[name], cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, meth, self.wrap(f"{name}.{cls_name}.{meth}", fn))
        return len(replaced)

    def record(self, import_s):
        return {"import_s": import_s, "spans": self.spans}

    def dump(self, path, import_s):
        Path(path).write_text(json.dumps(self.record(import_s)))


def span_cost(samples=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("calibrate.noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        del tracer.spans[:]
        t0 = clock()
        for _ in range(samples):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(samples):
            wrapped()
        best = min(best, (clock() - t0 - bare) / samples)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Per-layer metrics from a set of processes' spans
# ---------------------------------------------------------------------------

def _dur(rec):
    return rec[2] - rec[1]


def _mean(values):
    return float(statistics.fmean(values)) if values else 0.0


# stages that fill a cache on their first call at a size
COLD_STAGES = ("constraints.system_template", "linalg.nullspace",
               "feasibility._target_svd")


def _nested(spans, names):
    """Index of span -> summed duration of the spans named in ``names``
    nested (at any depth) inside it."""
    out = {}
    for rec in spans:
        if rec[0] in names:
            parent = rec[3]
            while parent >= 0:
                out[parent] = out.get(parent, 0.0) + _dur(rec)
                parent = spans[parent][3]
    return out


def self_times(processes):
    """Total self time per module over all spans of all processes."""
    out = {}
    for proc in processes:
        spans = proc["spans"]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += _dur(rec)
        for idx, rec in enumerate(spans):
            module = rec[0].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + _dur(rec) - child[idx]
    return out


def layer_metrics(processes, loop_ops, report_bytes, src_dir):
    """The per-layer metrics, as {name: (value, unit)}.

    ``processes`` holds one {"import_s", "spans"} record per traced process;
    ``loop_ops`` is the number of timed operations, the base of the
    per-operation counts; ``report_bytes`` the sizes of reports written.
    """
    by_name = {}
    first = {}          # (process, name, n) -> span of the first call
    for p_idx, proc in enumerate(processes):
        for idx, rec in enumerate(proc["spans"]):
            by_name.setdefault(rec[0], []).append((p_idx, idx, rec))
            first.setdefault((p_idx, rec[0], rec[5]), rec)

    def calls(name, n=None):
        return [rec for _, _, rec in by_name.get(name, ())
                if n is None or rec[5] == n]

    def per_call(name, n=None):
        return _mean([_dur(rec) for rec in calls(name, n)])

    def cold(name, n):
        return _mean([_dur(rec) for (p, nm, size), rec in first.items()
                      if nm == name and size == n])

    cold_inside = [_nested(proc["spans"], COLD_STAGES) for proc in processes]

    def warm(name, n=None):
        # call duration minus the cold cache fills nested inside it
        return [_dur(rec) - cold_inside[p_idx].get(idx, 0.0)
                for p_idx, idx, rec in by_name.get(name, ())
                if n is None or rec[5] == n]

    def last_info(name, key, n):
        for rec in reversed(calls(name, n)):
            if rec[6] and key in rec[6]:
                return rec[6][key]
        return 0

    seen = {}
    for rec in calls("feasibility.psd_search"):
        problem = rec[4].rsplit("/", 1)[-1]
        if problem in FIXED_OPS and problem not in seen and rec[6]:
            seen[problem] = rec[6]
    iterations = sum(i["iterations"] for i in seen.values())
    # only a search that returns a certificate reports its restarts; the
    # others are not guessed, since their passes cannot be told apart in spans
    restarts = sum(i["restarts_used"] or 0 for i in seen.values())

    # whole sweep calls, cold cache fills left out, over the samples they made
    sweeps = [(d, rec[6]["samples"]) for d, rec in
              zip(warm("parametric.sweep"), calls("parametric.sweep")) if rec[6]]

    loop = max(loop_ops, 1)

    def per_op(name):
        timed = [r for r in calls(name) if not r[4].startswith("setup/")]
        return len(timed) / loop

    metrics = {
        "cli.import_s": (_mean([p["import_s"] for p in processes
                                if p.get("import_s")]), "s"),
        "cli.report_bytes": (float(statistics.median(report_bytes))
                             if report_bytes else 0.0, "bytes"),
        "problems.parse_s": (per_call("problems.parse_problem"), "s"),
        "qms.validate_s": (per_call("qms.validate_spec"), "s"),
        "qms.lindblad_apply_calls": (per_op("qms.lindblad_apply"), "count"),
        "constraints.template_n2_s": (cold("constraints.system_template", 2), "s"),
        "constraints.template_n3_s": (cold("constraints.system_template", 3), "s"),
        "constraints.hom_rows": (
            last_info("constraints.assemble", "hom_rows", 3), "count"),
        "constraints.system_nnz": (
            last_info("constraints.assemble", "nnz", 3), "count"),
        "constraints.assemble_s": (_mean(warm("constraints.assemble", 3)), "s"),
        "constraints.target_form_s": (per_call("constraints.target_form", 3), "s"),
        "constraints.with_target_form_s": (per_call(
            "constraints.ConstraintSystem.with_target_form", 3), "s"),
        "linalg.nullspace_n2_s": (cold("linalg.nullspace", 2), "s"),
        "linalg.nullspace_n3_s": (cold("linalg.nullspace", 3), "s"),
        "linalg.kernel_dim": (
            last_info("linalg.nullspace", "kernel_dim", 3), "count"),
        "linalg.herm_eig_calls": (per_op("linalg.herm_eig"), "count"),
        "linalg.herm_eig_s": (per_call("linalg.herm_eig"), "s"),
        "feasibility.target_svd_s": (cold("feasibility._target_svd", 3), "s"),
        "feasibility.solve_affine_s": (
            _mean(warm("feasibility.solve_affine", 3)), "s"),
        "feasibility.psd_search_s": (per_call("feasibility.psd_search"), "s"),
        "feasibility.psd_iterations": (iterations, "count"),
        "feasibility.restarts_used": (restarts, "count"),
        "feasibility.witness_hunt_s": (per_call("feasibility.witness_hunt"), "s"),
        "parametric.sample_s": (sum(d for d, _ in sweeps)
                                / max(sum(k for _, k in sweeps), 1), "s"),
    }
    for module in MODULES:
        path = Path(src_dir) / "qmsderiv" / f"{module}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        metrics[f"{module}.src_lines"] = (lines, "lines")
    return metrics
