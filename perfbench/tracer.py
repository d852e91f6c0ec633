"""Per-layer tracing of the vcsqse package from outside it.

Each listed public function is replaced by a wrapper at every module
attribute bound to it: `from .x import f` copies the binding into the
importing module, and calls inside a module go through that module's
globals, so patching only the defining module would miss most calls. All
bindings of one function share one wrapper, so each call is one span.

Spans are kept in memory as (name, start, end, parent, pass_id) and written
out once the pass ends. Nothing is wrapped unless install() is called, which
only the traced run does.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# The layers are the package's modules; each lists the functions traced in it.
LAYERS = {
    "molecule": ("load_sweep", "parse_fcidump", "assemble_hamiltonian",
                 "spin_orbital_tensors", "hamiltonian_from_tensors"),
    "operators": ("fermion_to_dense", "pauli_to_dense", "jordan_wigner",
                  "normal_order", "commutator", "symmetry_operator"),
    "channels": ("single_qubit_channel", "lift_to_register", "apply_channel"),
    "vcs": ("solve_vcs", "no_variation_baseline", "transform_hamiltonian",
            "fidelity"),
    "linalg": ("hermitian_eigensolve", "generalized_eigensolve"),
    "rdm": ("compute_rdms", "cumulants_from_rdms", "reconstruct_rdms", "wedge",
            "expectation_from_rdms", "contract_energy", "sample_rdms",
            "estimate_pauli"),
    "qse": ("fermionic_basis", "qubit_basis", "build_subspace_direct",
            "build_lr_from_rdms", "approximate_lr", "project_symmetry",
            "solve_subspace", "subspace_expectation"),
    "experiments": ("run_experiment", "single_point"),
}

# Extra per-layer metrics with their units; byte counts are computed from
# array sizes, not measured traffic.
EXTRA_METRICS = {
    "channels.lift_to_register.bytes": "bytes",
    "channels.lift_to_register.distinct_frac": "ratio",
    "rdm.compute_rdms.bytes": "bytes",
    "rdm.estimate_pauli.shots": "count",
    "linalg.generalized_eigensolve.retained_frac": "ratio",
    "linalg.generalized_eigensolve.errors": "count",
    "trace.overhead_frac": "ratio",
}


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(obj):
    """Total nbytes of the arrays held by obj, its lists and its attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x) for x in vars(obj).values())
    return 0


def _observe_lift(tracer, args, kwargs, result):
    per_qubit = _arg(args, kwargs, 0, "per_qubit")
    n = _arg(args, kwargs, 1, "n")
    key = (b"".join(np.ascontiguousarray(k).tobytes() for k in per_qubit.kraus_ops), n)
    tracer.counters["channels.lift_to_register.bytes"] += _nbytes(result)
    tracer.distinct.add(key)


def _observe_rdms(tracer, args, kwargs, result):
    tracer.counters["rdm.compute_rdms.bytes"] += _nbytes(result)


def _observe_shots(tracer, args, kwargs, result):
    tracer.counters["rdm.estimate_pauli.shots"] += _arg(args, kwargs, 2, "shots")


def _observe_gen_eig(tracer, args, kwargs, result):
    tracer.counters["retained"] += result.retained_dim
    tracer.counters["input_dim"] += np.shape(_arg(args, kwargs, 0, "h"))[0]


OBSERVERS = {
    "channels.lift_to_register": _observe_lift,
    "rdm.compute_rdms": _observe_rdms,
    "rdm.estimate_pauli": _observe_shots,
    "linalg.generalized_eigensolve": _observe_gen_eig,
}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []          # [name, start, end, parent index or -1, pass_id]
        self.stack = []
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.distinct = set()

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped so each call records one span under `name`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.pass_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "errors": dict(self.errors),
                       "counters": dict(self.counters),
                       "distinct": len(self.distinct)}, fh)


def install(tracer, layers=LAYERS, package="vcsqse"):
    """Wrap every listed function at each module attribute bound to it.

    A function missing from its module is skipped and reads zero calls.
    Returns the names that were wrapped.
    """
    importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}")
               for layer in layers}
    loaded = [mod for key, mod in list(sys.modules.items())
              if key == package or key.startswith(package + ".")]
    wrapped = []
    for layer, names in layers.items():
        for fn_name in names:
            original = getattr(modules[layer], fn_name, None)
            if original is None:
                continue
            name = f"{layer}.{fn_name}"
            wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            wrapped.append(name)
    return wrapped


def self_times(spans):
    """Per-name (calls, self seconds) and the total time of root spans.

    Self time is a span's duration minus the durations of its direct
    children; the pass is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    own = defaultdict(float)
    root = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child[i]
        if parent < 0:
            root += end - start
    return calls, own, root


def pass_metrics(trace):
    """Per-layer metrics of one traced pass from its written trace."""
    calls, own, _ = self_times(trace["spans"])
    counters = trace["counters"]
    out = {}
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for fn in names:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
            layer_self += own.get(name, 0.0)
        out[f"{layer}.self_s"] = layer_self
    lifts = calls.get("channels.lift_to_register", 0)
    out["channels.lift_to_register.bytes"] = counters.get(
        "channels.lift_to_register.bytes", 0)
    out["channels.lift_to_register.distinct_frac"] = (
        trace["distinct"] / lifts if lifts else 0.0)
    out["rdm.compute_rdms.bytes"] = counters.get("rdm.compute_rdms.bytes", 0)
    out["rdm.estimate_pauli.shots"] = counters.get("rdm.estimate_pauli.shots", 0)
    dims = counters.get("input_dim", 0)
    out["linalg.generalized_eigensolve.retained_frac"] = (
        counters.get("retained", 0) / dims if dims else 0.0)
    out["linalg.generalized_eigensolve.errors"] = trace["errors"].get(
        "linalg.generalized_eigensolve", 0)
    return out


def mean_metrics(per_pass):
    """Mean over passes of each metric."""
    return {key: statistics.fmean(p[key] for p in per_pass) for key in per_pass[0]}
