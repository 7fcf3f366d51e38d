"""Outside-in per-layer tracing of gcakit, installed from the benchmark.

``Tracer.install`` wraps the public functions and methods of each layer:

* every binding of a wrapped module-level function in every loaded
  ``gcakit.*`` module is replaced (modules import names directly, so
  ``gcakit.cli.build_representation`` and ``gcakit.repbuilder.build_representation``
  are separate bindings);
* methods are patched on their classes.

Module-level calls and the methods of the heavier classes record spans
(id, name, start, end, parent span, call id) in memory.  The methods of
``Phase`` and ``MonomialMatrix`` run tens of thousands of times per call, so
they are only counted and timed, aggregated per parent span.  A leaf call
made from inside the same layer is counted but not timed: its time already
belongs to the enclosing frame of that layer.

Self time of a frame is its duration minus the time of its child frames,
and is credited to the frame's group (a layer, or a part of one).
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# layer -> module; every function in the module's __all__ is wrapped
LAYER_MODULES = {
    "phase": "gcakit.phase",
    "matrices": "gcakit.matrices",
    "skewnormal": "gcakit.skewnormal",
    "weylpairs": "gcakit.weylpairs",
    "repbuilder": "gcakit.repbuilder",
    "lmatrix": "gcakit.lmatrix",
    "phasespace": "gcakit.phasespace",
    "serialize": "gcakit.serialize",
    "cli": "gcakit.cli",
}

# function or Class.method -> group, where a layer has more than one part
GROUPS = {
    "weylpairs.sylvester": "weylpairs.dense",
    "weylpairs.sylvester_inverse": "weylpairs.dense",
    "weylpairs.hermitian_logs": "weylpairs.dense",
    "repbuilder.verify_relations": "repbuilder.verify",
    "repbuilder.verify_gca": "repbuilder.verify",
    "repbuilder.FactorSet.validate": "repbuilder.validate",
    "repbuilder.FactorSet.__init__": "repbuilder.projective",
    "repbuilder.FactorSet.bilinear": "repbuilder.projective",
    "repbuilder.FactorSet.trivial": "repbuilder.projective",
    "repbuilder.projective_rep": "repbuilder.projective",
    "phasespace.weyl_word": "phasespace.decompose",
    "phasespace.schwinger_coeffs": "phasespace.decompose",
    "phasespace.schwinger_reconstruct": "phasespace.decompose",
    "phasespace.diagonal_slice_decomposition": "phasespace.decompose",
    "phasespace.wigner_forward": "phasespace.wigner",
    "phasespace.wigner_inverse": "phasespace.wigner",
    "phasespace.WignerTable.__post_init__": "phasespace.wigner",
    "phasespace.compose_params": "phasespace.canonical",
    "phasespace.canonical_pair": "phasespace.canonical",
    "phasespace.canonical_intertwiner": "phasespace.canonical",
    "phasespace.CanonicalParams.__post_init__": "phasespace.canonical",
    "phasespace.magnetic_translation_rep": "phasespace.magnetic",
    "phasespace.bloch_phase": "phasespace.magnetic",
    "phasespace.MagneticLattice.__post_init__": "phasespace.magnetic",
    "serialize.doc_to_matrix": "serialize.parse",
    "serialize.doc_to_factor_set": "serialize.parse",
    "serialize.doc_to_flux": "serialize.parse",
}
DEFAULT_GROUP = {
    "weylpairs": "weylpairs.pair",
    "repbuilder": "repbuilder.build",
    "phasespace": "phasespace.decompose",
    "serialize": "serialize.emit",
}

# hot leaf classes: counted and timed per parent span, no spans of their own
LEAF_METHODS = {
    ("phase", "Phase"): (
        "__post_init__", "__mul__", "__truediv__", "__pow__", "__eq__", "inverse",
        "conjugate", "root", "to_complex", "from_fraction", "from_complex", "is_one",
    ),
    ("matrices", "MonomialMatrix"): (
        "__post_init__", "__matmul__", "__eq__", "adjoint", "inverse", "__pow__", "tensor",
        "scale", "to_dense", "trace_exact", "scalar_phase", "is_identity", "identity",
        "diagonal",
    ),
}
# methods of other classes that do real work, recorded as spans
SPAN_METHODS = {
    ("skewnormal", "SkewNormalForm"): ("tcal",),
    ("repbuilder", "GcaSpec"): ("__post_init__",),
    ("repbuilder", "FactorSet"): ("__init__", "validate", "bilinear", "trivial"),
    ("lmatrix", "LSpec"): ("__post_init__",),
    ("phasespace", "WignerTable"): ("__post_init__",),
    ("phasespace", "CanonicalParams"): ("__post_init__",),
    ("phasespace", "MagneticLattice"): ("__post_init__",),
}

SELF_METRICS = {
    "phase.self_s": "phase",
    "matrices.self_s": "matrices",
    "skewnormal.self_s": "skewnormal",
    "weylpairs.pair_self_s": "weylpairs.pair",
    "weylpairs.dense_self_s": "weylpairs.dense",
    "repbuilder.build_self_s": "repbuilder.build",
    "repbuilder.verify_self_s": "repbuilder.verify",
    "repbuilder.factorset_validate_s": "repbuilder.validate",
    "repbuilder.projective_self_s": "repbuilder.projective",
    "phasespace.decompose_self_s": "phasespace.decompose",
    "phasespace.wigner_self_s": "phasespace.wigner",
    "phasespace.canonical_self_s": "phasespace.canonical",
    "phasespace.magnetic_self_s": "phasespace.magnetic",
    "lmatrix.self_s": "lmatrix",
    "serialize.emit_self_s": "serialize.emit",
    "serialize.parse_self_s": "serialize.parse",
    "cli.self_s": "cli",
}
COUNT_METRICS = {
    "phase.new_calls": ("Phase.__post_init__",),
    "phase.mul_calls": ("Phase.__mul__",),
    "phase.to_complex_calls": ("Phase.to_complex",),
    "matrices.matmul_calls": ("MonomialMatrix.__matmul__",),
    "matrices.pow_calls": ("MonomialMatrix.__pow__",),
    "matrices.tensor_calls": ("MonomialMatrix.tensor",),
    "matrices.phase_sum_calls": ("phase_sum", "MonomialMatrix.trace_exact"),
    "matrices.to_dense_calls": ("MonomialMatrix.to_dense",),
    "skewnormal.snf_calls": ("skew_normal_form",),
    "repbuilder.verify_calls": ("verify_relations",),
}
REP_BUILDERS = ("build_representation", "clifford_generators", "ordered_gca_generators")


def _group(layer: str, key: str) -> str:
    return GROUPS.get(f"{layer}.{key}", DEFAULT_GROUP.get(layer, layer))


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        # self time per group: of the call in progress, of every call, in total
        self.call_self_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.per_call: list[dict[str, float]] = []
        # (parent span id, leaf name) -> [count, total seconds]
        self.leaf: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple] = []
        self.matmul_cols = 0
        self.emit_bytes = 0
        self.call_id = -1
        self._stack = [["root", 0.0]]
        self._span = -1
        self._next = 0
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, fn, name: str, group: str):
        counts, stack, leaf = self.counts, self._stack, self.leaf
        is_matmul = name == "MonomialMatrix.__matmul__"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if is_matmul:
                self.matmul_cols += args[0].dim
            if stack[-1][0] == group:
                leaf[(self._span, name)][0] += 1
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                self.call_self_s[group] += d - frame[1]
                stack[-1][1] += d
                rec = leaf[(self._span, name)]
                rec[0] += 1
                rec[1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, fn, name: str, group: str):
        counts, stack, spans = self.counts, self._stack, self.spans
        is_emit = name == "emit_json"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = self._next
            self._next += 1
            parent = self._span
            self._span = sid
            frame = [group, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                self.call_self_s[group] += d - frame[1]
                stack[-1][1] += d
                spans.append((sid, name, t0, t1, parent, self.call_id))
                self._span = parent
            if is_emit:
                self.emit_bytes += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch_method(self, cls, attr: str, make, name: str, group: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__, name, group))
        else:
            new = make(raw, name, group)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self) -> None:
        layer_mods = {layer: importlib.import_module(m) for layer, m in LAYER_MODULES.items()}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gcakit" or k.startswith("gcakit."))]
        for layer, modname in LAYER_MODULES.items():
            mod = layer_mods[layer]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != modname:
                    continue
                wrapped = self._span_wrapper(fn, fname, _group(layer, fname))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._saved.append((m, attr, fn))
                            setattr(m, attr, wrapped)
        for table, make in ((LEAF_METHODS, self._leaf), (SPAN_METHODS, self._span_wrapper)):
            for (layer, clsname), attrs in table.items():
                cls = getattr(layer_mods[layer], clsname)
                for attr in attrs:
                    key = f"{clsname}.{attr}"
                    self._patch_method(cls, attr, make, key, _group(layer, key))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def end_call(self) -> None:
        """Close the current call: keep its self time per group."""
        self.per_call.append(dict(self.call_self_s))
        for group, v in self.call_self_s.items():
            self.self_s[group] += v
        self.call_self_s.clear()

    def metrics(self, scales: list[float], loop_s: float, parse_bytes: int) -> dict:
        """Per-layer metrics.

        scales[i] turns call i's times into reference-speed times, and loop_s
        is the traced calls' total time at that speed.
        """
        scaled = defaultdict(float)
        for scale, groups in zip(scales, self.per_call):
            for group, v in groups.items():
                scaled[group] += v * scale
        out = {}
        for metric, group in SELF_METRICS.items():
            out[metric] = scaled.get(group, 0.0)
        for metric, names in COUNT_METRICS.items():
            out[metric] = sum(self.counts.get(nm, 0) for nm in names)
        out["matrices.matmul_cols"] = self.matmul_cols
        reps = sum(self.counts.get(nm, 0) for nm in REP_BUILDERS)
        out["repbuilder.verify_per_rep"] = out["repbuilder.verify_calls"] / reps if reps else 0.0
        out["serialize.emit_bytes"] = self.emit_bytes
        out["serialize.parse_bytes"] = parse_bytes
        covered = sum(out[m] for m in SELF_METRICS)
        out["trace.layer_coverage"] = covered / loop_s if loop_s > 0 else 0.0
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "leaf": [[sid, name, c, t] for (sid, name), (c, t) in self.leaf.items()],
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
        }
