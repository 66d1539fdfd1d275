"""Outside-in layer trace: timing wrappers around qcobweb's public callables.

`Tracer.install` replaces every public function and public class method of
the layer modules, the `__post_init__` of the validated value classes, and
numpy's Hermitian eigensolvers with wrappers that record spans
[name, start, end, parent].  A function is replaced in every qcobweb module
namespace that imported it.  Spans are kept in memory for one CLI call and
folded into per-layer totals by `collect`, outside the timed region.

A Bell projection is any `linalg.project` call on qubits (1, 2) whose target
is one of the four Bell vectors, told from the call's arguments whatever
function made it.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "states", "protocol", "session", "linalg", "measures", "disentangle")
# Value classes whose constructor validation is counted; ClassicalMessage gives session.messages.
POST_INIT = {"PureState", "DensityMatrix", "ZsaAmplitudes", "UnknownQubit", "ClassicalMessage"}
_S = 1.0 / np.sqrt(2.0)
_BELL_VECTORS = np.array([[_S, 0, 0, _S], [_S, 0, 0, -_S], [0, _S, _S, 0], [0, _S, -_S, 0]], dtype=complex)


def _is_bell_projection(qubits, target) -> bool:
    try:
        labels = tuple(int(q) for q in qubits)
        vec = np.asarray(target, dtype=complex).reshape(-1)
    except (TypeError, ValueError):
        return False
    if labels != (1, 2) or vec.size != 4:
        return False
    return bool(np.any(np.all(np.abs(_BELL_VECTORS - vec) < 1e-12, axis=1)))


def _nbytes(values) -> int:
    total = 0
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.nbytes
        else:
            arr = getattr(value, "amplitudes", None)
            if arr is None:
                arr = getattr(value, "entries", None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # name id -> (name, layer)
        self.spans: list[list] = []
        self.active = False
        self.bytes_in = 0
        self.layer_self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bell_projections = 0
        self._projections: list[tuple] = []  # (qubits, target) of each linalg.project call in this call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last: list[list] = []

    def _wrap(self, fn, name: str, layer: str, count_bytes: bool):
        nid = len(self.names)
        self.names.append((name, layer))
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        projections = self._projections if name == "linalg.project" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_bytes:
                tracer.bytes_in += _nbytes(args) + _nbytes(kwargs.values())
            if projections is not None:
                projections.append((args[1] if len(args) > 1 else kwargs.get("qubits"),
                                    args[2] if len(args) > 2 else kwargs.get("target")))
            span = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        old = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qcobweb" or mod_name.startswith("qcobweb."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__post_init__" and cls.__name__ in POST_INIT:
                self._patch(cls, attr, self._wrap(value, name, layer, False))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, name, layer, layer == "linalg"))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap(value.__func__, name, layer, layer == "linalg")
                self._patch(cls, attr, type(value)(wrapped))

    def install(self) -> None:
        for layer in LAYERS:
            mod = sys.modules[f"qcobweb.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace_everywhere(obj, self._wrap(obj, f"{layer}.{attr}", layer, layer == "linalg"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for attr in ("eigvalsh", "eigh"):
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"kernel.{attr}", "kernel", False))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def collect(self) -> None:
        """Fold the spans of one call into the totals: self time is duration minus child spans."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            name, layer = names[nid]
            self.layer_self_s[layer] += end - start - child[i]
            self.inclusive_s[name] += end - start
            self.calls[name] += 1
        self.bell_projections += sum(_is_bell_projection(q, t) for q, t in self._projections)
        self._projections.clear()
        self._last = [list(s) for s in spans]
        spans.clear()

    def last_spans(self) -> list[dict]:
        """The spans of the last collected call, times in microseconds from its first span."""
        if not self._last:
            return []
        t0 = self._last[0][1]
        return [
            {"name": self.names[nid][0], "start_us": round((s - t0) * 1e6, 3),
             "end_us": round((e - t0) * 1e6, 3), "parent": p}
            for nid, s, e, p in self._last
        ]

    def _count(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def metrics(self, ops: int, trials: int, bytes_out: int, py_peak_mb: float) -> dict:
        """Every per-layer metric, per operation.

        `trials` is the number of sampled trial rows the calls printed: each
        uses one Bell residual.  The projection use ratio is trials over Bell
        projections, capped at 1 (and 1 when no Bell projection goes through
        `linalg.project`).
        """

        def ms(seconds: float) -> float:
            return 1e3 * seconds / ops

        bell = self.bell_projections
        values = {
            "protocol.self_ms": (ms(self.layer_self_s["protocol"]), "ms/op"),
            "linalg.self_ms": (ms(self.layer_self_s["linalg"]), "ms/op"),
            "kernel.self_ms": (ms(self.layer_self_s["kernel"]), "ms/op"),
            "linalg.project_calls": (self.calls["linalg.project"] / ops, "count/op"),
            "protocol.projection_use_ratio": (min(1.0, trials / bell) if bell else 1.0, "ratio"),
            "linalg.apply_gate_calls": (self.calls["linalg.apply_gate"] / ops, "count/op"),
            "linalg.bytes_in": (self.bytes_in / ops, "B/op"),
            "linalg.pure_state_builds": (self.calls["linalg.PureState.__post_init__"] / ops, "count/op"),
            "linalg.density_matrix_builds": (self.calls["linalg.DensityMatrix.__post_init__"] / ops, "count/op"),
            "kernel.eigensolves": (self._count("kernel.") / ops, "count/op"),
            "protocol.to_dict_ms": (ms(self.inclusive_s["protocol.Transcript.to_dict"]), "ms/op"),
            "cli.self_ms": (ms(self.layer_self_s["cli"]), "ms/op"),
            "cli.bytes_out": (bytes_out / ops, "B/op"),
            "memory.py_peak_mb": (py_peak_mb, "MB"),
            "session.self_ms": (ms(self.layer_self_s["session"]), "ms/op"),
            "session.messages": (self.calls["session.ClassicalMessage.__post_init__"] / ops, "count/op"),
            "states.self_ms": (ms(self.layer_self_s["states"]), "ms/op"),
            "states.calls": (self._count("states.") / ops, "count/op"),
            "measures.self_ms": (ms(self.layer_self_s["measures"]), "ms/op"),
            "disentangle.self_ms": (ms(self.layer_self_s["disentangle"]), "ms/op"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
