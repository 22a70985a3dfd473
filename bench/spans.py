"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer wraps the public functions of each ``modalg`` layer with a span
recorder while a traced pass runs, and restores the originals afterwards, so
untraced passes run the library exactly as shipped.  A span is one call of a
wrapped function; its self time is its duration minus the time covered by
the wrapped calls it makes.  Aggregates (calls, self and inclusive time, and
a few work ratios) are kept for every span; full span records (name, start,
end, parent span, pass) are kept in memory for the coarse layers only, up to
a cap, and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

# layers whose calls run in the hundreds of thousands per pass: aggregated,
# never recorded span by span
HOT = frozenset({
    "exactalg.fields.ops",
    "exactalg.poly.mul",
    "exactalg.frac.new",
    "exactalg.poly.gcd",
    "series.mul",
    "lieritt.nil_mul",
})

STAGES = (
    "hull.hull_generators",
    "hull.find_relations",
    "umemura.build_ideal",
    "umemura.solve_points",
    "umemura.group_compatibility_check",
    "pv.compare",
    "pv.galois_points",
    "pv.lie_dim",
)

KERNELS = (
    "exactalg.fields.ops",
    "exactalg.poly.mul",
    "exactalg.frac.new",
    "exactalg.poly.gcd",
    "exactalg.linalg.rref",
    "exactalg.linalg.solve",
    "exactalg.linalg.inverse",
    "series.mul",
    "series.compose",
    "series.recip",
    "series.formal_inverse",
    "actions.expand",
    "actions.apply_word",
    "lieritt.nil_mul",
    "lieritt.compose",
    "lieritt.invert",
)

SPAN_CAP = 50_000


def _targets():
    """(layer, owner, attribute) for every wrapped callable.  An owner is a
    class (the attribute is replaced on the class) or a module (the function
    is replaced wherever a loaded modalg module binds it)."""
    from modalg import hull, lieritt, pv, series, umemura
    from modalg.actions import ActionSpec
    from modalg.exactalg import fields, frac, linalg, poly

    return [
        ("exactalg.fields.ops", fields.RationalField, "add"),
        ("exactalg.fields.ops", fields.RationalField, "mul"),
        ("exactalg.fields.ops", fields.RationalField, "inv"),
        ("exactalg.fields.ops", fields.PrimeField, "add"),
        ("exactalg.fields.ops", fields.PrimeField, "mul"),
        ("exactalg.fields.ops", fields.PrimeField, "inv"),
        ("exactalg.poly.mul", poly.MPoly, "__mul__"),
        ("exactalg.frac.new", frac.Frac, "__init__"),
        ("exactalg.poly.gcd", poly, "poly_gcd"),
        ("exactalg.linalg.rref", linalg, "rref"),
        ("exactalg.linalg.solve", linalg, "solve_linear"),
        ("exactalg.linalg.solve", linalg, "kernel_basis"),
        ("exactalg.linalg.inverse", linalg.Matrix, "inverse"),
        ("exactalg.linalg.inverse", linalg.Matrix, "det"),
        ("series.mul", series.TruncSeries, "__mul__"),
        ("series.compose", series.TruncSeries, "compose"),
        ("series.recip", series.TruncSeries, "recip"),
        ("series.formal_inverse", series, "formal_inverse"),
        ("actions.expand", ActionSpec, "expand"),
        ("actions.apply_word", ActionSpec, "apply_word"),
        ("lieritt.nil_mul", lieritt.NilAlgebra, "mul"),
        ("lieritt.compose", lieritt.InfTransform, "compose"),
        ("lieritt.invert", lieritt.InfTransform, "invert"),
        ("hull.hull_generators", hull, "hull_generators"),
        ("hull.find_relations", hull, "find_relations"),
        ("umemura.build_ideal", umemura, "build_ideal"),
        ("umemura.solve_points", umemura, "solve_points"),
        ("umemura.group_compatibility_check", umemura, "group_compatibility_check"),
        ("pv.compare", pv, "compare"),
        ("pv.galois_points", pv, "galois_points"),
        ("pv.lie_dim", pv, "lie_dim"),
    ]


class LayerStats:
    __slots__ = ("calls", "self_s", "incl_s", "hits", "work")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.hits = 0  # constant denominators (frac.new), constant gcds (poly.gcd)
        self.work = 0  # rows*cols (linalg.rref)


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` undoes it."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in KERNELS + STAGES}
        self.records: list[tuple] = []
        self.dropped = 0
        self.request = None  # identifier shared by the spans of one pass
        self._stack: list[list] = []  # [child seconds, recorded span id or None]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- patching
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "modalg" or n.startswith("modalg."))]
        for layer, owner, attr in _targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset_stats(self):
        for st in self.stats.values():
            st.reset()

    def snapshot(self) -> dict:
        return {name: (st.calls, st.self_s, st.incl_s, st.hits, st.work)
                for name, st in self.stats.items()}

    # ------------------------------------------------------------ spans
    def _wrap(self, layer: str, fn):
        st = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if layer == "exactalg.frac.new":
            def note(args, result):
                if args[3].is_const():
                    st.hits += 1
        elif layer == "exactalg.poly.gcd":
            def note(args, result):
                if result.is_const():
                    st.hits += 1
        elif layer == "exactalg.linalg.rref":
            def note(args, result):
                rows = args[0]
                st.work += len(rows) * (len(rows[0]) if rows else 0)
        else:
            note = None

        record = layer not in HOT

        def wrapper(*args, **kwargs):
            span_id = parent = None
            if record:
                span_id, parent = tracer._open()
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                st.calls += 1
                st.self_s += d - frame[0]
                st.incl_s += d
                if stack:
                    stack[-1][0] += d
                if record:
                    tracer._record(span_id, parent, layer, t0, t1)
            if note is not None:
                note(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _open(self):
        """A new span id and the id of the nearest recorded enclosing span."""
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self._next_id += 1
        return self._next_id - 1, parent

    def _record(self, span_id, parent, name, t0, t1):
        if len(self.records) < SPAN_CAP:
            self.records.append((span_id, parent, self.request, name,
                                 t0 - self._origin, t1 - self._origin))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span around a block of benchmark code (a pass or a probe)."""
        span_id, parent = self._open()
        self._stack.append([0.0, span_id])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(span_id, parent, name, t0, t1)

    def write(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "aggregated_only": sorted(HOT),
            "span_cap": SPAN_CAP,
            "dropped": self.dropped,
            "spans": self.records,
            **extra,
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

