"""Per-layer tracing of valrep from outside the program.

`Tracer.install()` replaces each timed callable of `src/valrep` with a
wrapper, at its defining module or class and at every other valrep module
that bound it by `from .x import y`; `Tracer.uninstall()` puts every
original back.  Nothing under `src/` is edited.

A wrapper times its call with `time.perf_counter`.  Calls into the middle
layers record one span each: name, start, end, parent span and job id.
The leaf arithmetic of `fields` and `poly` runs hundreds of thousands of
times per job, so its calls are only counted and timed, aggregated under
the nearest enclosing span.  Self time is a call's duration minus the time
its wrapped callees took, so the self times of all callables add up to the
time spent inside any wrapped call.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# (module, qualified name, leaf): one layer per valrep module
TARGETS = (
    ("fields", "RatFunc.__add__", True),
    ("fields", "RatFunc.__mul__", True),
    ("fields", "RatFunc.__truediv__", True),
    ("fields", "OrderSpec.sign", True),
    ("poly", "Poly.__mul__", True),
    ("poly", "Poly.divmod", True),
    ("poly", "gcd", True),
    ("linalg", "Matrix.__matmul__", False),
    ("linalg", "Matrix.char_poly", False),
    ("linalg", "Matrix.rref", False),
    ("linalg", "Matrix.det", False),
    ("linalg", "Matrix.inverse", False),
    ("valuation", "Valuation.of", False),
    ("valuation", "newton_polygon", False),
    ("spectra", "translation_length", False),
    ("spectra", "jordan_valuation", False),
    ("spectra", "building_pseudodistance", False),
    ("words", "conjugacy_key", False),
    ("words", "is_class_representative", False),
    ("words", "is_power_of_class", False),
    ("representation", "RepTable.__init__", False),
    ("representation", "RepTable.iter_ball", False),
    ("representation", "closed_point_verdict", False),
    ("symplectic", "crossratio", False),
    ("symplectic", "projection_matrix", False),
    ("symplectic", "maslov", False),
    ("symplectic", "Lagrangian.span", False),
    ("symplectic", "is_symplectic", False),
    ("roots", "linear_eigenvalues", False),
    ("framing", "attracting_lagrangian", False),
    ("framing", "verify_maximal_framing", False),
    ("currents", "multicurve_certificate_ball", False),
    ("currents", "systole_sweep", False),
    ("currents", "crossratio_axiom_check", False),
    ("currents", "period", False),
    ("currents", "period_via_length", False),
    ("exprparse", "parse_ratfunc", False),
    ("cli", "main", False),
    ("pants", "pants_rep", False),
)
NAMES = tuple(f"{module}.{qualname}" for module, qualname, _ in TARGETS)
MATMUL = "linalg.Matrix.__matmul__"
ITER_BALL = "representation.RepTable.iter_ball"
TRANSLATION_LENGTH = "spectra.translation_length"


@dataclass
class _Frame:
    name: str
    start: float
    span: int | None  # span id, None for a leaf call
    child_s: float = 0.0


class Tracer:
    """Wraps the TARGETS while installed and aggregates what they record."""

    def __init__(self):
        self.job: str | None = None
        self.calls = {name: 0 for name in NAMES}
        self.self_s = {name: 0.0 for name in NAMES}
        self.total_s = {name: 0.0 for name in NAMES}
        self.ball_words = 0
        self.max_entry_degree = 0
        # [id, name, start, end, parent, job, {leaf name: [calls, self_s]}]
        self.spans: list[list] = []
        self._stack: list[_Frame] = []
        self._depth = {name: 0 for name in NAMES}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, leaf: bool) -> _Frame:
        span = None
        if not leaf:
            span = len(self.spans)
            parent = self._parent_span()
            self.spans.append([span, name, 0.0, 0.0, parent, self.job, {}])
        self._depth[name] += 1
        frame = _Frame(name, time.perf_counter(), span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, count: bool = True):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child_s
        name = frame.name
        self._depth[name] -= 1
        if count:
            self.calls[name] += 1
        self.self_s[name] += own
        if self._depth[name] == 0:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span is not None:
            record = self.spans[frame.span]
            record[2], record[3] = frame.start, end
        else:
            parent = self._parent_span()
            if parent is not None:
                leaf = self.spans[parent][6].setdefault(name, [0, 0.0])
                leaf[0] += 1
                leaf[1] += own

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool):
        tracer = self

        if name == ITER_BALL:
            return self._wrap_generator(name, fn)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name == MATMUL:
                tracer.max_entry_degree = max(tracer.max_entry_degree, result.max_degree())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; one call per generator."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    frame = tracer._enter(name, leaf=False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, count=first)
                        first = False
                    tracer.ball_words += 1
                    yield item
            finally:
                gen.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"valrep.{module_name}")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "valrep" or name.startswith("valrep.")
        ]
        for module_name, qualname, leaf in TARGETS:
            module = sys.modules[f"valrep.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__, leaf))
                else:
                    replacement = self._wrap(name, raw, leaf)
                self._patch(owner, attr, raw, replacement)
                continue
            original = getattr(module, qualname)
            replacement = self._wrap(name, original, leaf)
            for consumer in modules:
                for attr, value in list(vars(consumer).items()):
                    if value is original:
                        self._patch(consumer, attr, original, replacement)

    def _patch(self, owner, attr: str, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patched_bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding replaced."""
        return list(self._patches)

    # -- results -----------------------------------------------------------

    def merge(self, other: dict):
        """Add the aggregates and spans a traced child process reported."""
        for name in NAMES:
            self.calls[name] += other["calls"][name]
            self.self_s[name] += other["self_s"][name]
            self.total_s[name] += other["total_s"][name]
        self.ball_words += other["ball_words"]
        self.max_entry_degree = max(self.max_entry_degree, other["max_entry_degree"])
        offset = len(self.spans)
        for span in other["spans"]:
            parent = None if span[4] is None else span[4] + offset
            self.spans.append([span[0] + offset, *span[1:4], parent, self.job, span[6]])

    def export(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "ball_words": self.ball_words,
            "max_entry_degree": self.max_entry_degree,
            "spans": self.spans,
        }

    def covered_s(self) -> float:
        """Time spent inside any wrapped call."""
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        out["linalg.max_entry_degree"] = (self.max_entry_degree, "count")
        out[f"{ITER_BALL}.words"] = (self.ball_words, "count")
        useful = self.calls[TRANSLATION_LENGTH] / self.ball_words if self.ball_words else 0.0
        out[f"{ITER_BALL}.useful_ratio"] = (useful, "ratio")
        return out
