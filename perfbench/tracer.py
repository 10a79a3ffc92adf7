"""In-memory spans around calls into su3chain's public functions.

The traced run wraps every public function and every public method (plus
``__init__``) of the classes defined in the library modules, and rebinds the
wrapper wherever a module imported the original by name (``from .specfun
import digamma_array`` binds it inside ``twosite`` and ``threesite`` too).
Nothing inside the package is edited: the spans sit at the boundaries the
benchmark's own code can see.  A name that a later version removes or renames
is simply not wrapped, so the metrics built on it are absent and the run goes
on.

Each span records its name, start, end and parent.  Self time is a span's
duration minus the time covered by its direct child spans; a layer's self
time is the sum over the spans of that layer (the first dotted component of
the span name).  For the array kernels and the comb, the number of points
passed in (the size of the last positional argument) is counted as well.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import importlib
import inspect
import time

import numpy as np

#: the repository's modules, used as the layers of the per-layer metrics
LAYERS = ("cli", "threesite", "twosite", "specfun", "basis", "rmatrix", "tensors", "ed")
_LIBRARY_LAYERS = LAYERS[1:]

#: spans whose argument size is counted as "points" (specfun ``*_array`` too)
_POINT_SPANS = {
    "threesite.phi",
    "threesite.phi_c",
    "threesite.h_kernel",
    "threesite.G1Solver.value",
}

#: per-layer metric -> (span name, field); field is calls, s, self_s or points
SPAN_METRICS = {
    **{
        f"specfun.{k}.{f}": (f"specfun.{k}", f)
        for k in ("digamma_array", "trigamma_array", "tetragamma_array", "hurwitz_zeta_array")
        for f in ("points", "self_s")
    },
    "threesite.phi_c.points": ("threesite.phi_c", "points"),
    "threesite.phi_c.self_s": ("threesite.phi_c", "self_s"),
    "threesite.phi.points": ("threesite.phi", "points"),
    "threesite.phi.self_s": ("threesite.phi", "self_s"),
    "threesite.G1Solver.count": ("threesite.G1Solver.__init__", "calls"),
    "threesite.G1Solver.fit_s": ("threesite.G1Solver.__init__", "s"),
    "threesite.G1Solver.value_points": ("threesite.G1Solver.value", "points"),
    "threesite.three_site_correlator.s": ("threesite.three_site_correlator", "s"),
    "threesite.solve_g.calls": ("threesite.solve_g", "calls"),
    "threesite.solve_g.s": ("threesite.solve_g", "s"),
    "threesite.h_kernel.self_s": ("threesite.h_kernel", "self_s"),
    "basis.a_matrix.calls": ("basis.a_matrix", "calls"),
    "basis.a_matrix.s": ("basis.a_matrix", "s"),
    "basis.build_basis.s": ("basis.build_basis", "s"),
    "basis.a3_closed_form.calls": ("basis.a3_closed_form", "calls"),
    "basis.reduce_to_physical.calls": ("basis.reduce_to_physical", "calls"),
    "rmatrix.identity_suite.s": ("rmatrix.identity_suite", "s"),
    "rmatrix.check_yang_baxter.calls": ("rmatrix.check_yang_baxter", "calls"),
    "rmatrix.r_operator.calls": ("rmatrix.r_operator", "calls"),
    "ed.balanced_sector.s": ("ed.balanced_sector", "s"),
    "ed.Hamiltonian.build_s": ("ed.Hamiltonian.__init__", "s"),
    "ed.matvec.calls": ("ed.Hamiltonian.matvec", "calls"),
    "ed.matvec.self_s": ("ed.Hamiltonian.matvec", "self_s"),
    "ed.ground_state.self_s": ("ed.ground_state", "self_s"),
}


class Tracer:
    """Collects spans (name, start, end, parent) and point counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.points: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counts_points = name in _POINT_SPANS or (
            name.startswith("specfun.") and name.endswith("_array")
        )
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_points and args:
                self.points[name] = self.points.get(name, 0) + int(np.size(args[-1]))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- summaries ---------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds, self seconds and points for each span name."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        out: dict[str, dict[str, float]] = {}
        for name, dur, cov in zip(self.names, durations, covered):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - cov
        for name, row in out.items():
            row["points"] = self.points.get(name, 0)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a metric on a name that was never wrapped is absent."""
        rows = self.per_name()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0}
        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [row for name, row in rows.items() if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(row["self_s"] for row in mine)
            out[f"{layer}.calls"] = sum(row["calls"] for row in mine)
        out["specfun.points"] = sum(
            row["points"] for name, row in rows.items() if name.startswith("specfun.")
        )
        for metric, (name, field) in SPAN_METRICS.items():
            if name in self.wrapped:
                out[metric] = rows.get(name, empty)[field]
        out["trace.spans"] = len(self.names)
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "points": self.points,
        }


def _wrappable_class(cls) -> bool:
    return not issubclass(cls, (enum.Enum, BaseException))


def install(tracer: Tracer, package: str = "su3chain") -> None:
    """Wrap the public functions and methods of every library layer."""
    modules = [importlib.import_module(f"{package}.{name}") for name in _LIBRARY_LAYERS]
    replaced: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and _wrappable_class(obj):
                _wrap_methods(tracer, layer, obj, package)
    # rebind every module-level name that refers to a wrapped function
    everything = modules + [importlib.import_module(f"{package}.cli")]
    for mod in everything:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def _wrap_methods(tracer: Tracer, layer: str, cls, package: str) -> None:
    for name in dir(cls):
        if name.startswith("_") and name != "__init__":
            continue
        if name == "__init__" and dataclasses.is_dataclass(cls):
            continue
        raw = inspect.getattr_static(cls, name)
        # plain functions only: properties, static and class methods are
        # skipped, and so is a method already wrapped on a public base class
        if (
            inspect.isfunction(raw)
            and raw.__module__.startswith(package)
            and not hasattr(raw, "__wrapped__")
        ):
            setattr(cls, name, tracer.wrap(f"{layer}.{cls.__name__}.{name}", raw))


def per_span_cost(repeats: int = 3, calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call (point-counting kind), median of repeats."""
    arg = np.zeros(4, dtype=complex)

    def plain(z):
        return z

    samples = []
    for _ in range(repeats):
        traced = Tracer().wrap("specfun.calibration_array", plain)
        t0 = time.perf_counter()
        for _ in range(calls):
            plain(arg)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(arg)
        t2 = time.perf_counter()
        samples.append(max(0.0, ((t2 - t1) - (t1 - t0)) / calls))
    return sorted(samples)[len(samples) // 2]
