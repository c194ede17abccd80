"""Span tracer installed from outside the crackspec package.

`install` wraps the public functions of every measured layer wherever the
name is looked up (the layer module, the package namespace, and the modules
that imported the name), plus the scipy entry points that show which solver
path ran: `eigsh`, `eigs`, dense `eig`, and the two `splu` names (the one
ARPACK's shift-invert imported, and `scipy.sparse.linalg.splu`, which
`capacity` looks up).  A factorization is returned behind a proxy that counts
and times its `.solve` calls, so operator applies and LU fill are measured.

Spans (name, start, end, parent, attributes) stay in memory until `dump`.
No file under `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import scipy.linalg
import scipy.sparse.linalg

from workloads import count_brackets

LAYERS = ("specfun", "discretize", "eigensolve", "spectra", "asymptotics", "capacity")
ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[Span]) -> int | None:
        if stack:
            return stack[-1].id
        # a pool worker runs on behalf of the main thread's open span (the
        # sweep), which blocks until the workers finish
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1].id
        return None

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        """`post(span, args, kwargs, result)` may fill span attributes and
        returns the value handed back to the caller."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, self._parent(stack), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            return post(span, args, kwargs, result) if post else result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")


class _TracedLU:
    """A SuperLU factorization whose `.solve` calls are counted and timed."""

    def __init__(self, lu, span: Span) -> None:
        self._lu = lu
        self._span = span

    def solve(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._span.attrs["solves"] += 1
            self._span.attrs["solve_s"] += time.perf_counter() - t0

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _post_lu(span, args, kwargs, lu):
    a = _arg(args, kwargs, 0, "A")
    span.attrs.update(n=int(a.shape[0]), nnz=int(a.nnz),
                      nnz_lu=int(lu.L.nnz + lu.U.nnz), solves=0, solve_s=0.0)
    return _TracedLU(lu, span)


def _post_assemble(span, args, kwargs, op):
    span.attrs.update(unknowns=int(op.n), nnz=int(op.matrix.nnz))
    return op


def _post_eigenpairs(span, args, kwargs, spec):
    span.attrs.update(computed=len(spec.eigenvalues),
                      residual_max=float(max(spec.residuals, default=0.0)))
    return spec


def _post_solve_sector(span, args, kwargs, sol):
    grid = sol.operator.grid
    span.attrs.update(key=f"{sol.tag.label}|{grid.m}|{round(grid.eps / grid.dtheta)}",
                      kept=len(sol.values), computed=len(sol.spectrum.eigenvalues))
    return sol


def _post_detect(span, args, kwargs, events):
    span.attrs.update(kept=len(events),
                      brackets=count_brackets(_arg(args, kwargs, 0, "curve").values))
    return events


def _post_capacity(span, args, kwargs, result):
    span.attrs.update(residual=float(result[1].energy_residual))
    return result


POSTS = {
    "discretize.assemble": _post_assemble,
    "eigensolve.lowest_eigenpairs": _post_eigenpairs,
    "spectra.solve_sector": _post_solve_sector,
    "spectra.detect_crossings": _post_detect,
    "capacity.capacitary_potential": _post_capacity,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the measured layers where it is looked
    up, and the scipy solver entry points.  Import crackspec first."""
    wrapped: dict[int, Callable] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"crackspec.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                span_name = f"{layer}.{name}"
                wrapped[id(fn)] = tracer.wrap(span_name, fn, POSTS.get(span_name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "crackspec" or mod_name.startswith("crackspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    arpack = importlib.import_module(ARPACK_MODULE)
    spla = scipy.sparse.linalg
    spla.eigsh = tracer.wrap("scipy.eigsh", spla.eigsh)
    spla.eigs = tracer.wrap("scipy.eigs", spla.eigs)
    scipy.linalg.eig = tracer.wrap("scipy.eig", scipy.linalg.eig)
    arpack.splu = tracer.wrap("lu.factor", arpack.splu, _post_lu)
    spla.splu = tracer.wrap("lu.factor", spla.splu, _post_lu)
