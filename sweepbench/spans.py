"""Span tracer installed around the package's public functions from outside.

Each wrapped callable records a span (name, start, end, parent) in memory.
Callers that did ``from .fock import coherent_state`` hold their own binding,
so every module of the package is searched for attributes that are the
original object and each such binding is replaced; classes are traced by
wrapping their ``__init__``.  Self time is a span's duration minus the time
covered by its child spans.  Names follow ``<module>.<function>``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy
import numpy.linalg

PACKAGE = "anharmonic"

#: span name -> (defining module, attribute names).  Several attributes under
#: one name are summed: they are the alternatives a sweep row picks between.
FUNCTIONS = {
    "fock.coherent_state": ("fock", ("coherent_state",)),
    "dynamics.hamiltonian": ("dynamics", ("hamiltonian",)),
    "dynamics.evolve_exact": ("dynamics", ("evolve_exact",)),
    "dynamics.interaction_moments": ("dynamics", ("interaction_moments",)),
    "perturbative.first_order_moment_set": ("perturbative", ("first_order_moment_set",)),
    "perturbative.a_i_first_order": ("perturbative", ("a_i_first_order",)),
    "perturbative.closed_form": (
        "perturbative", ("mean_photon_number", "squeezing_witness_f", "hoa_witness_d")),
    "criteria.witness": (
        "criteria", ("quadrature_squeezing", "hillery_squeezing", "hoa_d_from_moments")),
    "criteria.classify": ("criteria", ("classify",)),
    "sweep.run_sweep": ("sweep", ("run_sweep",)),
    "sweep.write_csv": ("sweep", ("write_csv",)),
    "sweep.compare_report": ("sweep", ("compare_report",)),
    "cli.main": ("cli", ("main",)),
}

#: span name -> (defining module, class) whose constructor is traced.
CLASSES = {
    "fock.FockVector": ("fock", "FockVector"),
    "perturbative.ClosedFormInputs": ("perturbative", "ClosedFormInputs"),
}

#: span name -> (defining module, lru_cache) whose cache_info() is reported.
CACHES = {
    "dynamics.eigensystem_cache": ("dynamics", "_eigensystem"),
    "dynamics.spectral_initial_cache": ("dynamics", "_spectral_initial"),
}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(CLASSES) + ("dynamics.eigh",)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def clear_caches() -> None:
    """Empty every ``functools`` cache held at module level in the package."""
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def cache_counts() -> dict:
    out = {}
    for name, (mod, attr) in CACHES.items():
        module = sys.modules.get(f"{PACKAGE}.{mod}")
        info = getattr(getattr(module, attr, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[f"{name}.hits"] = hits
        out[f"{name}.misses"] = misses
    return out


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self._stack = []  # [span index, start, child time so far] per open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.eigh_work_d3 = 0
        self._undo = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.eigh_work_d3 = 0

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                spans[idx] = (nid, frame[1], end, parent)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def _rebind(self, original, wrapper) -> None:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for name, (mod, attrs) in FUNCTIONS.items():
            module = sys.modules.get(f"{PACKAGE}.{mod}")
            for attr in attrs:
                original = getattr(module, attr, None)
                if original is not None:
                    self._rebind(original, self.wrap(name, original))
        for name, (mod, cls_name) in CLASSES.items():
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), cls_name, None)
            if cls is not None:
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self.wrap(name, cls.__init__)

        eigh = numpy.linalg.eigh
        traced_eigh = self.wrap("dynamics.eigh", eigh)

        def counted_eigh(a, *args, **kwargs):
            shape = numpy.shape(a)
            self.eigh_work_d3 += math.prod(shape[:-2]) * shape[-1] ** 3
            return traced_eigh(a, *args, **kwargs)

        self._undo.append((numpy.linalg, "eigh", eigh))
        numpy.linalg.eigh = counted_eigh
        self._rebind(eigh, counted_eigh)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_lines(self):
        """CSV lines: span index, name, start, end, parent span index (-1 for none)."""
        for i, (nid, start, end, parent) in enumerate(self.spans):
            yield f"{i},{self.names[nid]},{start!r},{end!r},{parent}\n"
