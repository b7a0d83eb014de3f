"""Tracing and patching of groupoidal from outside the program.

``Patch`` swaps function objects for others in every loaded
``groupoidal`` module: each module attribute bound to a target (so
from-imports such as ``verify.reduced_norm`` are caught too) and each
function default argument bound to one (such as the ``inner_right=rip``
default of ``verify_imprimitivity``, whose ``is rip`` test would
otherwise take another code path while traced).  Everything is restored
on exit.

``Tracer`` builds the wrappers.  Each call records a span (name, start,
end, parent span, op) on a stack, so a span's self time is its duration
minus what its child spans cover.  Spans stay in memory until
``write_spans``.  Work counters are computed from argument and result
shapes inside the wrappers, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
import types
from collections import Counter
from typing import Callable


def _groupoidal_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "groupoidal" or name.startswith("groupoidal."))
    ]


class Patch:
    """Context manager replacing function objects throughout groupoidal."""

    def __init__(self, replacements: dict[Callable, Callable]) -> None:
        self.replacements = {id(orig): (orig, new) for orig, new in replacements.items()}
        self._undo: list[tuple[object, str, object]] = []

    def _swap(self, value):
        entry = self.replacements.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def __enter__(self) -> "Patch":
        for module in _groupoidal_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    self._patch_defaults(value)
                new = self._swap(value)
                if new is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)
        return self

    def _patch_defaults(self, fn: types.FunctionType) -> None:
        if fn.__defaults__ and any(self._swap(v) for v in fn.__defaults__):
            self._undo.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = tuple(self._swap(v) or v for v in fn.__defaults__)
        if fn.__kwdefaults__ and any(self._swap(v) for v in fn.__kwdefaults__.values()):
            self._undo.append((fn, "__kwdefaults__", fn.__kwdefaults__))
            fn.__kwdefaults__ = {k: self._swap(v) or v for k, v in fn.__kwdefaults__.items()}

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


# --- computed work counters ---------------------------------------------------
# Each takes (args, kwargs, result, nested) and returns {counter: amount};
# ``nested`` is true when an enclosing span belongs to the same layer.


def _eig(args, kwargs, result, nested):
    n = len(result)
    return {"numerics.eig.n3": n**3, "numerics.eig.max_n": n}


def _rank(args, kwargs, result, nested):
    rows, cols = args[0].shape
    return {"numerics.rank.cells": rows * cols}


def _rep_entries(args, kwargs, result, nested):
    k = len(result.basis)
    return {"representations.entries": k * k}


def _triples(args, kwargs, result, nested):
    # composable triples (a, b, c): s(a) = r(b) and s(b) = r(c)
    groupoid = args[0]
    by_src = Counter(a.src for a in groupoid.arrows)
    by_dst = Counter(a.dst for a in groupoid.arrows)
    return {"groupoid.validate.triples": sum(by_src[b.dst] * by_dst[b.src] for b in groupoid.arrows)}


def _linking_arrows(args, kwargs, result, nested):
    return {"linking.arrows": len(result.groupoid.arrows)}


def _file_bytes(args, kwargs, result, nested):
    path = args[0] if args else kwargs["path"]
    return {"fileio.bytes": os.path.getsize(path)}


def _suite_samples(args, kwargs, result, nested):
    return {} if nested else {"verify.samples": result.samples}


MAXIMA = frozenset({"numerics.eig.max_n"})
COMPUTED = (
    "numerics.eig.n3",
    "numerics.eig.max_n",
    "numerics.rank.cells",
    "representations.entries",
    "groupoid.validate.triples",
    "linking.arrows",
    "fileio.bytes",
    "verify.samples",
)

# (module, function, span name, counter); ``*`` expands to the module's __all__
TARGETS = (
    ("numerics", "hermitian_eigenvalues", "numerics.eig", _eig),
    ("numerics", "spectral_norm", "numerics.spectral", None),
    ("numerics", "complex_rank", "numerics.rank", _rank),
    ("numerics", "parallel_map", "numerics.parallel_map", None),
    ("representations", "ind_delta", "representations.ind_delta", _rep_entries),
    ("representations", "reduced_norm", "representations.reduced_norm", None),
    ("representations", "reduced_kernel_dimension", "representations.kernel_dim", None),
    ("representations", "gram_min_eigenvalue", "representations.gram", None),
    ("algebra", "convolve", "algebra.convolve", None),
    ("algebra", "left_action", "algebra.action", None),
    ("algebra", "right_action", "algebra.action", None),
    ("algebra", "rip", "algebra.inner", None),
    ("algebra", "lip", "algebra.inner", None),
    ("algebra", "blockwise_residual", "algebra.blockwise", None),
    ("groupoid", "validate_groupoid", "groupoid.validate", _triples),
    ("equivalence", "validate_equivalence", "equivalence.validate", None),
    ("linking", "build_linking", "linking.build", _linking_arrows),
    ("linking", "build_linking_haar", "linking.haar", None),
    ("fileio", "read_json", "fileio", _file_bytes),
    ("fileio", "write_json", "fileio", _file_bytes),
    ("fileio", "*", "fileio", None),
    ("fixtures", "*", "fixtures", None),
    ("cli", "main", "cli", None),
    ("verify", "verify_theorem_main1", "verify.main1", _suite_samples),
    ("verify", "verify_imprimitivity", "verify.imprimitivity", _suite_samples),
    ("verify", "verify_full_projections", "verify.full_projections", _suite_samples),
    ("verify", "verify_universal_norm_finite", "verify.universal", _suite_samples),
    ("verify", "verify_representation_laws", "verify.rep_laws", _suite_samples),
)


def resolve_targets() -> tuple[list[tuple[Callable, str, Callable | None]], list[str]]:
    """Target functions present in this build, and the ``module.function`` names absent."""
    found: dict[int, tuple[Callable, str, Callable | None]] = {}
    absent: list[str] = []
    for module_name, attr, span, counter in TARGETS:
        try:
            module = importlib.import_module(f"groupoidal.{module_name}")
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        names = getattr(module, "__all__", ()) if attr == "*" else (attr,)
        for name in names:
            fn = getattr(module, name, None)
            if not isinstance(fn, types.FunctionType):
                if attr != "*":
                    absent.append(f"{module_name}.{name}")
                continue
            found.setdefault(id(fn), (fn, span, counter))
    return list(found.values()), absent


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """Span stack plus per-span-name aggregates for one traced stretch of work."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, start, seconds covered by children]
        self._depth: Counter = Counter()  # open spans per name
        self._layer_depth: Counter = Counter()  # open spans per layer

    def reset(self) -> None:
        """Clear the aggregates (not the recorded spans) before a new round."""
        self.stats = {}
        self.counters = {}

    def patch(self) -> tuple[Patch, list[str]]:
        targets, absent = resolve_targets()
        return Patch({fn: self.wrap(fn, span, count) for fn, span, count in targets}), absent

    def wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        layer = _layer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._depth[name] == 0
            nested = self._layer_depth[layer] > 0
            self._depth[name] += 1
            self._layer_depth[layer] += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [next(self._ids), time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
                self._layer_depth[layer] -= 1
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((frame[0], parent, self.op, name, frame[1], end))
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                if outer:
                    stat[0] += 1
                    stat[1] += duration
                stat[2] += duration - frame[2]
            if count is not None:
                for key, amount in count(args, kwargs, result, nested).items():
                    if key in MAXIMA:
                        self.counters[key] = max(self.counters.get(key, 0), amount)
                    else:
                        self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    def value(self, metric: str) -> float:
        """A per-layer metric of the current aggregates, by its published name."""
        for suffix, column in ((".calls", 0), (".busy_s", 1), (".self_s", 2)):
            if metric.endswith(suffix):
                return self.stats.get(metric[: -len(suffix)], [0, 0.0, 0.0])[column]
        return self.counters.get(metric, 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                "start": start, "end": end}) + "\n"
                )
