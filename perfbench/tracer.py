"""Outside-in tracing of the ten paradirac modules for the traced run.

The tracer wraps, from the benchmark's side, every public module-level
function of the ten modules, every public method of the classes they
define, and the arithmetic dunders of those classes.  Modules import
functions from each other by name (``verify`` binds
``timefn.parabolic_dirac``, ``cli`` binds ``verify.dirac_residual``), so
every module's reference to a wrapped function is rebound, not only the
defining one.

Each wrapped call is a span.  Its self time is its duration minus the time
its child spans cover; per-function aggregates (calls, total, self) and a
per-group busy time (wall time with at least one span of the group open)
stay in memory.  Spans of the outer layers (builders, verify, harmonics,
serialize, cli) are also kept individually, tagged with the job they ran
in, and written out with the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Dict, List, Optional

MODULES = ("algebra", "scalars", "poly", "timefn", "harmonics", "zeta",
           "builders", "verify", "serialize", "cli")

# dunders that carry the arithmetic of Multivector, CliffordPoly,
# TimeFunction, SpaceTimeFunction, GaussianRational and ZetaElement
DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__", "__pow__", "__eq__"})

# modules whose function spans are kept one by one
SPAN_MODULES = frozenset({"builders", "verify", "harmonics", "serialize",
                          "cli"})
# per-coefficient helpers: aggregated, never kept as single spans
NO_SPAN = frozenset({"serialize.encode_scalar", "serialize.decode_scalar"})

# extra busy-time groups inside serialize
SERIALIZE_WRITE = frozenset({"solution_to_dict", "save_solution",
                             "residual_report_to_dict",
                             "check_report_to_dict", "save_report",
                             "write_eval_csv", "encode_scalar"})
SERIALIZE_READ = frozenset({"solution_from_dict", "load_solution",
                            "read_points_csv", "decode_scalar"})

BLADE_MUL = "algebra.AlgebraContext.blade_mul"


class Tracer:
    """Installs timing wrappers into the paradirac modules and undoes them."""

    def __init__(self):
        self.on = False
        self.stats: Dict[str, List[float]] = {}     # name -> [calls, total, self]
        self.groups: Dict[str, List[float]] = {}    # group -> [depth, busy]
        self.spans: List[tuple] = []
        self.job: Optional[str] = None
        self._stack: List[float] = []               # child time per open span
        self._span_stack: List[int] = []
        self._undo: List[tuple] = []
        # distinct (context, a, b) blade products, per context object; the
        # contexts are held so that their ids cannot be reused meanwhile
        self._blade_keys: Dict[int, tuple] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"paradirac.{name}")
                for name in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj):
                    if obj.__module__ == mod.__name__ and not attr.startswith("_"):
                        replaced[obj] = self._wrap(f"{short}.{attr}", short,
                                                   attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        # rebind every module's reference, the package namespace included
        for mod in list(mods.values()) + [importlib.import_module("paradirac")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, short, attr, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, short, attr, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, short, attr, raw)
            else:
                continue            # properties, constants, slots
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        self.on = False

    def _group(self, name: str) -> List[float]:
        return self.groups.setdefault(name, [0, 0.0])

    def _wrap(self, name: str, short: str, attr: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        groups = [self._group(short)]
        if short == "serialize" and attr in SERIALIZE_WRITE:
            groups.append(self._group("serialize.write"))
        if short == "serialize" and attr in SERIALIZE_READ:
            groups.append(self._group("serialize.read"))
        keep_span = short in SPAN_MODULES and name not in NO_SPAN
        blade_keys = self._blade_keys if name == BLADE_MUL else None
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if blade_keys is not None:
                ctx, a, b = args[0], args[1], args[2]
                entry = blade_keys.get(id(ctx))
                if entry is None:
                    entry = blade_keys[id(ctx)] = (ctx, set())
                entry[1].add((a << 32) | b)
            for g in groups:
                g[0] += 1
            if keep_span:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else -1
                spans.append(None)
                span_stack.append(span_id)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                for g in groups:
                    g[0] -= 1
                    if not g[0]:
                        g[1] += dt
                if keep_span:
                    span_stack.pop()
                    spans[span_id] = (tracer.job, span_id, parent, name,
                                      t0, t1)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def module_calls(self, short: str) -> int:
        return int(sum(s[0] for n, s in self.stats.items()
                       if n.split(".", 1)[0] == short))

    def module_self_s(self, short: str) -> float:
        return sum(s[2] for n, s in self.stats.items()
                   if n.split(".", 1)[0] == short)

    def busy_s(self, group: str) -> float:
        return self.groups.get(group, (0, 0.0))[1]

    def blade_hit_ratio(self) -> float:
        calls = self.calls(BLADE_MUL)
        if not calls:
            return 0.0
        distinct = sum(len(keys) for _, keys in self._blade_keys.values())
        return 1.0 - distinct / calls

    def dump(self, path: str, meta: dict) -> None:
        """Write aggregates and kept spans once the run has ended."""
        out = {
            "meta": meta,
            "functions": {n: {"calls": int(s[0]), "total_s": s[1],
                              "self_s": s[2]}
                          for n, s in sorted(self.stats.items()) if s[0]},
            "busy_s": {g: v[1] for g, v in sorted(self.groups.items())},
            "spans": [{"job": j, "id": i, "parent": p, "name": n,
                       "start": a, "end": b}
                      for j, i, p, n, a, b in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(out, fh)
