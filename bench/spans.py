"""Spans around calls into gtboson, recorded from outside the package.

`Tracer.install()` wraps the public callables of each gtboson module:
methods are patched on their classes, and each module-level function is
rebound in every gtboson module that holds a reference to it (coupling
keeps its own `bargmann_inner`, the package re-exports most names).  Each
call records a span (name, start, end, parent span); spans stay in memory
until `write()`.  `uninstall()` restores every original.

Inner-loop helpers (monomial arithmetic, variable constructors, cheap
accessors) are left unwrapped: their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import os
import sys
import time
from array import array

from genops import weyl_dim

RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__")
SQRT_OPS = ("__init__", "__mul__", "__rmul__", "__truediv__", "__add__",
            "__radd__", "__neg__", "__sub__", "__abs__")
UNWRAPPED = {"mono_from_map", "mono_mul", "mono_text", "zvar", "xvar", "yvar",
             "is_zero", "coefficient", "row", "entry", "label", "sign",
             "squared", "leading_coefficient"}
MODULES = ("gelfand", "polyengine", "basisgen", "coupling", "cli")


def _group(module: str, owner: str | None, name: str) -> str:
    """Layer group of a wrapped callable; the per-layer metrics sum these."""
    if module == "polyengine":
        if owner == "ExactPoly" and name in RING_OPS:
            return "polyengine.mul"
        if owner == "ExactPoly" and name == "extract_coefficient":
            return "polyengine.extract"
        if owner == "SqrtRational" or name == "squarefree_split":
            return "polyengine.sqrt"
        return {"bargmann_inner": "polyengine.pair",
                "minor": "polyengine.minor"}.get(name, "polyengine.other")
    return module


def gtboson_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gtboson" or n.startswith("gtboson."))]


def find_caches() -> dict:
    """Every functools cache reachable from a gtboson module attribute,
    keyed by its defining module and qualified name."""
    found = {}
    for mod in gtboson_modules():
        for obj in list(vars(mod).values()):
            while obj is not None and not hasattr(obj, "cache_info"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and callable(getattr(obj, "cache_info", None)):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return dict(sorted(found.items()))


def cache_snapshot() -> dict:
    out = {}
    for name, fn in find_caches().items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "entries": info.currsize}
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.extra: dict[str, int] = {}
        self.table_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._table_nid = -1
        self.t0 = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def _wrapper(self, fn, qualname: str, group: str, after=None):
        nid = len(self.names)
        self.names.append(qualname)
        self.groups.append(group)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count(self, key: str, n: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def _hooks(self, qualname: str):
        """Counters taken from a call's arguments and result."""
        c = self._count
        owner, _, attr = qualname.rpartition(".")
        if owner == "ExactPoly" and attr in RING_OPS:
            return lambda a, r: c("mul_terms_out", len(r.terms))
        if qualname == "ExactPoly.extract_coefficient":
            def extract(a, r):
                c("extract_terms_scanned", len(a[0].terms))
                c("extract_terms_kept", len(r.terms))
            return extract
        if qualname == "bargmann_inner":
            def pair(a, r):
                c("pair_nonzero", bool(r))
                # a pairing of two different polynomials inside a table
                # build; self-pairings compute basis norms
                if a[0] is not a[1] and self._in_table_build():
                    c("table_pairings")
            return pair
        if qualname == "coupling_table":
            def table(a, r):
                if id(r) not in self.table_ids:
                    self.table_ids.add(id(r))
                    c("table_builds")
                    c("table_entries", len(r.entries))
                    dims = math.prod(weyl_dim(l.h) for l in r.labels)
                    c("table_candidates", dims * max(r.rho_count, 1))
            return table
        return None

    def _in_table_build(self) -> bool:
        nid = self._table_nid
        return any(self.name[s] == nid for s in self.stack)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        import gtboson  # noqa: F401  (all submodules load with the package)
        import gtboson.cli  # noqa: F401
        mods = gtboson_modules()
        for short in MODULES:
            mod = sys.modules[f"gtboson.{short}"]
            # cli has no __all__; its one public entry below main() is run
            names = ["run"] if short == "cli" else mod.__all__
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(short, obj)
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                      and attr not in UNWRAPPED):
                    g = _group(short, None, attr)
                    w = self._wrapper(obj, attr, g, self._hooks(attr))
                    if attr == "coupling_table":
                        self._table_nid = len(self.names) - 1
                    for m in mods:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._patches.append((m, k, v))
                                setattr(m, k, w)

    def _patch_class(self, short: str, cls) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or attr in UNWRAPPED:
                continue
            arith = {"ExactPoly": RING_OPS,
                     "SqrtRational": SQRT_OPS}.get(cls.__name__, ())
            if attr.startswith("_") and attr != "__init__" and attr not in arith:
                continue
            qual = f"{cls.__name__}.{attr}"
            w = self._wrapper(fn, qual, _group(short, cls.__name__, attr),
                              self._hooks(qual))
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per group, plus the raw counters.
        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (one thread)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        name = self.name
        for i in range(n):
            k = name[i]
            self_s[k] += end[i] - start[i] - child[i]
            calls[k] += 1
        groups: dict[str, dict] = {}
        for k, g in enumerate(self.groups):
            acc = groups.setdefault(g, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += self_s[k]
            acc["calls"] += calls[k]
        by_name = {self.names[k]: calls[k] for k in range(len(self.names))
                   if calls[k]}
        return {"groups": groups, "calls": by_name, "extra": dict(self.extra),
                "spans": n}

    def write(self, path: str) -> None:
        """Append every span to a gzip TSV: pid, id, parent, name, start,
        end (seconds since the tracer was made)."""
        pid, t0, names = os.getpid(), self.t0, self.names
        with gzip.open(path, "at", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(f"{pid}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")

