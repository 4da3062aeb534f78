"""Span tracer for the mfc layers, installed from outside the package.

Every public function of the layer modules (and the constructors of the
classes named in TRACED_CLASSES) is replaced by a wrapper that records a
span: name, parent span, start and end.  Layer modules import each other's
functions by name (``walls`` and ``verify`` hold their own binding of
``reduced_betti``, ``complexes`` holds ``parabolic_cosets``), so a wrapper
replaces the original in every ``mfc`` namespace that holds it, not only
in its home module.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYER_MODULES = ("diagram", "group", "complexes", "homology", "isomorphism",
                 "walls", "verify")
# classes whose construction is a layer of work of its own; other classes
# are containers, and their construction is part of the calling function
TRACED_CLASSES = {"verify": ("GroupContext",), "walls": ("ParabolicData",)}


def _n_cosets(args, result):
    return {"cosets": len(result[0]) if result else 0}


def _n_simplices(args, result):
    return {"simplices": result[0].n_simplices()}


def _matrix_size(args, result):
    cols = args[0]
    return {"cols": len(cols), "nnz": sum(len(c) for c in cols)}


def _recognized(args, result):
    return {"recognized": int(result.recognized)}


def _found(args, result):
    return {"found": int(result is not None)}


def _certified(args, result):
    return {"certified": int(result is not None)}


# work counts taken from a call's arguments and result, by span name
COUNTERS = {
    "group.todd_coxeter": _n_cosets,
    "complexes.milnor_fiber_complex": _n_simplices,
    "homology.rank_and_factors": _matrix_size,
    "walls.recognize_milnor_fiber": _recognized,
    "walls.milnor_wall_search": _certified,
    "isomorphism.find_isomorphism": _found,
}


def _layer_modules():
    return [importlib.import_module("mfc." + m) for m in LAYER_MODULES]


def _mfc_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mfc" or name.startswith("mfc."))]


def _public_functions(mod):
    """Public callables defined in ``mod`` itself, classes excluded."""
    for name, obj in sorted(vars(mod).items()):
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield name, obj


class Tracer:
    """Records spans of the wrapped mfc functions of one process.

    A span is ``[name, parent, t0, t1, counts]`` with ``parent`` the index
    of the enclosing span (-1 at top level) and times from
    ``time.perf_counter``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # id -> original; holding the originals keeps their ids unique
        self._originals: dict[int, object] = {}
        self._classes: list[type] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function in every mfc namespace, and the
        constructors of TRACED_CLASSES."""
        wrappers: dict[int, object] = {}
        for mod in _layer_modules():
            short = mod.__name__.split(".")[-1]
            for fname, fn in _public_functions(mod):
                self._originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap("%s.%s" % (short, fname), fn)
            for cname in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cname)
                self._classes.append(cls)
                cls.__init__ = self._wrap("%s.%s" % (short, cname), cls.__init__)
        for ns in _mfc_namespaces():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])

    def unwrapped_bindings(self) -> list[str]:
        """Names ``module.attr`` in any mfc namespace that still hold an
        original layer function or an unwrapped traced constructor."""
        left = []
        for ns in _mfc_namespaces():
            for attr, obj in sorted(vars(ns).items()):
                if id(obj) in self._originals:
                    left.append("%s.%s" % (ns.__name__, attr))
        for cls in self._classes:
            if not hasattr(cls.__init__, "__wrapped__"):
                left.append("%s.%s.__init__" % (cls.__module__, cls.__name__))
        return left

    # -- analysis ----------------------------------------------------------

    def nesting_errors(self) -> list[str]:
        """Spans that end outside their parent, or open spans."""
        errs = []
        for i, (name, parent, t0, t1, _c) in enumerate(self.spans):
            if t1 is None or t1 < t0:
                errs.append("span %d (%s) not closed" % (i, name))
            elif parent >= 0:
                p = self.spans[parent]
                if not (p[2] <= t0 and p[3] is not None and t1 <= p[3]):
                    errs.append("span %d (%s) outside parent %d (%s)"
                                % (i, name, parent, p[0]))
        return errs

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total_s (outermost spans of that name only,
        so recursion is not counted twice), self_s (span time minus child
        span time) and the summed work counts, plus ``max_<count>``."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1, _c in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict[str, dict] = {}
        for i, (name, parent, t0, t1, counts) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[i]
            if not self._inside_same(i):
                st["total_s"] += t1 - t0
            for k, v in (counts or {}).items():
                st[k] = st.get(k, 0) + v
                st["max_" + k] = max(st.get("max_" + k, 0), v)
        return stats

    def _inside_same(self, i: int) -> bool:
        name = self.spans[i][0]
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][1]
        return False

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "parent": parent,
                       "start": round(t0 - base, 9), "end": round(t1 - base, 9)}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
