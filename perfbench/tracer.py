"""Spans around degreelab's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function, wherever a degreelab
module holds a reference to it, with a wrapper that records a span
(name, start, end, parent span, operation id) and the work counters read
off the function's arguments and result.  Spans stay in memory, in typed
arrays because a pass makes up to a few million of them; the per-layer
metrics, including self time (a span's duration minus that of its direct
children), are computed from them after the run, and ``write`` saves
them as tab-separated text.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


def _fiber_counts(tr, args, res):
    tr.add("fibersolve.solve_fiber", boxes=res.stats.boxes_processed, roots=len(res.roots),
           incomplete=int(res.status != "complete"))
    # solves made on behalf of an enclosing injectivity pipeline
    if tr.inside("injectlab.injectivity_pipeline"):
        tr.add("injectlab.injectivity_pipeline", solves=1)


def _integral_counts(tr, args, res):
    tr.add("degree.degree_integral", samples=res.diagnostics["samples"],
           disagree=int(tr.truth_degree is not None and res.value != tr.truth_degree))


# (module, attribute, span name, counter hook); attributes with a dot are
# methods of a class in that module
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_mapfile", "cli.load_mapfile", None),
    ("polycore", "parse_poly", "polycore.parse_poly", None),
    ("polycore", "Poly.eval", "polycore.eval", None),
    ("polycore", "Poly.eval_array", "polycore.eval_array",
     lambda tr, a, r: tr.add("polycore.eval_array", points=len(a[1]))),
    ("polycore", "Poly.eval_interval", "polycore.eval_interval", None),
    ("polycore", "Poly.eval_interval_batch", "polycore.eval_interval_batch",
     lambda tr, a, r: tr.add("polycore.eval_interval_batch", rows=len(a[1]))),
    ("mapforms", "jacobian_matrix", "mapforms.jacobian_matrix", None),
    ("mapforms", "jacobian_det", "mapforms.jacobian_det", None),
    ("mapforms", "keller_check", "mapforms.keller_check", None),
    ("mapforms", "recognize_form", "mapforms.recognize_form", None),
    ("fibersolve", "solve_fiber", "fibersolve.solve_fiber", _fiber_counts),
    ("fibersolve", "certified_min_sum_squares", "fibersolve.certified_min_sum_squares",
     lambda tr, a, r: tr.add("fibersolve.certified_min_sum_squares", boxes=r[1],
                             failed=int(r[3] is not None))),
    ("fibersolve", "boundary_clearance", "fibersolve.boundary_clearance",
     lambda tr, a, r: tr.add("fibersolve.boundary_clearance", failed=int(not r.ok))),
    ("degree", "degree_signed_count", "degree.degree_signed_count", None),
    ("degree", "degree_integral", "degree.degree_integral", _integral_counts),
    ("degree", "path_segment_clearance", "degree.path_segment_clearance",
     lambda tr, a, r: tr.add("degree.path_segment_clearance", failed=int(not r.ok))),
    ("degree", "homotopy_constancy_check", "degree.homotopy_constancy_check", None),
    ("injectlab", "jacobian_sign_survey", "injectlab.jacobian_sign_survey",
     lambda tr, a, r: tr.add("injectlab.jacobian_sign_survey", boxes=r.boxes_used,
                             partial=int(r.partial))),
    ("injectlab", "collision_search", "injectlab.collision_search",
     lambda tr, a, r: tr.add("injectlab.collision_search", found=int(r is not None))),
    ("injectlab", "injectivity_pipeline", "injectlab.injectivity_pipeline", None),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = [entry[2] for entry in TRACED]
        # one entry per span, by span index
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str, str], int] = defaultdict(int)
        self.op_id = -1
        self.truth_degree = None
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, **quantities: int) -> None:
        for key, value in quantities.items():
            self.counts[(self.op_id, name, key)] += value

    def inside(self, name: str) -> bool:
        """Whether a span of that name is open."""
        code = self.names.index(name)
        return any(self.name[idx] == code for idx in self.stack)

    def _wrap(self, name, fn, hook):
        code = self.names.index(name)
        stack, clock = self.stack, self.clock
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every degreelab module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "degreelab" or key.startswith("degreelab."))]
        for mod_name, attr, name, hook in TRACED:
            home = sys.modules[f"degreelab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def aggregate(self, skip_ops=frozenset()) -> dict[str, float]:
        """Per span name: calls, total seconds, self seconds, and counters.

        Operations in ``skip_ops`` are left out: those without a report,
        such as one cut off by the deadline, whose counts depend on timing.
        """
        children = array("d", bytes(8 * len(self)))
        for idx in range(len(self)):
            parent = self.parent[idx]
            if parent >= 0:
                children[parent] += self.end[idx] - self.start[idx]
        out: dict[str, float] = defaultdict(float)
        for idx in range(len(self)):
            if self.op[idx] in skip_ops:
                continue
            name = self.names[self.name[idx]]
            duration = self.end[idx] - self.start[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - children[idx]
        for (op, name, key), value in self.counts.items():
            if op not in skip_ops:
                out[f"{name}.{key}"] += value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\n")
            for idx in range(len(self)):
                fh.write(f"{idx}\t{self.names[self.name[idx]]}\t{self.parent[idx]}\t"
                         f"{self.op[idx]}\t{self.start[idx]!r}\t{self.end[idx]!r}\n")
