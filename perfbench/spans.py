"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps each listed function at every module attribute
it is reached through: the defining module, the package namespace, and
sibling modules that imported it by name (``feasibility.build_canonical``,
``cli.verify_certificate``, ...). Calls the package makes to those names
therefore become child spans of the call that made them.

Spans live in flat arrays (name, start, end, parent, op) and are reduced
to calls and self time per function when the run ends. Self time is a
span's duration minus the time covered by its direct children. Times are
this process's CPU seconds, the clock the op loop times ops by; the
summary can scale each op's self times to the worker's reference speed.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import evistruct.cli  # noqa: F401  (the package itself does not load it)
from evistruct.structure import EStructure

LAYERS: dict[str, tuple[str, ...]] = {
    "structure": ("from_generators", "derive_relations", "check_axioms",
                  "rank"),
    "canonical": ("build_canonical", "verify_canonical", "verify_embedding"),
    "trees": ("check_tree", "build_tree", "find_trees"),
    "plans": ("check_isd_plan",),
    "feasibility": ("build_system", "decide_system", "verify_certificate",
                    "decide_rationalizable"),
    "rationalize": ("construct_sceu", "verify_rationalization"),
    "io": ("parse_workspace",),
    "cli": ("run",),
}

SPAN_NAMES: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in LAYERS.items()
                                    for f in fs)


class Tracer:
    def __init__(self):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1
        self.found = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, count_results: bool):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_results:
                self.found += len(result)
            return result

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name_id, name in enumerate(SPAN_NAMES):
            module, func = name.split(".")
            if name == "structure.from_generators":
                raw = EStructure.__dict__["from_generators"].__func__
                self._set(EStructure, "from_generators",
                          classmethod(self._wrap(name_id, raw, False)))
                continue
            fn = getattr(sys.modules[f"evistruct.{module}"], func)
            wrapped[id(fn)] = self._wrap(name_id, fn,
                                         name == "trees.find_trees")
        modules = [m for key, m in sys.modules.items()
                   if key == "evistruct" or key.startswith("evistruct.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def summary(self, ops: int, scales=None) -> dict[str, float]:
        """Calls and self milliseconds per op for every listed function,
        plus find_trees' trees found per op and its yield per check.

        ``scales``, indexed by op, multiplies the self time of that op's
        spans (the worker passes the factors to its reference speed)."""
        n = len(self.starts)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        find_id = SPAN_NAMES.index("trees.find_trees")
        check_id = SPAN_NAMES.index("trees.check_tree")
        checks_under_find = 0
        for i in range(n):
            k = self.names[i]
            calls[k] += 1
            own = self.ends[i] - self.starts[i] - child_time[i]
            self_s[k] += own * scales[self.ops[i]] if scales else own
            if k == check_id and self._under(i, find_id):
                checks_under_find += 1
        out: dict[str, float] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[k] / ops
            out[f"{name}.self_ms"] = 1000.0 * self_s[k] / ops
        out["trees.find_trees.found"] = self.found / ops
        out["trees.find_trees.yield"] = (self.found / checks_under_find
                                         if checks_under_find else 0.0)
        return out

    def _under(self, i: int, name_id: int) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name_id:
                return True
            p = self.parents[p]
        return False

    def write(self, path) -> None:
        """Raw spans, one per line: name, start, end, parent index, op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.starts)):
                out.write(f"{SPAN_NAMES[self.names[i]]}\t{self.starts[i]:.9f}"
                          f"\t{self.ends[i]:.9f}\t{self.parents[i]}"
                          f"\t{self.ops[i]}\n")

