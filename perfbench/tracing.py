"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the program's layers.  A function is
patched in every module that binds it, so a call made through
``model.attention_pool`` is recorded like one made through
``attention.attention_pool``.  Each call leaves a span (name, start, end,
parent); spans stay in memory and are written out when the run ends.

Backward work is attributed to the primitive that recorded it: while a
traced ``autodiff`` primitive runs, every pull closure it puts on the tape
is wrapped in a ``<primitive>_backward`` span, whose parent is the
``Tape.backward`` span that replays it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: list[tuple[str, int, int]] = []  # (name, time_ns, value)
        self._stack: list[int] = []
        self._primitives: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        self.counters.append((name, time.perf_counter_ns(), value))

    def _wrap(self, name: str, fn, primitive: bool = False):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        primitives = self._primitives

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            if primitive:
                primitives.append(name)
            starts[index] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter_ns()
                stack.pop()
                if primitive:
                    primitives.pop()

        return functools.wraps(fn)(traced)

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, primitive: bool = False) -> bool:
        """Wrap ``module.attr`` and every other binding of the same function
        in the package's modules.  Returns False when the module has no such
        function."""
        original = vars(module).get(attr)
        if not callable(original):
            return False
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapper = self._wrap(f"{layer}.{attr}", original, primitive)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(self.package):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._set(mod, key, wrapper)
        return True

    def patch_method(self, cls, attr: str, name: str, before=None) -> bool:
        original = cls.__dict__.get(attr)
        if not callable(original):
            return False
        fn = original
        if before is not None:
            def fn(obj, *args, **kwargs):
                before(obj)
                return original(obj, *args, **kwargs)
        self._set(cls, attr, self._wrap(name, fn))
        return True

    def attribute_backward(self, tape_cls) -> None:
        """Wrap each pull closure recorded while a traced primitive runs."""
        original = tape_cls.__dict__["_record"]
        tracer = self

        def record(tape, outputs, inputs, pull):
            if tracer._primitives:
                pull = tracer._wrap(f"{tracer._primitives[-1]}_backward", pull)
            return original(tape, outputs, inputs, pull)

        self._set(tape_cls, "_record", record)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def aggregate(self, start_ns: int, end_ns: int) -> dict[str, float]:
        """Inclusive ms, self ms and calls per span name, and counter sums,
        over the spans and counters that started in [start_ns, end_ns)."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            if not start_ns <= self.starts[index] < end_ns:
                continue
            duration = self.ends[index] - self.starts[index]
            totals[f"{name}_ms"] += duration / 1e6
            totals[f"{name}_self_ms"] += (duration - child_ns[index]) / 1e6
            totals[f"{name}_calls"] += 1
        for name, stamp, value in self.counters:
            if start_ns <= stamp < end_ns:
                totals[name] += value
        return dict(totals)

    def write(self, path: Path) -> None:
        """One span per line: index, parent, name, start and end in ns."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, name in enumerate(self.names):
                handle.write(
                    f"{index}\t{self.parents[index]}\t{name}\t"
                    f"{self.starts[index]}\t{self.ends[index]}\n"
                )
