"""In-memory span recorder that times circjacobi's layers from outside the package.

`instrument` swaps module and class attributes of the loaded package for
thin wrappers, so every call through them opens a span (name, start, end,
parent).  Spans stay in flat arrays until `Recorder.write` dumps them; self
time is a span's duration minus the part of it that its child spans cover.
The package itself is not edited, and `instrument` restores every attribute
it replaced.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Spans of one single-threaded run, stored in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_ix.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)

        return traced

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, number of spans)."""
        selfs = self_times(self.parent, self.start, self.end)
        out = {name: [0.0, 0] for name in self.names}
        for ix, value in zip(self.name_ix, selfs):
            entry = out[self.names[ix]]
            entry[0] += value
            entry[1] += 1
        return {name: (s, c) for name, (s, c) in out.items()}

    def write(self, path) -> None:
        """One CSV line per span: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for idx, (ix, par, t0, t1) in enumerate(
                zip(self.name_ix, self.parent, self.start, self.end)
            ):
                fh.write(f"{idx},{par},{self.names[ix]},{t0!r},{t1!r}\n")


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans must be in start order, as `Recorder` stores them; a child's
    interval is clipped to its parent's.
    """
    covered = [0.0] * len(start)
    cursor = list(start)  # per span: where the covered part of it ends so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], cursor[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [t1 - t0 - c for t0, t1, c in zip(start, end, covered)]


class _Proxy:
    """Stands in for `target`, answering `overrides` itself and the rest from target."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _proxied(obj, path: list[str], leaf):
    head, *rest = path
    value = leaf if not rest else _proxied(getattr(obj, head), rest, leaf)
    return _Proxy(obj, {head: value})


@contextmanager
def instrument(recorder: Recorder, package: str, targets):
    """Wrap each target of `package` in spans for the duration of the block.

    A target is (span name, module, dotted attribute path) where the path is
    one of:

    - ``fn``: a module function; every module of the package that holds the
      same function object (re-exports included) gets the wrapper;
    - ``Class.method``: a plain method or classmethod, replaced on the class;
    - ``mod.sub.fn``: a function of a module outside the package, reached
      through a module attribute; only this module sees the wrapper.
    """
    package_modules = [
        mod for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for name, module_name, path in targets:
            module = sys.modules[f"{package}.{module_name}"]
            head, *rest = path.split(".")
            owner = getattr(module, head)
            if not rest:
                wrapped = recorder.wrap(owner, name)
                for mod in package_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is owner:
                            replace(mod, attr, wrapped)
            elif isinstance(owner, type):
                (attr,) = rest
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(raw.__func__, name))
                else:
                    wrapped = recorder.wrap(raw, name)
                replace(owner, attr, wrapped)
            else:
                leaf_owner = owner
                for attr in rest[:-1]:
                    leaf_owner = getattr(leaf_owner, attr)
                leaf = recorder.wrap(getattr(leaf_owner, rest[-1]), name)
                replace(module, head, _proxied(owner, rest, leaf))
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
