"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the package's layer
modules, and every public method of their classes, with a wrapper that
records one span per call: name, parent span, task id, start and end.  A
function imported elsewhere with ``from .x import f`` is re-bound in each
module that holds it, so calls through those names are traced too.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

Spans are kept in flat arrays in memory and written out once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "scenario", "families", "spectral", "tate", "surface",
          "covers", "fiber", "fourier")
# private names traced on purpose: the Mumford invariant check
EXTRA = {"covers.DivisorClass.__post_init__"}
# Gaussian-rational scalars: millions of calls per round, each far cheaper
# than a span; their time counts toward the span that calls them
SKIP_CLASSES = {"covers.QI"}

OUTERMOST = 1           # no span of the same name is open around this one
RAISED = 2


class Tracer:
    def __init__(self, hooks: dict[str, Callable[[Any], None]] | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._hooks = hooks or {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.task_id = -1
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self._stack = [-1]
        self._open = [0] * len(self.names)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _wrap(self, label: str, fn: Callable) -> Callable:
        nid = self._intern(label)
        hook = self._hooks.get(label)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack, opened, end = tracer._stack, tracer._open, tracer.end
            idx = len(end)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.task.append(tracer.task_id)
            tracer.flags.append(0 if opened[nid] else OUTERMOST)
            opened[nid] += 1
            stack.append(idx)
            end.append(0.0)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                tracer.flags[idx] |= RAISED
                raise
            else:
                end[idx] = clock()
            finally:
                stack.pop()
                opened[nid] -= 1
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("spectral_forge")
        modules = {short: importlib.import_module(f"spectral_forge.{short}")
                   for short in LAYERS}
        namespaces = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, name, wrapper)
                elif inspect.isclass(obj) and f"{short}.{attr}" not in SKIP_CLASSES:
                    self._wrap_class(short, obj)

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            label = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") and label not in EXTRA:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(label, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(label, raw.__func__))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(label, raw.fget), raw.fset, raw.fdel,
                               raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrap(label, raw)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views on the span buffers; ``reset`` replaces the buffers, so the
        views stay valid."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "task": np.frombuffer(self.task, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "flags": np.frombuffer(self.flags, dtype=np.int8)}

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Per-name counts and times derived from one set of spans."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        n_names = len(names)
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        outer = (spans["flags"] & OUTERMOST) != 0
        raised = (spans["flags"] & RAISED) != 0
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        self.calls = np.bincount(name, minlength=n_names)
        self.raised = np.bincount(name, weights=raised, minlength=n_names)
        # inclusive time counts only the outermost span of recursive calls
        self.inclusive = np.bincount(name, weights=dur * outer, minlength=n_names)
        self.self_time = np.bincount(name, weights=self_time, minlength=n_names)
        self._name = name
        self._parent = parent

    def _id(self, label: str) -> int | None:
        try:
            return self.names.index(label)
        except ValueError:
            return None

    def count(self, label: str) -> int:
        i = self._id(label)
        return 0 if i is None else int(self.calls[i])

    def seconds(self, label: str) -> float:
        i = self._id(label)
        return 0.0 if i is None else float(self.inclusive[i])

    def failures(self, label: str) -> int:
        i = self._id(label)
        return 0 if i is None else int(self.raised[i])

    def module_self(self, module: str) -> float:
        return float(sum(t for n, t in zip(self.names, self.self_time)
                         if n.split(".", 1)[0] == module))

    def count_under(self, label: str, parent_label: str) -> int:
        """Calls of ``label`` made directly from a ``parent_label`` span."""
        i, j = self._id(label), self._id(parent_label)
        if i is None or j is None:
            return 0
        mine = self._name == i
        parents = self._parent[mine]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(self._name[parents] == j))

    def call_counts(self) -> dict[str, int]:
        return {n: int(c) for n, c in zip(self.names, self.calls)}
