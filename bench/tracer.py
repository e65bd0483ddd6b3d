"""Span tracer that times calls into a package from outside it.

`Tracer.install` replaces every public function and method defined in
the package, in every loaded package namespace that binds it, by a
wrapper that records a span: name, start, end, parent span and job id,
plus whatever the probe registered for that name reads from the
arguments and result (work counts).  Spans stay in memory until
`dump` writes them out; `uninstall` puts the original objects back.
Nothing here knows about the package's internals: a name that a later
refactor removes is simply never called, so its figures read as zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    """One timed call.  name is '<module>.<qualname>', e.g. 'slater.SlaterState.psi_grad'."""

    sid: int
    name: str
    parent: int | None
    job: str | None
    start: float
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part covered by its direct children.

    Calls are nested and single-threaded, so the children of a span lie
    inside it and do not overlap one another.
    """
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


# probe(args, kwargs, result) -> dict of figures stored on the span
Probe = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self, package: str, probes: dict[str, Probe] | None = None):
        self.package = package
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None

    def _owned(self, obj) -> bool:
        mod = getattr(obj, "__module__", None) or ""
        return mod == self.package or mod.startswith(self.package + ".")

    def _wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"
        probe = self.probes.get(func.__qualname__)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].sid if self._stack else None
            span = Span(len(self.spans), name, parent, self.job, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                # Count an error once, in the span where it started.
                span.error = exc is not self._last_error
                self._last_error = exc
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, result)
                except Exception as exc:  # a probe must never break the traced program
                    span.info = {"probe_error": repr(exc)}
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        classes: set[int] = set()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not self._owned(obj):
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj)
                    self._replace(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and id(obj) not in classes:
                    classes.add(id(obj))
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (staticmethod, classmethod)):
                            self._replace(obj, meth, type(raw)(self._wrap(raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._replace(obj, meth, self._wrap(raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), default=float) + "\n")
