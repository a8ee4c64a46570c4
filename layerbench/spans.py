"""Layer spans recorded from outside the program, by wrapping.

The traced run replaces public functions and methods of the program's
layers with thin wrappers that record one span per call: name, start,
end, parent span and run id, plus a few counts taken from the
arguments or the result.  Spans stay in memory while the benchmark
runs and are written out when it ends.  Nothing under ``src/`` changes:
:meth:`Tracer.install` patches attributes in place and
:meth:`Tracer.uninstall` puts every original object back.

A function imported by name into other modules (``from x import f``)
is patched in every loaded ``repro`` module that holds it, so a call
through any of those names is seen.

Forked children (the service's worker process) inherit the wrappers.
Each child starts an empty span list and appends it to
``<spill_dir>/spans-<pid>.bin`` whenever a top-level call returns with
:data:`CHILD_SPILL_SPANS` spans held, and once more when it exits;
:meth:`Tracer.collect_children` reads the files back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import marshal
import multiprocessing.util as mp_util
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple

#: Marker attribute set on every wrapper.
WRAPPED_MARK = "__layerbench_wrapped__"

#: Spans a forked child holds before appending them to its spill file.
CHILD_SPILL_SPANS = 50_000

#: ``attrs(args, kwargs, result)``: counts for one span, a dict or (for
#: the hot layers, to save memory) a bare value.  A dict's ``"run"``
#: entry, if any, becomes the span's run id.
AttrsFn = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: span name, ``module:qualname``, counts."""

    span: str
    path: str
    attrs: AttrsFn | None = None
    #: ``run(args, kwargs) -> run id or None`` for the call and
    #: everything in it (None keeps the caller's).
    run: Callable[[tuple, dict], str | None] | None = None


class Span(NamedTuple):
    """One recorded call.  ``parent`` is a span id or ``-1``."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    run: str
    pid: int
    attrs: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``module:Qual.name`` -> (owner, attribute, raw original)."""
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{path}: not defined on {owner.__name__}")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _repro_modules() -> list[Any]:
    """The loaded modules of the ``repro`` package."""
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, targets: list[Target], spill_dir: Path) -> None:
        self.targets = targets
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, Any] = {}  # id(wrapper) -> original
        self._pid = os.getpid()
        self._spill_every: int | None = None  # set in forked children

    # -- recording ---------------------------------------------------------

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.run = "main"
        return local

    @property
    def run_id(self) -> str:
        """The calling thread's run id (spans are stamped with it)."""
        return self._state().run

    @run_id.setter
    def run_id(self, value: str) -> None:
        self._state().run = value

    def _wrap(self, target: Target, fn: Callable):
        tracer = self
        name, attrs_fn, run_fn = target.span, target.attrs, target.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outer_run = state.run
            if run_fn is not None:
                state.run = run_fn(args, kwargs) or outer_run
            run = state.run
            attrs = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                state.run = outer_run
                tracer.spans.append(Span(sid, parent, name, t0, t1, run,
                                         tracer._pid,
                                         {"error": type(exc).__name__}))
                raise
            t1 = perf_counter()
            stack.pop()
            state.run = outer_run
            if attrs_fn is not None:
                attrs = attrs_fn(args, kwargs, result)
                if isinstance(attrs, dict) and "run" in attrs:
                    run = attrs.pop("run")
            tracer.spans.append(Span(sid, parent, name, t0, t1, run,
                                     tracer._pid, attrs))
            if (not stack and tracer._spill_every is not None
                    and len(tracer.spans) >= tracer._spill_every):
                tracer._spill()
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        """Wrap every target (idempotent per tracer)."""
        if self._patches:
            return
        for target in self.targets:
            owner, attr, raw = _resolve(target.path)
            if isinstance(owner, type):
                descriptor = isinstance(raw, (staticmethod, classmethod))
                wrapped = self._wrap(target, raw.__func__ if descriptor
                                     else raw)
                if descriptor:
                    wrapped = type(raw)(wrapped)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(target, raw)
            self._originals[id(wrapped)] = raw
            # Patch every loaded repro module that imported it by name.
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, name, raw))
                        setattr(module, name, wrapped)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Put every original object back, in reverse patch order.

        A module imported while the wrappers were installed bound a
        wrapper by name; those references are put back too.
        """
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                raw = self._originals.get(id(value))
                if raw is not None and getattr(value, WRAPPED_MARK, False):
                    setattr(module, name, raw)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        return False

    # -- forked children ---------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked ``multiprocessing`` child: fresh spans, spill at exit."""
        if not self._patches:
            return
        self.spans.clear()
        self._pid = os.getpid()
        self._local = threading.local()
        self._spill_every = CHILD_SPILL_SPANS
        mp_util.Finalize(self, self._spill, exitpriority=100)

    def _spill(self) -> None:
        """Append the held spans to this process's spill file."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self._pid}.bin", "ab") as fh:
            marshal.dump([tuple(s) for s in self.spans], fh)
        self.spans.clear()

    def collect_children(self) -> int:
        """Merge the spans of exited children; returns how many merged."""
        merged = 0
        for path in sorted(self.spill_dir.glob("spans-*.bin")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        chunk = marshal.load(fh)
                    except EOFError:
                        break
                    self.spans.extend(Span(*rec) for rec in chunk)
                    merged += len(chunk)
            path.unlink()
        return merged


class SpanIndex:
    """Spans grouped for self-time arithmetic (ids are per process)."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.child_time: dict[tuple[int, int], float] = defaultdict(float)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                self.child_time[(s.pid, s.parent)] += s.end - s.start
            self.by_name[s.name].append(s)

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by direct children."""
        return span.end - span.start - self.child_time.get((span.pid, span.id), 0.0)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.by_name.get(name, ()))

    def self_total(self, *names: str) -> float:
        return sum(self.self_time(s) for n in names
                   for s in self.by_name.get(n, ()))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def attr_sum(self, name: str, key: str | None = None) -> float:
        """Sum of a count: the bare attribute, or ``attrs[key]``."""
        spans = self.by_name.get(name, ())
        if key is None:
            return sum(s.attrs for s in spans if not isinstance(s.attrs, dict))
        return sum((s.attrs or {}).get(key, 0) for s in spans)

def _is_wrapper(obj: Any) -> bool:
    fn = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
    return getattr(fn, WRAPPED_MARK, False) is True


def assert_pristine() -> None:
    """Raise unless no ``repro`` function or method is wrapped.

    The end-to-end runs call this before measuring: it proves they time
    the program's own functions, not the traced run's wrappers.
    """
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if _is_wrapper(value):
                raise RuntimeError(f"{module.__name__}.{name} is still wrapped")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if _is_wrapper(member):
                        raise RuntimeError(f"{module.__name__}.{name}.{attr} "
                                           "is still wrapped")
