"""Per-layer host-time attribution by wrapping the toolkit at run time.

:func:`install` replaces every function defined in a ``repro`` module —
module functions, methods, static and class methods, property accessors
and generator functions — with a wrapper that opens a span of the
function's layer (see :mod:`layers`).  Callbacks handed to the
discrete-event simulator are wrapped when scheduled, so a callback counts
as a call into the layer whose module defines it.  Nothing under ``src/``
is edited; the wrappers exist only in the traced worker process.

Accounting is by transitions: entering a span of another layer charges
the time since the last transition to the interrupted layer, and leaving
it charges the span's own layer.  A layer's self time is therefore its
spans minus the nested spans of other layers, and a call into the same
layer opens no span at all.  On the driving thread, time outside every
span is *unattributed* (the benchmark's own code).  Any other thread is
counted only while inside a span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

from layers import ROOT, layer_of

UNATTRIBUTED = "unattributed"
IDLE = "idle"

#: Class attributes never wrapped: object-protocol hooks whose wrapping
#: changes semantics or recurses.
_SKIP = frozenset({
    "__new__", "__init_subclass__", "__class_getitem__", "__getattribute__",
    "__getattr__", "__setattr__", "__delattr__", "__del__", "__repr__",
    "__hash__", "__eq__", "__subclasshook__", "_generate_next_value_",
    "_missing_",
})


class _ThreadState:
    __slots__ = ("stack", "mark", "self_s", "entries")

    def __init__(self, bottom: str, now: float) -> None:
        self.stack = [bottom]
        self.mark = now
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.entries: Counter[str] = Counter()


class LayerTracer:
    """Self time and cross-layer entries per layer, per thread."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.main = threading.get_ident()
        self.states: dict[int, _ThreadState] = {}
        self.counters: Counter[str] = Counter()
        self.started = 0.0

    # -- accounting ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        ident = threading.get_ident()
        state = self.states.get(ident)
        if state is None:
            bottom = UNATTRIBUTED if ident == self.main else IDLE
            state = self.states[ident] = _ThreadState(bottom, self.clock())
        return state

    def wrap(self, fn, layer: str):
        """*fn* with span accounting for *layer*."""
        if getattr(fn, "_perfbench_layer", None) is not None:
            return fn
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, layer)
        else:
            state_of = self._state
            clock = self.clock

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = state_of()
                stack = state.stack
                if stack[-1] is layer:
                    return fn(*args, **kwargs)
                now = clock()
                state.self_s[stack[-1]] += now - state.mark
                state.mark = now
                stack.append(layer)
                state.entries[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    state.self_s[layer] += now - state.mark
                    state.mark = now
                    stack.pop()

        wrapper._perfbench_layer = layer
        return wrapper

    def _enter(self, layer: str) -> bool:
        state = self._state()
        if state.stack[-1] is layer:
            return False
        now = self.clock()
        state.self_s[state.stack[-1]] += now - state.mark
        state.mark = now
        state.stack.append(layer)
        state.entries[layer] += 1
        return True

    def _leave(self) -> None:
        state = self._state()
        now = self.clock()
        state.self_s[state.stack.pop()] += now - state.mark
        state.mark = now

    def _wrap_generator(self, fn, layer: str):
        """A generator's body runs at each resumption, not at the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sent, thrown = None, None
            while True:
                entered = tracer._enter(layer)
                try:
                    if thrown is not None:
                        item = inner.throw(thrown)
                    else:
                        item = inner.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if entered:
                        tracer._leave()
                sent, thrown = None, None
                try:
                    sent = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the body
                    thrown = exc

        return wrapper

    # -- results ------------------------------------------------------------

    def start(self) -> None:
        self.states.clear()
        self.counters.clear()
        self.started = self.clock()
        self._state().mark = self.started

    def stop(self) -> dict:
        """Close the region; return self times, entries and the balance check."""
        now = self.clock()
        main = self.states[self.main]
        main.self_s[main.stack[-1]] += now - main.mark
        main.mark = now
        self_s: defaultdict[str, float] = defaultdict(float)
        entries: Counter[str] = Counter()
        unbalanced = []
        if main.stack != [UNATTRIBUTED]:
            unbalanced.append(f"spans left open: {main.stack[1:]}")
        for state in self.states.values():
            for layer, seconds in state.self_s.items():
                if layer != IDLE:
                    self_s[layer] += seconds
            entries.update(state.entries)
        wall = now - self.started
        main_sum = sum(main.self_s.values())
        return {
            "wall_s": wall,
            "main_sum_s": main_sum,
            "self_s": dict(self_s),
            "entries": dict(entries),
            "counters": dict(self.counters),
            "unbalanced": unbalanced,
        }


def _module_functions(module):
    """(owner, attribute name, raw value) for each callable *module* defines."""
    name = module.__name__
    for attr, value in list(vars(module).items()):
        if inspect.isfunction(value) and value.__module__ == name:
            yield module, attr, value
        elif inspect.isclass(value) and value.__module__ == name:
            for cattr, cvalue in list(vars(value).items()):
                if cattr not in _SKIP:
                    yield value, cattr, cvalue


def _wrapped_member(tracer: LayerTracer, raw, layer: str):
    """The wrapped version of a class or module member, or ``None``."""
    if isinstance(raw, staticmethod):
        return staticmethod(tracer.wrap(raw.__func__, layer))
    if isinstance(raw, classmethod):
        return classmethod(tracer.wrap(raw.__func__, layer))
    if isinstance(raw, property):
        return property(
            *(tracer.wrap(f, layer) if f is not None else None
              for f in (raw.fget, raw.fset, raw.fdel)),
            raw.__doc__,
        )
    if inspect.isfunction(raw):
        inner = getattr(raw, "__wrapped__", None)
        if inner is not None and inspect.isgeneratorfunction(inner) and (
            raw.__code__ is contextlib.contextmanager(inner).__code__
        ):
            return contextlib.contextmanager(tracer.wrap(inner, layer))
        return tracer.wrap(raw, layer)
    return None


def install(tracer: LayerTracer) -> None:
    """Wrap every ``repro`` function in place."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == ROOT or n.startswith(ROOT + "."))
    ]
    replaced: dict[int, object] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        if layer is None:
            raise RuntimeError(f"module {module.__name__} has no layer")
        for owner, attr, raw in list(_module_functions(module)):
            new = _wrapped_member(tracer, raw, layer)
            if new is None:
                continue
            setattr(owner, attr, new)
            if owner is module:
                replaced[id(raw)] = new
    # `from x import f` copies: point every module's name at the wrapper.
    for module in modules:
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None and new is not value:
                setattr(module, attr, new)
    _wrap_scheduled_callbacks(tracer)


def _wrap_scheduled_callbacks(tracer: LayerTracer) -> None:
    """Attribute each simulator callback to the layer that defined it."""
    from repro.eventsim.simulator import Simulator

    schedule = Simulator.schedule

    def traced_schedule(self, delay, callback, **kwargs):
        if getattr(callback, "_perfbench_layer", None) is None:
            target = getattr(callback, "func", callback)
            layer = layer_of(getattr(target, "__module__", None))
            if layer is not None:
                callback = tracer.wrap(callback, layer)
        return schedule(self, delay, callback, **kwargs)

    Simulator.schedule = functools.wraps(schedule)(traced_schedule)


def count_calls(tracer: LayerTracer, owner, attr: str, counter: str,
                amount=None, ok=None) -> None:
    """Count calls of ``owner.attr`` into ``tracer.counters[counter]``.

    *amount(args, result)* gives the increment (default 1);
    *ok(result)* splits calls into ``counter`` and ``counter + ".miss"``.
    """
    fn = vars(owner)[attr]
    counters = tracer.counters
    lock = threading.Lock()

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        key = counter if ok is None or ok(result) else counter + ".miss"
        step = 1 if amount is None else amount(args, result)
        with lock:
            counters[key] += step
        return result

    counted._perfbench_layer = getattr(fn, "_perfbench_layer", None)
    setattr(owner, attr, counted)

