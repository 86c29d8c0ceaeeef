"""In-process span tracer that wraps adrlab's public functions from outside.

Nothing under ``src/`` is edited: `Tracer.install` replaces each hooked
function by a timing wrapper in every loaded ``adrlab`` module that holds a
reference to it (``from .operators import build_nccd`` copies the name into
the importing module, so patching only the defining module would miss
calls). `Tracer.uninstall` puts the originals back.

A span is opened per call and closed when it returns. The tracer keeps a
stack of open spans, so every span knows its parent, and a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Hook:
    """One function to time: ``owner.attr`` recorded under span ``name``.

    `key` maps the call's arguments to a hashable value kept per call,
    paired with the tracer's `unit` (operator builders record the grid
    size). `on_return` may wrap the returned object further (steppers get
    their ``step`` method timed).
    """

    owner: str
    attr: str
    name: str
    key: object = None
    on_return: object = None


@dataclass
class SpanStats:
    durations: list = field(default_factory=list)
    self_s: float = 0.0
    keys: list = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return float(sum(self.durations))


class Tracer:
    """Collects span statistics while installed.

    `unit` is set by the caller to the index of the unit of work in
    progress (one CLI invocation), so that per-call keys can be grouped by
    the process that would have made them.
    """

    def __init__(self):
        self.unit = 0
        self.stats: dict = {}
        self._stack: list = []
        self._restore: list = []
        self.missing: list = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, name: str, fn, key=None, on_return=None):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s = [0.0]  # time of direct children, added as they close
            stack.append(child_s)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = SpanStats()
                st.durations.append(dur)
                st.self_s += dur - child_s[0]
                if stack:
                    stack[-1][0] += dur
            if key is not None:
                st.keys.append((self.unit, key(*args, **kwargs)))
            if on_return is not None:
                on_return(self, out, args, kwargs)
            return out

        return traced

    def install(self, hooks) -> None:
        """Patch every hook; a hook whose target no longer exists is listed
        in `missing` so a renamed function shows up instead of silently
        reading as zero."""
        for hook in hooks:
            owner = _resolve(hook.owner)
            original = getattr(owner, hook.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{hook.owner}.{hook.attr}")
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(hook.attr)
                self._patch(owner, hook.attr, raw,
                            self.wrap(hook.name, raw, hook.key, hook.on_return))
                continue
            traced = self.wrap(hook.name, original, hook.key, hook.on_return)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "adrlab" or mod_name.startswith("adrlab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)


def _resolve(dotted: str):
    """``adrlab.operators.DerivativeOperator`` -> the loaded object, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is None:
            continue
        obj = mod
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


def time_method(tracer: Tracer, obj, method: str, name: str) -> None:
    """Time ``obj.method`` on this instance only (the class stays untouched)."""
    setattr(obj, method, tracer.wrap(name, getattr(obj, method)))
