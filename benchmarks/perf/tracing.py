"""In-memory span tracer and the monkey-patcher that installs it.

Spans come only from wrappers this package installs around the public
entry points of each layer (see :mod:`benchmarks.perf.probes`) for one
traced repetition, and removes afterwards: nothing under ``src/`` reads
a wall clock.  A span is ``(layer, name, start, end, parent, request)``
in host seconds; a layer's *self* time is its spans' duration minus the
part covered by child spans, so self times over one pass sum to the
pass's wall time.  Full span records are kept for the first two
requests (multicasts / ``disseminate`` calls); everything is aggregated
per ``(layer, name)`` into calls / total / self.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages whose sub-modules are layers of their own; everywhere else
#: the package is the layer (``repro.scheduler.requests`` -> ``scheduler``).
_SPLIT_PACKAGES = ("network", "experiments", "megasim")

#: Full span records are kept for this many requests, and never more
#: than this many spans, so a trace file stays readable.
FULL_REQUESTS = 2
MAX_RECORDS = 20_000

Hook = Callable[["Tracer", Tuple[Any, ...], Any, float, float], None]


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to, named as ISSUE/README name it."""
    parts = (module or "unknown").split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    if len(parts) > 1 and parts[0] in _SPLIT_PACKAGES:
        return ".".join(parts[:2])
    return parts[0]


class ProbeError(LookupError):
    """A public probe target is missing; the message is its dotted name."""


@dataclass(frozen=True)
class Probe:
    """One patch site: ``"package.module:attr"`` or ``"...:Class.attr"``.

    ``target`` names the place the callable is *looked up* at call time
    (a ``from x import f`` site is patched in the importing module).
    ``hook`` post-processes a call (counts, captures); ``request`` marks
    the span that starts a new request; ``callback_arg`` is the index of
    a callable argument to wrap in a span named after its own module.
    """

    target: str
    hook: Optional[Hook] = None
    request: bool = False
    callback_arg: Optional[int] = None

    @property
    def private(self) -> bool:
        leaf = self.target.rsplit(":", 1)[1].rsplit(".", 1)[-1]
        return leaf.startswith("_") and not leaf.startswith("__")


class Tracer:
    """Span stack, per-(layer, name) aggregates and the first full records."""

    def __init__(self, repetition: str) -> None:
        self.repetition = repetition
        #: (layer, name) -> [calls, total_s, self_s]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.records: List[Tuple[int, int, str, str, float, float, int]] = []
        self.request = 0
        self.spans = 0
        #: Free-form accumulators filled by probe hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self.objects: Dict[str, List[Any]] = defaultdict(list)
        self.marks: List[Tuple[str, float, float]] = []
        #: Private probe targets that were absent (reported as null).
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._keys: Dict[Any, Tuple[str, str, List[float]]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        hook: Optional[Hook] = None,
        request: bool = False,
        callback_arg: Optional[int] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span named after its module and qualname."""
        # Bound methods are fresh objects per lookup; key the per-event
        # callback wrappers on the function underneath.
        key = getattr(fn, "__func__", fn)
        if getattr(key, "_perf_span", False):
            return fn  # a patched method used as a callback: one span
        cached = self._keys.get(key)
        if cached is None:
            layer = layer_of(getattr(fn, "__module__", None))
            name = getattr(fn, "__qualname__", type(fn).__name__)
            stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
            cached = self._keys[key] = (layer, name, stat)
        layer, name, stat = cached
        stack = self._stack
        records = self.records
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if callback_arg is not None:
                args = (
                    *args[:callback_arg],
                    self.wrap(args[callback_arg]),
                    *args[callback_arg + 1:],
                )
            if request:
                self.request += 1
            self.spans = span_id = self.spans + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if (
                    0 < self.request <= FULL_REQUESTS
                    and len(records) < MAX_RECORDS
                ):
                    records.append(
                        (span_id, parent, layer, name, start, end, self.request)
                    )
            if hook is not None:
                hook(self, args, result, start, end)
            return result

        traced._perf_span = True  # type: ignore[attr-defined]
        return traced

    # -- installing / removing ----------------------------------------------

    def install(self, probes: List[Probe]) -> None:
        """Patch every probe target; a missing *public* one raises
        :class:`ProbeError` naming it, a missing private one is noted."""
        for probe in probes:
            owner, attr = _resolve_owner(probe)
            if owner is None or attr not in vars(owner):
                if not probe.private:
                    self.remove()
                    raise ProbeError(probe.target)
                self.missing.append(probe.target)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(
                    self.wrap(
                        raw.__func__, probe.hook, probe.request,
                        probe.callback_arg,
                    )
                )
            else:
                wrapped = self.wrap(
                    raw, probe.hook, probe.request, probe.callback_arg
                )
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def remove(self) -> None:
        """Put every patched attribute back to its original object."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading ------------------------------------------------------------

    def _sum(self, column: int, names: Tuple[str, ...], layer: Optional[str]) -> float:
        return sum(
            stat[column]
            for (la, name), stat in self.stats.items()
            if (not names or name in names) and (layer is None or la == layer)
        )

    def calls(self, *names: str, layer: Optional[str] = None) -> int:
        """Span count of the named spans (all, if none named) of a layer
        (any, if none given); ``total_s`` / ``self_s`` select likewise."""
        return int(self._sum(0, names, layer))

    def total_s(self, *names: str, layer: Optional[str] = None) -> float:
        return self._sum(1, names, layer)

    def self_s(self, *names: str, layer: Optional[str] = None) -> float:
        return self._sum(2, names, layer)

    def to_json(self) -> Dict[str, Any]:
        """The trace-file section of this pass."""
        keys = ("id", "parent", "layer", "name", "start", "end", "request")
        return {
            "repetition": self.repetition,
            "spans": self.spans,
            "missing_private_probes": self.missing,
            "aggregates": [
                {
                    "layer": layer, "name": name, "calls": int(stat[0]),
                    "total_s": stat[1], "self_s": stat[2],
                }
                for (layer, name), stat in sorted(self.stats.items())
                if stat[0]
            ],
            "first_requests": [dict(zip(keys, rec)) for rec in self.records],
        }


def _resolve_owner(probe: Probe) -> Tuple[Optional[Any], str]:
    """The object whose attribute the probe replaces, and the attribute."""
    module_name, path = probe.target.split(":")
    *owners, attr = path.split(".")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    for part in owners:
        owner = vars(owner).get(part)
        if owner is None:
            return None, attr
    return owner, attr
