"""Memoized topology/model construction.

Building the paper-scale network model is the single most expensive
setup step of the evaluation pipeline: generating the 3037-router Inet
graph and routing between 100 clients costs seconds, and every figure
sweep, replicated study and CLI invocation needs the *same* model for a
given ``(parameters, seed)`` pair -- :func:`repro.topology.inet.generate_inet`
is deterministic by contract.

This module provides that memoization in one place:

- :class:`ModelKey` -- a frozen, picklable description of a model
  ("these Inet parameters, this seed").  Because it is tiny it can be
  shipped across process boundaries where a built model would be
  wasteful, and resolved into a concrete model on the other side.
- :class:`TopologyCache` -- an LRU of built models with hit/miss
  counters.
- A module-level shared cache with :func:`cached_model` /
  :func:`resolve_model` convenience entry points; the experiment layer
  (:mod:`repro.experiments.figures`, ``runner``, ``parallel``,
  ``replication``) funnels all model construction through these.

Correctness note: the cache stores the model object itself and hands it
out to every caller.  That is safe because :class:`ClientNetworkModel`
is immutable after construction (its derived-statistic caches are
invalidation-free), and it is *required* for byte-equality: a cache hit
must be indistinguishable from a cold build, which the regression tests
in ``tests/topology/test_cache.py`` pin.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import ClientNetworkModel


@dataclass(frozen=True)
class ModelKey:
    """A hashable, picklable recipe for one deterministic model build."""

    parameters: InetParameters = field(default_factory=InetParameters)
    seed: int = 0

    def build(self) -> ClientNetworkModel:
        """Cold build: generate the topology and derive the model."""
        topology = generate_inet(self.parameters, seed=self.seed)
        return ClientNetworkModel.from_inet(topology)


class TopologyCache:
    """LRU cache of built :class:`ClientNetworkModel` objects.

    Parameters
    ----------
    maxsize:
        In-process entries kept; least-recently-used models are evicted
        beyond this.  Paper-scale models are a few MB each, so the
        default keeps memory bounded even across many scales.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[ModelKey, ClientNetworkModel]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ModelKey) -> bool:
        return key in self._entries

    def get(self, key: ModelKey) -> ClientNetworkModel:
        """The model for ``key``, built on miss."""
        entries = self._entries
        model = entries.get(key)
        if model is not None:
            self.hits += 1
            entries.move_to_end(key)
            return model
        self.misses += 1
        model = entries[key] = key.build()
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        return model

    def model(
        self,
        parameters: Optional[InetParameters] = None,
        seed: int = 0,
    ) -> ClientNetworkModel:
        """Convenience wrapper over :meth:`get` for bare parameters."""
        return self.get(ModelKey(parameters or InetParameters(), seed=seed))

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Counters for observability and the cache regression tests."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


# -- the shared process-wide cache ------------------------------------------

_SHARED = TopologyCache()

#: What the experiment layer accepts wherever a model is expected: a
#: built model, or a key resolved through the shared cache at the last
#: responsible moment (in the parent process, before any fan-out).
ModelLike = Union[ClientNetworkModel, ModelKey]


def shared_cache() -> TopologyCache:
    """The process-wide cache used by :func:`cached_model`."""
    return _SHARED


def cached_model(
    parameters: Optional[InetParameters] = None, seed: int = 0
) -> ClientNetworkModel:
    """The memoized model for ``(parameters, seed)``."""
    return _SHARED.model(parameters, seed=seed)


def resolve_model(model: ModelLike) -> ClientNetworkModel:
    """Turn a :class:`ModelKey` into a model; pass built models through."""
    if isinstance(model, ModelKey):
        return _SHARED.get(model)
    return model
