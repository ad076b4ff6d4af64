"""Regression tests for the memoized topology/model cache.

The load-bearing property: a cache hit must be indistinguishable from a
cold build -- same matrices, same derived statistics -- because the
experiment layer now routes every model construction through the cache
and the golden-trace gate assumes model bytes never change.
"""

from __future__ import annotations

from repro.topology.cache import (
    ModelKey,
    TopologyCache,
    cached_model,
    resolve_model,
    shared_cache,
)
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import ClientNetworkModel

SMALL = InetParameters(router_count=120, client_count=8, transit_count=8,
                       transit_extra_degree=4)


def _cold_build(parameters: InetParameters, seed: int) -> ClientNetworkModel:
    return ClientNetworkModel.from_inet(generate_inet(parameters, seed=seed))


def _assert_models_equal(a: ClientNetworkModel, b: ClientNetworkModel) -> None:
    assert a.latency_ms == b.latency_ms
    assert a.hops == b.hops
    assert a.positions == b.positions
    assert a.mean_latency() == b.mean_latency()
    assert [a.closeness(i) for i in range(a.size)] == [
        b.closeness(i) for i in range(b.size)
    ]


def test_hit_equals_cold_build():
    cache = TopologyCache()
    key = ModelKey(SMALL, seed=5)
    first = cache.get(key)
    second = cache.get(key)
    assert second is first  # a hit hands out the memoized object
    _assert_models_equal(first, _cold_build(SMALL, 5))
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}


def test_distinct_keys_build_distinct_models():
    cache = TopologyCache()
    a = cache.get(ModelKey(SMALL, seed=1))
    b = cache.get(ModelKey(SMALL, seed=2))
    assert a is not b
    assert a.latency_ms != b.latency_ms
    assert cache.stats()["misses"] == 2


def test_lru_eviction_is_bounded_and_rebuilds():
    cache = TopologyCache(maxsize=2)
    keys = [ModelKey(SMALL, seed=s) for s in (1, 2, 3)]
    for key in keys:
        cache.get(key)
    assert len(cache) == 2
    assert keys[0] not in cache  # least recently used went first
    assert keys[1] in cache and keys[2] in cache
    rebuilt = cache.get(keys[0])  # miss: rebuilds, evicts keys[1]
    _assert_models_equal(rebuilt, _cold_build(SMALL, 1))
    assert keys[1] not in cache


def test_resolve_model_passthrough_and_key_resolution():
    model = ClientNetworkModel.uniform(4)
    assert resolve_model(model) is model
    key = ModelKey(SMALL, seed=11)
    resolved = resolve_model(key)
    assert resolved is shared_cache().get(key)  # same shared entry
    _assert_models_equal(resolved, _cold_build(SMALL, 11))


def test_cached_model_shares_the_process_cache():
    first = cached_model(SMALL, seed=13)
    assert cached_model(SMALL, seed=13) is first
    assert resolve_model(ModelKey(SMALL, seed=13)) is first
