"""``VectorTopology.closer`` is ``metric < radius``, decision for decision.

Radius and Hybrid classify every sampled pair with ``closer``.  On the
plane (and on a dense model's distance kind) it compares the squared
distance with the squared radius and defers to ``np.hypot`` only inside
a narrow relative band around the boundary.  These properties hold it
to the hypot decision where the two could part -- radii equal to a
pair's own distance and one ulp either side, on lattices full of exact
ties -- and at the ends: ``inf``, tiny radii, per-pair radius arrays.
"""

from __future__ import annotations

from typing import List, Tuple
from unittest.mock import patch

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.megasim.adapter as adapter_module
from repro.megasim.adapter import (
    METRIC_DISTANCE,
    METRIC_LATENCY,
    DenseTopology,
    PlaneTopology,
    UniformTopology,
    VectorTopology,
)
from repro.topology.geometry import Point
from repro.topology.routing import ClientNetworkModel

#: Radii small enough that their squares underflow or go subnormal.
TINY_RADII = (0.0, 5e-324, 1e-300, 1e-160, 2.0**-480, 1e-150)


@st.composite
def coordinates(draw: st.DrawFn) -> "np.ndarray":
    """An ``(n, 2)`` record: uniform doubles over a drawn scale, or a
    lattice, where equal and exactly representable distances abound."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1e-3, 1.0, 100.0, 1e6]))
        xy = rng.random((n, 2)) * scale
    else:
        step = draw(st.sampled_from([1.0, 0.1, 25.0, 1e-3]))
        xy = rng.integers(0, 6, size=(n, 2)).astype(np.float64) * step
    return np.ascontiguousarray(xy)


def dense_model(
    xy: "np.ndarray", rng: "np.random.Generator"
) -> ClientNetworkModel:
    """A model on ``xy`` whose latencies are drawn, with repeated values."""
    n = xy.shape[0]
    latency = rng.choice([10.0, 12.5, 40.0, 0.1 + 0.2], size=(n, n))
    np.fill_diagonal(latency, 0.0)
    hops = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    positions = [Point(float(x), float(y)) for x, y in xy]
    return ClientNetworkModel(latency.tolist(), hops, positions)


@st.composite
def cases(draw: st.DrawFn) -> Tuple[VectorTopology, str]:
    xy = draw(coordinates())
    which = draw(st.sampled_from(["plane", "dense", "uniform"]))
    kind = draw(st.sampled_from([METRIC_DISTANCE, METRIC_LATENCY]))
    if which == "plane":
        return PlaneTopology.from_coordinates(xy, side=100.0), kind
    if which == "dense":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return DenseTopology(dense_model(xy, rng), round_ms=50.0), kind
    latency_ms = draw(st.sampled_from([1.0, 50.0]))
    return UniformTopology(xy.shape[0], latency_ms=latency_ms), kind


def all_pairs(n: int) -> Tuple["np.ndarray", "np.ndarray"]:
    src, dst = np.divmod(np.arange(n * n), n)
    return src.astype(np.int32), dst.astype(np.int32)


def ulps(values: "np.ndarray", steps: "np.ndarray") -> "np.ndarray":
    """``values`` moved by ``steps`` (-1, 0 or +1) ulps each."""
    return np.where(
        steps == 0,
        values,
        np.nextafter(values, np.where(steps > 0, np.inf, -np.inf)),
    )


def check(topology: VectorTopology, kind: str, src, dst, radius) -> None:
    expected = topology.metric(kind, src, dst) < radius
    closer = topology.closer(kind, src, dst, radius)
    assert closer.dtype == np.bool_ and closer.shape == src.shape
    np.testing.assert_array_equal(closer, expected)


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_closer_is_metric_below_radius(case, data) -> None:
    topology, kind = case
    src, dst = all_pairs(topology.size)
    metric = topology.metric(kind, src, dst)
    # Every pair's own distance, and one ulp either side, at once.
    for step in (-1, 0, 1):
        radii = ulps(metric, np.full(metric.shape, step))
        check(topology, kind, src, dst, radii)
    # A per-pair mix of those, and Hybrid's shape: 2 * rho or rho by pair.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    radii = ulps(metric, rng.integers(-1, 2, metric.shape))
    check(topology, kind, src, dst, radii)
    rho = float(data.draw(st.sampled_from(metric.tolist())))
    radii = np.where(rng.random(metric.shape) < 0.5, 2.0 * rho, rho)
    check(topology, kind, src, dst, radii)
    # Scalars: one pair's distance nudged by an ulp, the ends, tiny radii.
    step = data.draw(st.sampled_from([-1, 0, 1]))
    for radius in (
        float(ulps(np.float64(rho), np.int64(step))),
        np.inf,
        -np.inf,
        data.draw(st.sampled_from(TINY_RADII)),
        -rho,
    ):
        check(topology, kind, src, dst, radius)


@settings(max_examples=100, deadline=None)
@given(xy=coordinates())
def test_plane_metric_is_the_four_gather_hypot(xy) -> None:
    topology = PlaneTopology.from_coordinates(xy, side=100.0)
    src, dst = all_pairs(topology.size)
    px, py = topology.positions
    four = np.hypot(px[src] - px[dst], py[src] - py[dst])
    assert topology.metric(METRIC_DISTANCE, src, dst).tobytes() == four.tobytes()


@pytest.mark.parametrize(
    "n, seed, side", [(1, 0, 100.0), (500, 7, 100.0), (500, 3, 1e3)]
)
def test_generated_plane_metric_is_the_four_gather_hypot(n, seed, side) -> None:
    topology = PlaneTopology(n, seed=seed, side=side)
    src, dst = all_pairs(n)
    px, py = topology.positions
    four = np.hypot(px[src] - px[dst], py[src] - py[dst])
    assert topology.metric(METRIC_LATENCY, src, dst).tobytes() == four.tobytes()


def test_only_pairs_near_the_boundary_reach_hypot() -> None:
    """A 3-4-5 triangle puts one pair exactly on radius 5: it (and its
    reverse) go through ``np.hypot``; the pairs clearly inside or outside
    are settled by the squared test alone."""
    xy = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0], [90.0, 0.0]])
    topology = PlaneTopology.from_coordinates(xy, side=100.0)
    src, dst = all_pairs(4)
    deferred: List[int] = []
    real = adapter_module.plane_distance

    def spy(points, a, b):
        deferred.append(int(a.shape[0]))
        return real(points, a, b)

    with patch.object(adapter_module, "plane_distance", spy):
        closer = topology.closer(METRIC_DISTANCE, src, dst, 5.0)
    assert deferred == [2]
    np.testing.assert_array_equal(
        closer, topology.metric(METRIC_DISTANCE, src, dst) < 5.0
    )


def test_positions_are_read_only_views_of_the_record() -> None:
    topology = PlaneTopology(50, seed=2)
    x, y = topology.positions
    assert not x.flags.writeable and not y.flags.writeable
    assert np.shares_memory(x, topology.coordinates)
    assert np.shares_memory(y, topology.coordinates)
    assert topology.coordinates.shape == (50, 2)
    assert topology.coordinates.flags.c_contiguous
