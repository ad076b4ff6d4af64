"""Bridges between the event-kernel world and the vector backend.

Inbound: a :class:`VectorTopology` gives the round kernel the three
things a transmission strategy may ask of the environment -- pairwise
metrics (latency / pseudo-geographic distance), the oracle best-node
set, and the slot duration.  :class:`DenseTopology` wraps an existing
:class:`~repro.topology.routing.ClientNetworkModel` (so the differential
harness runs both backends against the *same* environment, including
the exact tie-breaking of its ``best_nodes``); :class:`UniformTopology`
and :class:`PlaneTopology` are synthetic environments that never
materialize an O(n^2) matrix and therefore scale to 10^6 nodes.

Faults: :func:`compile_faults` lowers the event kernel's whole fault
model -- :class:`~repro.failures.injection.FailurePlan` crashes and
:class:`~repro.failures.gray.GrayFailurePlan` lossy links -- into a
:class:`CompiledFaults`: a crashed-node mask, always-drop link keys
and a Bernoulli loss probability.  Victims and lossy links come from
the injectors' own draws (:func:`~repro.failures.crash_victims`,
:func:`~repro.failures.gray_targets`), so both backends impair the same
nodes and links for a given seed.

Outbound: :func:`summary_from_outcomes` fills a
:class:`~repro.metrics.analysis.RunSummary` directly from slot
histograms (latency statistics with the same formulas ``summarize()``
uses; the ratios are the summary's own properties), so every run
reports in the recorder's metric schema without recorder-sized state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.failures.gray import GrayFailurePlan, gray_targets
from repro.failures.injection import FailurePlan, crash_victims
from repro.megasim.links import merge_link_arrays, top_share
from repro.megasim.state import run_starts
from repro.metrics.analysis import RunSummary
from repro.metrics.confidence import mean_confidence_interval, percentile
from repro.network.message import control_packet_size, payload_packet_size
from repro.sim.rng import RandomStreams
from repro.topology.routing import ClientNetworkModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.megasim.rounds import MessageOutcome

#: Metric kinds a strategy may request: the model's latency and distance rows.
METRIC_LATENCY = "latency"
METRIC_DISTANCE = "distance"

#: A radius: one value for every pair, or one per pair (Hybrid's
#: ``2 * rho`` / ``rho`` by forward round).
Radius = Union[float, NDArray[np.float64]]


class VectorTopology(Protocol):
    """What the vectorized strategies need from an environment."""

    @property
    def size(self) -> int: ...

    @property
    def round_ms(self) -> float:
        """Slot duration: the one-way latency a slot represents."""
        ...

    def metric(
        self, kind: str, src: NDArray[np.int32], dst: NDArray[np.int32]
    ) -> NDArray[np.float64]:
        """``Metric(p)`` at ``src`` about ``dst`` (the model-file row)."""
        ...

    def closer(
        self,
        kind: str,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        radius: Radius,
    ) -> NDArray[np.bool_]:
        """``metric(kind, src, dst) < radius``, element for element;
        ``radius`` is a scalar or one value per pair."""
        ...

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        """Boolean membership array of the oracle best-node set."""
        ...


def _check_kind(kind: str) -> None:
    if kind not in (METRIC_LATENCY, METRIC_DISTANCE):
        raise ValueError(f"unknown metric kind {kind!r}")


#: :func:`plane_closer` settles a pair by ``dx*dx + dy*dy`` against
#: ``radius * radius`` unless the two lie within this relative distance
#: of each other; only those pairs are settled by ``np.hypot`` itself.
#: The band is four orders of magnitude wider than the few-ulp combined
#: error of the three quantities, so every decision is the hypot
#: decision (DESIGN §10).
_CLOSER_BAND = 1e-12
#: Radii outside ``[2**-480, 2**480]`` (their squares may underflow or
#: overflow), negative radii and NaN settle every pair by ``np.hypot``.
_CLOSER_RADIUS_RANGE = (2.0**-480, 2.0**480)


def plane_points(xy: NDArray[np.float64]) -> NDArray[np.complex128]:
    """An ``(n, 2)`` C-contiguous coordinate record as ``n`` complex
    numbers ``x + iy`` -- a view, so one 16-byte gather fetches both
    coordinates of a node."""
    if xy.ndim != 2 or xy.shape[1] != 2 or not xy.flags.c_contiguous:
        raise ValueError(
            f"coordinates must be a C-contiguous (n, 2) array, got {xy.shape}"
        )
    return xy.view(np.complex128).reshape(-1)


def _offsets(
    points: NDArray[np.complex128],
    src: NDArray[np.int32],
    dst: NDArray[np.int32],
) -> NDArray[np.complex128]:
    """``points[src] - points[dst]``: one gather per endpoint; the real
    and imaginary parts are the doubles ``x[src] - x[dst]`` and
    ``y[src] - y[dst]`` of two separate coordinate columns."""
    offset = np.take(points, src)
    offset -= np.take(points, dst)
    return offset


def plane_distance(
    points: NDArray[np.complex128],
    src: NDArray[np.int32],
    dst: NDArray[np.int32],
) -> NDArray[np.float64]:
    """Euclidean distance of each pair, ``np.hypot(dx, dy)``.  (Complex
    ``np.abs`` is not bit-identical to it.)  ``math.hypot`` and
    ``np.hypot`` share the libm implementation, so this matches
    ``geometry.euclidean`` bit for bit."""
    offset = _offsets(points, src, dst)
    return np.asarray(np.hypot(offset.real, offset.imag), dtype=np.float64)


def plane_closer(
    points: NDArray[np.complex128],
    src: NDArray[np.int32],
    dst: NDArray[np.int32],
    radius: Radius,
) -> NDArray[np.bool_]:
    """``plane_distance(points, src, dst) < radius`` without a hypot per
    pair: the squared distance against the squared radius, and
    ``np.hypot`` only for the pairs inside :data:`_CLOSER_BAND` of the
    boundary, or for every pair when the radius leaves
    :data:`_CLOSER_RADIUS_RANGE`.  Coordinates must be finite."""
    radii = np.asarray(radius, dtype=np.float64)
    squares = _offsets(points, src, dst).view(np.float64)
    np.square(squares, out=squares)
    squared = squares[0::2] + squares[1::2]
    bound = radii * radii
    closer = squared < bound * (1.0 - _CLOSER_BAND)
    # ``closer`` implies ``squared <= bound * (1 + band)``: the xor
    # leaves the pairs inside the band.
    unsure = squared <= bound * (1.0 + _CLOSER_BAND)
    unsure ^= closer
    low, high = _CLOSER_RADIUS_RANGE
    unsure |= ~((radii >= low) & (radii <= high))
    rows = np.flatnonzero(unsure)
    if rows.size:
        closer[rows] = plane_distance(
            points, np.take(src, rows), np.take(dst, rows)
        ) < (np.take(radii, rows) if radii.ndim else radii)
    return closer


class DenseTopology:
    """A :class:`ClientNetworkModel` viewed as vector arrays.

    The best-node set is the *same* cached
    :meth:`~repro.topology.routing.ClientNetworkModel.best_nodes` the
    event-kernel factories read -- closeness summation order and sort stability
    included -- so both backends agree on who is a hub even on ties.

    ``round_ms`` defaults to the uniform off-diagonal latency when the
    matrix is uniform (the slot-exact differential regime) and to the
    model's mean latency otherwise (round-approximate mode).
    """

    def __init__(
        self, model: ClientNetworkModel, round_ms: Optional[float] = None
    ) -> None:
        self.model = model
        self._latency = np.asarray(model.latency_ms, dtype=np.float64)
        self._points = plane_points(
            np.asarray(
                [(p.x, p.y) for p in model.positions], dtype=np.float64
            ).reshape(-1, 2)
        )
        if round_ms is None:
            round_ms = self._uniform_latency() or model.mean_latency()
        if round_ms <= 0:
            raise ValueError(f"round_ms must be positive, got {round_ms}")
        self._round_ms = float(round_ms)

    def _uniform_latency(self) -> Optional[float]:
        """The single off-diagonal latency, or None when non-uniform."""
        n = self.model.size
        if n < 2:
            return None
        off = self._latency[~np.eye(n, dtype=bool)]
        value = float(off[0])
        if value > 0 and bool(np.all(off == value)):
            return value
        return None

    @property
    def size(self) -> int:
        return self.model.size

    @property
    def round_ms(self) -> float:
        return self._round_ms

    @property
    def is_slot_exact(self) -> bool:
        """True when the latency matrix is uniform, i.e. the event
        kernel degenerates to exactly one slot per hop."""
        return self._uniform_latency() is not None

    def metric(
        self, kind: str, src: NDArray[np.int32], dst: NDArray[np.int32]
    ) -> NDArray[np.float64]:
        _check_kind(kind)
        if kind == METRIC_LATENCY:
            return np.asarray(self._latency[src, dst], dtype=np.float64)
        return plane_distance(self._points, src, dst)

    def closer(
        self,
        kind: str,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        radius: Radius,
    ) -> NDArray[np.bool_]:
        _check_kind(kind)
        if kind == METRIC_LATENCY:
            return np.asarray(self._latency[src, dst] < radius, dtype=bool)
        return plane_closer(self._points, src, dst, radius)

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        mask = np.zeros(self.size, dtype=bool)
        mask[sorted(self.model.best_nodes(fraction))] = True
        return mask


class UniformTopology:
    """All pairs one latency apart; positions ``(i, 0)`` on a line.

    The synthetic twin of :meth:`ClientNetworkModel.uniform` without the
    O(n^2) matrices.  With all closeness values equal, ``best_nodes``'
    stable sort selects ids ``0..count-1`` -- reproduced here exactly.
    """

    def __init__(self, n: int, latency_ms: float = 50.0) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        if latency_ms <= 0:
            raise ValueError(f"latency_ms must be positive, got {latency_ms}")
        self._n = n
        self._latency_ms = float(latency_ms)

    @property
    def size(self) -> int:
        return self._n

    @property
    def round_ms(self) -> float:
        return self._latency_ms

    def metric(
        self, kind: str, src: NDArray[np.int32], dst: NDArray[np.int32]
    ) -> NDArray[np.float64]:
        _check_kind(kind)
        if kind == METRIC_LATENCY:
            result = np.where(src == dst, 0.0, self._latency_ms)
        else:
            result = np.abs(src.astype(np.float64) - dst.astype(np.float64))
        return np.asarray(result, dtype=np.float64)

    def closer(
        self,
        kind: str,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        radius: Radius,
    ) -> NDArray[np.bool_]:
        return np.asarray(self.metric(kind, src, dst) < radius, dtype=bool)

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        count = max(1, round(self._n * fraction))
        mask = np.zeros(self._n, dtype=bool)
        mask[:count] = True
        return mask


class PlaneTopology:
    """Random positions on a square plane; latency = distance in ms.

    The scale-tier environment: per-pair quantities are computed on
    demand from one ``(n, 2)`` coordinate record (16 bytes a node, so
    a pair costs one gather per endpoint), and memory is O(n).  The
    best-node set uses distance-to-centroid as the closeness proxy
    (exact mean pairwise distance is O(n^2) and this topology has no
    event-kernel twin to be bit-equal with).
    """

    def __init__(self, n: int, seed: int = 0, side: float = 100.0) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        rng = np.random.default_rng(
            RandomStreams(seed).derive_seed("megasim.topology.plane")
        )
        # Every x, then every y, in stream order, scaled into the record's
        # columns: the same doubles as ``uniform(0.0, side, n)`` for x and
        # then for y.
        coordinates = np.empty((n, 2), dtype=np.float64)
        for axis in (0, 1):
            np.multiply(rng.random(n), side, out=coordinates[:, axis])
        self._init(coordinates, side)

    def _init(self, coordinates: NDArray[np.float64], side: float) -> None:
        self._points = plane_points(coordinates)
        self._n = int(coordinates.shape[0])
        if self._n < 1:
            raise ValueError("a plane needs at least one node")
        self.side = float(side)
        self._xy = coordinates
        self._round_ms = self.side / 2.0

    @classmethod
    def from_coordinates(
        cls, coordinates: NDArray[np.float64], side: float
    ) -> "PlaneTopology":
        """Rebuild a plane from an existing ``(n, 2)`` coordinate record
        *without* re-deriving it -- the shared-arena path, where workers
        attach the parent's record zero-copy instead of regenerating it
        per process."""
        topology = cls.__new__(cls)
        topology._init(coordinates, side)
        return topology

    @property
    def coordinates(self) -> NDArray[np.float64]:
        """The ``(n, 2)`` coordinate record (what an arena must ship)."""
        return self._xy

    @property
    def positions(self) -> Tuple[NDArray[np.float64], NDArray[np.float64]]:
        """The ``(x, y)`` coordinate columns, as read-only views."""
        columns = self._xy[:, 0], self._xy[:, 1]
        for column in columns:
            column.setflags(write=False)
        return columns

    @property
    def size(self) -> int:
        return self._n

    @property
    def round_ms(self) -> float:
        return self._round_ms

    def metric(
        self, kind: str, src: NDArray[np.int32], dst: NDArray[np.int32]
    ) -> NDArray[np.float64]:
        _check_kind(kind)
        return plane_distance(self._points, src, dst)

    def closer(
        self,
        kind: str,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        radius: Radius,
    ) -> NDArray[np.bool_]:
        _check_kind(kind)
        return plane_closer(self._points, src, dst, radius)

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        count = max(1, round(self._n * fraction))
        # Contiguous columns: the means sum exactly as they always have.
        px, py = (np.ascontiguousarray(column) for column in self.positions)
        centroid_x = float(np.mean(px))
        centroid_y = float(np.mean(py))
        closeness = np.hypot(px - centroid_x, py - centroid_y)
        best = np.argsort(closeness, kind="stable")[:count]
        mask = np.zeros(self._n, dtype=bool)
        mask[best] = True
        return mask


#: Cells per block of view rows (8 MiB of int32): a block's draw, sort
#: and redraws stay far below the matrix they fill.
_VIEW_BLOCK_CELLS = 1 << 21


def build_views(
    n: int, degree: int, rng: np.random.Generator
) -> NDArray[np.int32]:
    """A static partial view per node: ``(n, degree)`` peer ids.

    Models the shuffled overlay's steady state as a fixed random
    ``degree``-regular out-view (each row is a uniform sample of others
    without replacement) -- the structure the round kernel gossips over
    when oracle sampling is not wanted.  Only the *set* in a row means
    anything: the kernel samples view columns uniformly.

    Rows are drawn a block at a time, so no temporary outgrows the
    matrix being filled.  Up to half of the other ``n - 1`` nodes, a
    block is :func:`_distinct_rows`; beyond that duplicates stop being
    rare (the last distinct id of ``n - 1`` takes ``n - 1`` draws on
    average) and a row-wise shuffle of all the others, cut at
    ``degree``, costs at most twice the block it yields.
    """
    if degree < 1 or degree > n - 1:
        raise ValueError(f"degree must be in [1, {n - 1}], got {degree}")
    others = n - 1
    shuffle = 2 * degree > others
    block = max(1, _VIEW_BLOCK_CELLS // (others if shuffle else degree))
    views = np.empty((n, degree), dtype=np.int32)
    for start in range(0, n, block):
        rows = min(block, n - start)
        if shuffle:
            pool = np.tile(np.arange(others, dtype=np.int32), (rows, 1))
            drawn = rng.permuted(pool, axis=1, out=pool)[:, :degree]
        else:
            drawn = _distinct_rows(rng, rows, degree, others)
        own = np.arange(start, start + rows, dtype=np.int32)
        drawn += drawn >= own[:, None]  # ids past the row's own node shift up
        views[start : start + rows] = drawn
    return views


def _distinct_rows(
    rng: np.random.Generator, rows: int, k: int, population: int
) -> NDArray[np.int32]:
    """``(rows, k)`` ids of ``range(population)``, distinct and ascending
    within each row, every ``k``-subset equally likely.

    Draw all cells, sort each row, redraw every cell that equals its left
    neighbour, and repeat on the rows that had one.  A row thus keeps the
    first ``k`` distinct values of its own i.i.d. stream (a pass draws
    exactly what the row still lacks, never past ``k``), which is a
    uniform subset by symmetry -- unlike the kernel's whole-row rejection
    (``rounds._sample_without_replacement``), whose acceptance rate falls
    as ``exp(-k^2 / 2 population)``, it stays cheap up to ``population /
    2``.  The sorts read values only, so their tie order is unobservable.
    """
    draws = rng.integers(0, population, size=(rows, k), dtype=np.int32)
    draws.sort(axis=1)
    pending = np.arange(rows)
    block = draws
    while True:
        cells = block.reshape(-1)
        twins = np.flatnonzero(cells[1:] == cells[:-1]) + 1
        twins = twins[twins % k != 0]  # column 0: the left cell is another row's
        if twins.size == 0:
            return draws
        cells[twins] = rng.integers(
            0, population, size=twins.size, dtype=np.int32
        )
        bad = twins // k  # non-decreasing, one entry per redrawn cell
        bad = bad[run_starts(bad)]
        pending = pending[bad]
        block = block[bad]
        block.sort(axis=1)
        draws[pending] = block


# -- fault compilation --------------------------------------------------------


class UnsupportedFaultError(ValueError):
    """Raised for a fault plan the vector kernel cannot afford to compile."""


#: Largest population for which a *fractional* ``lossy_link_fraction``
#: may enumerate all n*(n-1) directed links, replicating the event
#: injector's sampling.  Above it, use ``lossy_link_fraction=1.0``
#: (every link lossy -- no enumeration needed) to model uniform loss.
LINK_ENUMERATION_LIMIT = 2048


@dataclass(frozen=True)
class CompiledFaults:
    """A :class:`FailurePlan` plus :class:`GrayFailurePlan`, vector form.

    ``crashed`` marks crash-stop nodes (the paper's firewalled failures):
    they originate nothing, and every packet addressed to -- or sent
    by -- them is dropped after the sender's ``on_send`` accounting,
    matching :class:`~repro.network.fabric.NetworkFabric`'s ordering.
    ``drop_keys`` are the always-drop directed links (full link loss,
    exact-differential safe: the event kernel's gray draw at
    ``loss_probability=1.0`` is outcome-deterministic).  Fractional loss
    is Bernoulli per packet from a *dedicated* loss stream
    (``megasim.loss.{i}``), over ``lossy_keys`` or -- when ``None`` with
    ``loss_probability > 0`` -- over every link.
    """

    n: int
    crashed: Optional[NDArray[np.bool_]] = None
    drop_keys: Optional[NDArray[np.int64]] = None
    lossy_keys: Optional[NDArray[np.int64]] = None
    loss_probability: float = 0.0
    #: ``~crashed``, computed once: :meth:`deliver_mask` reads it per batch.
    alive: Optional[NDArray[np.bool_]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability out of range: {self.loss_probability}"
            )
        if self.crashed is not None:
            object.__setattr__(self, "alive", ~self.crashed)

    @property
    def needs_rng(self) -> bool:
        """True when packet delivery consumes Bernoulli draws."""
        return self.loss_probability > 0.0

    def failed_nodes(self) -> List[int]:
        if self.crashed is None:
            return []
        return [int(node) for node in np.flatnonzero(self.crashed)]

    def _link_member(
        self,
        keys: NDArray[np.int64],
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
    ) -> NDArray[np.bool_]:
        """Membership of each (src, dst) pair in a sorted key table."""
        pair = src.astype(np.int64) * self.n + dst.astype(np.int64)
        index = np.searchsorted(keys, pair)
        index[index >= keys.shape[0]] = keys.shape[0] - 1
        return np.asarray(keys[index] == pair, dtype=bool)

    def deliver_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        loss_rng: Optional[np.random.Generator],
    ) -> NDArray[np.bool_]:
        """Which packets of an aligned (src, dst) batch actually arrive.

        Checks mirror the fabric: crashed endpoints first (silenced TX
        drops at the source, silenced RX at delivery -- both after
        ``on_send`` counting, so callers count sends *before* filtering),
        then always-drop links, then per-packet Bernoulli loss drawn from
        ``loss_rng`` for the packets still standing.
        """
        if self.alive is not None:
            keep = np.take(self.alive, src)
            keep &= np.take(self.alive, dst)
        else:
            keep = np.ones(src.shape[0], dtype=bool)
        if self.drop_keys is not None and self.drop_keys.size:
            keep &= ~self._link_member(self.drop_keys, src, dst)
        if self.loss_probability > 0.0:
            if loss_rng is None:
                raise ValueError(
                    "CompiledFaults with loss_probability > 0 needs a "
                    "dedicated loss RNG (megasim.loss.{index} stream)"
                )
            candidates = keep
            if self.lossy_keys is not None:
                candidates = keep & self._link_member(self.lossy_keys, src, dst)
            rows = np.flatnonzero(candidates)  # read before ``keep`` changes
            if rows.size:
                dropped = loss_rng.random(rows.size) < self.loss_probability
                keep[rows[dropped]] = False
        return keep


def _link_keys(n: int, links: List[Tuple[int, int]]) -> NDArray[np.int64]:
    keys = np.asarray(
        [a * n + b for a, b in links], dtype=np.int64
    )
    keys.sort()
    return keys


def compile_faults(
    n: int,
    seed: int,
    failure: Optional[FailurePlan] = None,
    gray: Optional[GrayFailurePlan] = None,
) -> Optional[CompiledFaults]:
    """Compile both fault plans for an ``n``-node run.

    Crash victims and lossy links are drawn by the event injectors' own
    functions from ``RandomStreams(seed)``, the streams a cluster built
    with ``seed`` hands its injectors.  Returns ``None`` when both plans
    are absent or no-ops, so the fault-free kernel path stays
    byte-identical to the pre-fault one.
    Raises :class:`UnsupportedFaultError` for a fractional
    ``lossy_link_fraction`` above :data:`LINK_ENUMERATION_LIMIT` nodes
    (which would need the O(n^2) link enumeration the scale tier exists
    to avoid).
    """
    streams = RandomStreams(seed)
    crashed: Optional[NDArray[np.bool_]] = None
    if failure is not None:
        victims = crash_victims(failure, n, streams)
        if victims:
            crashed = np.zeros(n, dtype=bool)
            crashed[victims] = True

    drop_keys: Optional[NDArray[np.int64]] = None
    lossy_keys: Optional[NDArray[np.int64]] = None
    loss_probability = 0.0
    if gray is not None:
        if gray.lossy_link_fraction > 0.0 and gray.link_loss_probability > 0.0:
            if gray.lossy_link_fraction >= 1.0:
                # Every directed link impaired: no enumeration needed,
                # so this form scales to 10^5-10^6 nodes.
                loss_probability = gray.link_loss_probability
            else:
                if n > LINK_ENUMERATION_LIMIT:
                    raise UnsupportedFaultError(
                        f"spec.gray.lossy_link_fraction < 1.0 enumerates "
                        f"all n*(n-1) directed links and is limited to "
                        f"{LINK_ENUMERATION_LIMIT} nodes (got {n}); use "
                        "lossy_link_fraction=1.0 for uniform loss at scale"
                    )
                links = gray_targets(gray, n, streams).lossy_links
                if links:
                    if gray.link_loss_probability >= 1.0:
                        # Deterministic outcome: exact-differential safe.
                        drop_keys = _link_keys(n, links)
                    else:
                        lossy_keys = _link_keys(n, links)
                        loss_probability = gray.link_loss_probability

    if (
        crashed is None
        and drop_keys is None
        and lossy_keys is None
        and loss_probability == 0.0
    ):
        return None
    return CompiledFaults(
        n=n,
        crashed=crashed,
        drop_keys=drop_keys,
        lossy_keys=lossy_keys,
        loss_probability=loss_probability,
    )


# -- results adapters --------------------------------------------------------


def _slot_latency_stats(
    slot_histogram: Dict[int, int], round_ms: float
) -> Tuple[float, float, float, float]:
    """(mean, ci, median, p95) latency from a delivery-slot histogram.

    Matches ``summarize()``: sample variance with the z=1.96 normal
    interval, and the linear-interpolation percentile of
    ``confidence.percentile`` evaluated over the (virtually) sorted
    latency list.
    """
    total = sum(slot_histogram.values())
    if total == 0:
        return float("nan"), float("nan"), float("nan"), float("nan")
    values = np.array(sorted(slot_histogram), dtype=np.float64) * round_ms
    counts = np.array(
        [slot_histogram[s] for s in sorted(slot_histogram)], dtype=np.int64
    )
    if total <= 4096:
        # Small runs: expand and reuse the exact shared implementation.
        expanded = np.repeat(values, counts).tolist()
        mean, ci = mean_confidence_interval(expanded)
        return mean, ci, percentile(expanded, 0.5), percentile(expanded, 0.95)
    mean = float(np.dot(values, counts) / total)
    variance = float(np.dot(counts, (values - mean) ** 2) / (total - 1))
    ci = 1.9600 * float(np.sqrt(variance / total))
    cumulative = np.cumsum(counts)

    def walk(fraction: float) -> float:
        position = fraction * (total - 1)
        low = int(position)
        weight = position - low
        low_value = float(values[np.searchsorted(cumulative, low + 1)])
        high_value = float(
            values[np.searchsorted(cumulative, min(low + 1, total - 1) + 1)]
        )
        return low_value * (1 - weight) + high_value * weight

    return mean, ci, walk(0.5), walk(0.95)


def _slot_histogram(outcomes: "List[MessageOutcome]") -> Dict[int, int]:
    """``{delivery slot: deliveries}`` over ``outcomes``, each message's
    slots inserted in ascending order.  Latencies exclude the origin's
    instantaneous local delivery."""
    histogram: Dict[int, int] = {}
    for outcome in outcomes:
        # Slots are small ints, -1 for undelivered: one bincount of
        # ``slot + 1`` needs no mask; bin 0 and the origin are taken out.
        counts = np.bincount(outcome.deliver_slot + 1)
        own = int(outcome.deliver_slot[outcome.origin])
        if own >= 0:
            counts[own + 1] -= 1
        for slot, count in enumerate(counts[1:].tolist()):
            if count:
                histogram[slot] = histogram.get(slot, 0) + count
    return histogram


def summary_from_outcomes(
    outcomes: "List[MessageOutcome]",
    n: int,
    round_ms: float,
    payload_bytes: int = 256,
    top_fraction: float = 0.05,
    expected_receivers: Optional[int] = None,
    top_link_share: Optional[float] = None,
) -> RunSummary:
    """A :class:`RunSummary` straight from slot histograms.

    ``top_link_share`` is computed when link tracking was on for every
    message and reported as NaN otherwise (at scale, per-link dicts are
    deliberately not collected); a caller that already holds the share
    of ``outcomes`` at ``top_fraction`` (NaN when untracked) hands it
    in.  ``expected_receivers`` defaults to ``n``; pass the alive
    population when crash faults are in play (the event engine also
    normalizes delivery ratio by alive nodes).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if expected_receivers is None:
        expected_receivers = n
    if not 1 <= expected_receivers <= n:
        raise ValueError(
            f"expected_receivers must be in [1, {n}], got {expected_receivers}"
        )
    messages = len(outcomes)
    deliveries = 0
    msg_sent = 0
    ihave_sent = 0
    iwant_sent = 0
    for outcome in outcomes:
        deliveries += outcome.delivered_count
        msg_sent += outcome.msg_sent
        ihave_sent += outcome.ihave_sent
        iwant_sent += outcome.iwant_sent
    if top_link_share is None:
        # Link concentration straight from the outcomes' columnar link
        # arrays -- no per-link dicts, so this path holds at 10^6 nodes.
        merged_links = merge_link_arrays(outcomes)
        top_link_share = (
            top_share(merged_links[1], top_fraction)
            if merged_links is not None
            else float("nan")
        )
    mean, ci, median, p95 = _slot_latency_stats(
        _slot_histogram(outcomes), round_ms
    )
    control = ihave_sent + iwant_sent
    total_bytes = msg_sent * payload_packet_size(payload_bytes) + (
        control * control_packet_size()
    )
    return RunSummary(
        messages=messages,
        expected_receivers=expected_receivers,
        deliveries=deliveries,
        mean_latency_ms=mean,
        latency_ci_ms=ci,
        median_latency_ms=median,
        p95_latency_ms=p95,
        payload_transmissions=msg_sent,
        top_link_share=top_link_share,
        control_packets=control,
        total_bytes=total_bytes,
    )
