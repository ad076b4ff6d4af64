"""Bridges between the event-kernel world and the vector backend.

Inbound: a :class:`VectorTopology` gives the round kernel the three
things a transmission strategy may ask of the environment -- pairwise
metrics (latency / pseudo-geographic distance), the oracle best-node
set, and the slot duration.  :class:`DenseTopology` wraps an existing
:class:`~repro.topology.routing.ClientNetworkModel` (so the differential
harness runs both backends against the *same* environment, including
the exact `OracleRanking` tie-breaking); :class:`UniformTopology` and
:class:`PlaneTopology` are synthetic environments that never materialize
an O(n^2) matrix and therefore scale to 10^6 nodes.

Faults: :func:`compile_faults` lowers the supported subset of the event
kernel's :class:`~repro.failures.injection.FailurePlan` /
:class:`~repro.failures.gray.GrayFailurePlan` into a
:class:`CompiledFaults` -- a crashed-node mask, always-drop link keys
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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.failures.gray import GrayFailurePlan, gray_targets
from repro.failures.injection import FailurePlan, crash_victims
from repro.megasim.links import LinkTable, merge_link_arrays, top_share
from repro.megasim.state import run_starts
from repro.metrics.analysis import RunSummary
from repro.metrics.confidence import mean_confidence_interval, percentile
from repro.monitors.ranking import oracle_ranking
from repro.network.message import control_packet_size, payload_packet_size
from repro.sim.rng import RandomStreams
from repro.topology.routing import ClientNetworkModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.megasim.rounds import MessageOutcome

#: Metric kinds a strategy may request, mirroring the oracle monitors.
METRIC_LATENCY = "latency"
METRIC_DISTANCE = "distance"


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
        """``Metric(p)`` of the oracle monitor at ``src`` about ``dst``."""
        ...

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        """Boolean membership array of the oracle best-node set."""
        ...


def _check_kind(kind: str) -> None:
    if kind not in (METRIC_LATENCY, METRIC_DISTANCE):
        raise ValueError(f"unknown metric kind {kind!r}")


class DenseTopology:
    """A :class:`ClientNetworkModel` viewed as vector arrays.

    The best-node set is the *same* shared
    :func:`~repro.monitors.ranking.oracle_ranking` the event-kernel
    factories read -- closeness summation order and sort stability
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
        self._px = np.asarray([p.x for p in model.positions], dtype=np.float64)
        self._py = np.asarray([p.y for p in model.positions], dtype=np.float64)
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
            result = self._latency[src, dst]
        else:
            # math.hypot and np.hypot share the libm implementation, so
            # this matches geometry.euclidean bit-for-bit.
            result = np.hypot(
                self._px[src] - self._px[dst], self._py[src] - self._py[dst]
            )
        return np.asarray(result, dtype=np.float64)

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        mask = np.zeros(self.size, dtype=bool)
        mask[sorted(oracle_ranking(self.model, fraction).best_nodes)] = True
        return mask


class UniformTopology:
    """All pairs one latency apart; positions ``(i, 0)`` on a line.

    The synthetic twin of :meth:`ClientNetworkModel.uniform` without the
    O(n^2) matrices.  With all closeness values equal, `OracleRanking`'s
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
    demand from position arrays, so memory is O(n).  The best-node set
    uses distance-to-centroid as the closeness proxy (exact mean
    pairwise distance is O(n^2) and this topology has no event-kernel
    twin to be bit-equal with).
    """

    def __init__(self, n: int, seed: int = 0, side: float = 100.0) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        self._n = n
        self.side = float(side)
        rng = np.random.default_rng(
            RandomStreams(seed).derive_seed("megasim.topology.plane")
        )
        # One draw for both columns, scaled in place: the same doubles as
        # ``uniform(0.0, side, n)`` for x and then for y, at half the cost.
        positions = rng.random((2, n))
        positions *= self.side
        self._px: NDArray[np.float64] = positions[0]
        self._py: NDArray[np.float64] = positions[1]
        self._round_ms = side / 2.0

    @classmethod
    def from_positions(
        cls,
        px: NDArray[np.float64],
        py: NDArray[np.float64],
        side: float,
    ) -> "PlaneTopology":
        """Rebuild a plane from existing position arrays *without*
        re-deriving them -- the shared-arena path, where workers attach
        the parent's positions zero-copy instead of regenerating 16 MB
        of coordinates per process."""
        if px.shape != py.shape or px.ndim != 1 or px.shape[0] < 1:
            raise ValueError(
                f"positions must be equal-length 1-D arrays, got "
                f"{px.shape} / {py.shape}"
            )
        topology = cls.__new__(cls)
        topology._n = int(px.shape[0])
        topology.side = float(side)
        topology._px = px
        topology._py = py
        topology._round_ms = float(side) / 2.0
        return topology

    @property
    def positions(self) -> Tuple[NDArray[np.float64], NDArray[np.float64]]:
        """The ``(x, y)`` coordinate arrays (what an arena must ship)."""
        return self._px, self._py

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
        result = np.hypot(
            self._px[src] - self._px[dst], self._py[src] - self._py[dst]
        )
        return np.asarray(result, dtype=np.float64)

    def best_mask(self, fraction: float) -> NDArray[np.bool_]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        count = max(1, round(self._n * fraction))
        centroid_x = float(np.mean(self._px))
        centroid_y = float(np.mean(self._py))
        closeness = np.hypot(self._px - centroid_x, self._py - centroid_y)
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
    """Raised for fault-plan features the vector kernel cannot express."""


#: :class:`GrayFailurePlan` fields the vector kernel has no slot-level
#: model for; each is rejected by name (not a blanket refusal).
UNSUPPORTED_GRAY_FIELDS = (
    "slow_fraction",
    "flappy_fraction",
    "link_extra_latency_ms",
    "link_duplicate_probability",
)

#: Largest population for which a *fractional* ``lossy_link_fraction``
#: may enumerate all n*(n-1) directed links, replicating the event
#: injector's sampling.  Above it, use ``lossy_link_fraction=1.0``
#: (every link lossy -- no enumeration needed) to model uniform loss.
LINK_ENUMERATION_LIMIT = 2048


def check_gray_supported(plan: GrayFailurePlan) -> None:
    """Reject gray-plan fields the vector kernel cannot model, by name."""
    for name in UNSUPPORTED_GRAY_FIELDS:
        if getattr(plan, name):
            raise UnsupportedFaultError(
                f"the vector backend does not support spec.gray.{name}; "
                "use --backend event"
            )


@dataclass(frozen=True)
class CompiledFaults:
    """A :class:`FailurePlan`/:class:`GrayFailurePlan` subset, vector form.

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

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability out of range: {self.loss_probability}"
            )

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
        keep = np.ones(src.shape[0], dtype=bool)
        if self.crashed is not None:
            keep &= ~self.crashed[src]
            keep &= ~self.crashed[dst]
        if self.drop_keys is not None and self.drop_keys.size:
            keep &= ~self._link_member(self.drop_keys, src, dst)
        if self.loss_probability > 0.0:
            if loss_rng is None:
                raise ValueError(
                    "CompiledFaults with loss_probability > 0 needs a "
                    "dedicated loss RNG (megasim.loss.{index} stream)"
                )
            candidates = keep.copy()
            if self.lossy_keys is not None:
                candidates &= self._link_member(self.lossy_keys, src, dst)
            rows = np.flatnonzero(candidates)
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
    """Compile the supported fault-plan subset for an ``n``-node run.

    Crash victims and lossy links are drawn by the event injectors' own
    functions from ``RandomStreams(seed)``, the streams a cluster built
    with ``seed`` hands its injectors.  Returns ``None`` when both plans
    are absent or no-ops, so the fault-free kernel path stays
    byte-identical to the pre-fault one.
    Raises :class:`UnsupportedFaultError` (naming the field) for plan
    features with no slot-synchronous counterpart, and for fractional
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
        check_gray_supported(gray)
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
    merged_links: Optional[LinkTable] = None,
) -> RunSummary:
    """A :class:`RunSummary` straight from slot histograms.

    ``top_link_share`` is computed when link tracking was on for every
    message and reported as NaN otherwise (at scale, per-link dicts are
    deliberately not collected).  ``expected_receivers`` defaults to
    ``n``; pass the alive population when crash faults are in play (the
    event engine also normalizes delivery ratio by alive nodes).
    ``merged_links`` hands in an already computed
    :func:`~repro.megasim.links.merge_link_arrays` table of ``outcomes``.
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
    # Link concentration straight from the outcomes' columnar link
    # arrays -- no per-link dicts, so this path holds at 10^6 nodes.
    if merged_links is None:
        merged_links = merge_link_arrays(outcomes)
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
        top_link_share=(
            top_share(merged_links[1], top_fraction)
            if merged_links is not None
            else float("nan")
        ),
        control_packets=control,
        total_bytes=total_bytes,
    )
