"""Worker-resident megasim environments: shipped once, shared zero-copy.

The fat-task problem: a multi-message run used to pickle the *entire*
environment -- topology positions, the ``(n, degree)`` partial-view
matrix, fault masks -- into every per-message work item.  At 10^5-10^6
nodes that is tens to hundreds of megabytes serialized per message,
dwarfing the vectorized kernel itself.

This module makes the environment **resident**, installed once per
worker by the pool initializer (:func:`install_worker_env`); tasks
shrink to ``(message_index, origin)`` descriptors.  A worker *forked*
from the parent already maps the parent's arrays copy-on-write, so
under the ``fork`` start method the arrays ride the layout itself
(``inline``), which fork never pickles.  Only workers that cannot
inherit (``forkserver``, ``spawn``) need the segment: the parent
flattens the arrays into one :mod:`multiprocessing.shared_memory` block
(:class:`MegasimArena`), and workers attach it and reconstruct numpy
views *into the parent's pages* -- zero copies, zero per-task
serialization either way.

Layout and cleanup contract:

- :class:`ArenaLayout` is the picklable descriptor shipped through the
  pool initializer: the segment name, per-array ``(offset, shape,
  dtype)`` refs, the spec, and every message's pre-derived
  ``(dissemination, loss)`` seed pair.  Only a
  :class:`~repro.megasim.adapter.PlaneTopology` is big position arrays
  and goes through the segment; any other topology (the array-free
  :class:`~repro.megasim.adapter.UniformTopology`, the small-N
  :class:`~repro.megasim.adapter.DenseTopology`) rides the layout as
  the object itself -- once per *worker*, like everything else here.
- The **parent owns the segment**: :meth:`MegasimArena.close` unlinks
  it, the runner calls it in a ``finally`` (covering worker crashes
  mid-batch), and a :func:`weakref.finalize` safety net covers the
  parent itself dying unwound.  Workers only ever ``close()`` their
  attachment; ownership stays with the parent (see
  :func:`_attach_segment` for the resource-tracker details).
- When shared memory is unavailable (platform without ``/dev/shm``,
  permission-restricted containers), a non-forking pool gets the
  **inline** layout too: its arrays are pickled once per *worker*
  (initializer) instead of once per *message* -- ship-once semantics
  either way.

Attached arrays are marked read-only: every worker maps the same
physical pages, and the round kernel never writes the environment.

The way back is an :class:`OutcomeRegion`, a second segment of
``messages * n * 24`` zero-filled, lazily committed bytes: one
``(messages, n)`` matrix per n-sized column of a
:class:`~repro.megasim.rounds.MessageOutcome`.  Message ``index`` owns
row ``index`` of each; an index belongs to exactly one batch, so workers
write disjoint rows and need no lock.  A worker stores a finished
message's columns in its rows and returns the outcome without them (the
variable-length link arrays and the scalar counters still travel in the
pickled result); the parent binds its own mapping's rows in their place
-- no copy-out.  The region's *name* is unlinked by
:meth:`MegasimArena.close` like the environment's; its *mapping* is
released when the last column bound to it dies.  Without shared memory
there is no region and the columns return by pickle.
"""

from __future__ import annotations

import multiprocessing
import sys
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union, cast

import numpy as np
from numpy.typing import NDArray

from repro.megasim.adapter import (
    CompiledFaults,
    PlaneTopology,
    VectorTopology,
)
from repro.megasim.rounds import MessageOutcome, SlotScratch
from repro.megasim.state import ROUND_DTYPE, SLOT_DTYPE
from repro.megasim.strategies import CompiledStrategy, compile_strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.megasim.runner import MegasimSpec

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic builds only
    shared_memory = None  # type: ignore[assignment]

#: Byte alignment of every array inside the segment (cache-line sized;
#: also satisfies any numpy dtype's natural alignment).
_ALIGN = 64


@dataclass(frozen=True)
class ArrayRef:
    """Where one named array lives inside the shared segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ArenaLayout:
    """Picklable descriptor of a worker-resident environment.

    Exactly one of ``shm_name`` / ``inline`` carries the array payload;
    exactly one of ``topology`` / ``plane_side`` says where the topology
    comes from.
    """

    spec: "MegasimSpec"
    #: Every message's pre-derived (dissemination, loss) seed pair, by
    #: message index -- derived once in the parent, never re-derived.
    seeds: Tuple[Tuple[int, int], ...]
    #: The topology itself, unless it is a plane (``plane_side`` set),
    #: whose ``plane.px`` / ``plane.py`` positions are among the arrays.
    topology: Optional[VectorTopology] = None
    plane_side: Optional[float] = None
    arrays: Tuple[Tuple[str, ArrayRef], ...] = ()
    shm_name: Optional[str] = None
    inline: Optional[Dict[str, NDArray[np.generic]]] = None
    #: The run's :class:`OutcomeRegion` segment (sized by the spec);
    #: ``None`` without shared memory: outcome columns return by pickle.
    outcome_shm: Optional[str] = None
    #: ``None`` = no faults compiled; otherwise the Bernoulli loss
    #: probability (0.0 for purely structural faults).
    loss_probability: Optional[float] = None


@dataclass
class WorkerEnv:
    """One worker's materialized environment, installed once per process."""

    spec: "MegasimSpec"
    topology: VectorTopology
    strategy: CompiledStrategy
    views: Optional[NDArray[np.int32]]
    faults: Optional[CompiledFaults]
    seeds: Tuple[Tuple[int, int], ...]
    #: Where finished messages leave their n-sized columns; ``None`` on
    #: the serial path and the inline fallback (they stay in the outcome).
    outcomes: Optional["OutcomeRegion"] = None
    _scratch: Optional[SlotScratch] = field(default=None, repr=False)

    def scratch(self) -> SlotScratch:
        """The worker's reusable slot buffers (lazily sized once)."""
        if self._scratch is None:
            self._scratch = SlotScratch(self.topology.size)
        return self._scratch


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _create_segment(size: int) -> Optional["shared_memory.SharedMemory"]:
    """A fresh segment, or ``None`` where shared memory is unavailable."""
    if shared_memory is None:
        return None
    try:
        return shared_memory.SharedMemory(create=True, size=max(size, 1))
    except OSError:  # pragma: no cover - no /dev/shm in this container
        return None


def _unlink(segment: "shared_memory.SharedMemory") -> None:
    try:
        segment.unlink()
    except FileNotFoundError:  # already gone
        pass


def _release(
    segment: Optional["shared_memory.SharedMemory"],
    outcomes: Optional["OutcomeRegion"],
) -> None:
    """Unlink both names; close the environment's mapping (the outcome
    region's lives on under the columns bound to it)."""
    if segment is not None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        _unlink(segment)
    if outcomes is not None:
        outcomes.unlink()


#: The n-sized :class:`MessageOutcome` columns that return through the
#: region -- widest first, so each matrix starts on its own alignment.
_OUTCOME_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("payload_sent", np.int64),
    ("payload_received", np.int64),
    ("deliver_slot", SLOT_DTYPE),
    ("carried_round", ROUND_DTYPE),
)


class OutcomeRegion:
    """One run's outcome columns in shared memory (module docstring).

    numpy reaches the bytes through ``__array_interface__``, which makes
    this object the base of everything carved from it: the mapping is
    closed when the last matrix or row dies, never under one.  (A
    ``SharedMemory`` collected while views of its ``buf`` are alive
    raises ``BufferError`` from ``__del__``; no such view is kept here.)
    """

    def __init__(
        self, segment: "shared_memory.SharedMemory", messages: int, n: int
    ) -> None:
        self._segment = segment
        self._shape = (messages, n)
        probe: NDArray[np.uint8] = np.frombuffer(segment.buf, dtype=np.uint8)
        self.__array_interface__ = {
            "version": 3,
            "typestr": "|u1",
            "shape": probe.shape,
            "data": (probe.ctypes.data, False),
        }

    @classmethod
    def create(cls, messages: int, n: int) -> Optional["OutcomeRegion"]:
        """The parent's region: zero-filled, committed only as written."""
        row_bytes = sum(np.dtype(dtype).itemsize for _, dtype in _OUTCOME_COLUMNS)
        segment = _create_segment(messages * n * row_bytes)
        return cls(segment, messages, n) if segment is not None else None

    @property
    def name(self) -> str:
        return self._segment.name

    def __del__(self) -> None:
        self._segment.close()

    def unlink(self) -> None:
        """Remove the name (idempotent); the mapping stays valid."""
        _unlink(self._segment)

    def columns(self) -> Dict[str, NDArray[np.generic]]:
        """``{column: (messages, n) matrix}`` over this mapping."""
        raw = np.asarray(self)
        cells = self._shape[0] * self._shape[1]
        columns: Dict[str, NDArray[np.generic]] = {}
        offset = 0
        for name, dtype in _OUTCOME_COLUMNS:
            stop = offset + cells * np.dtype(dtype).itemsize
            columns[name] = raw[offset:stop].view(dtype).reshape(self._shape)
            offset = stop
        return columns

    def store(self, index: int, outcome: MessageOutcome) -> MessageOutcome:
        """Worker side: write ``outcome``'s columns to row ``index``;
        returns the outcome to send home, without them."""
        columns = self.columns()
        for name, matrix in columns.items():
            matrix[index] = getattr(outcome, name)
        return replace(outcome, **dict.fromkeys(columns))

    def bind(self, outcomes: List[MessageOutcome]) -> None:
        """Parent side: message ``index`` gets row ``index`` of this
        mapping for each column its worker stored -- views, not copies."""
        columns = self.columns()
        for index, outcome in enumerate(outcomes):
            for name, matrix in columns.items():
                setattr(outcome, name, matrix[index])


class MegasimArena:
    """Parent-side owner of one run's shared memory.

    Packs the named environment arrays into a single shared-memory
    segment at construction -- unless the pool forks its workers, which
    inherit them -- and creates the :class:`OutcomeRegion` beside it
    (:attr:`outcomes`; ``None`` without shared memory);
    :attr:`layout` is the descriptor to ship to workers.  Use as a
    context manager (or call :meth:`close`) so both names are unlinked
    exactly once, whatever happens mid-run.
    """

    def __init__(
        self,
        spec: "MegasimSpec",
        topology: VectorTopology,
        views: Optional[NDArray[np.int32]],
        faults: Optional[CompiledFaults],
        seeds: Tuple[Tuple[int, int], ...],
    ) -> None:
        arrays = _environment_arrays(topology, views, faults)
        refs: Tuple[Tuple[str, ArrayRef], ...] = ()
        segment: Optional["shared_memory.SharedMemory"] = None
        # A forked worker already maps the parent's arrays copy-on-write.
        if multiprocessing.get_start_method() != "fork":
            refs, segment = _pack_arrays(arrays)
        self._segment = segment
        self.outcomes = OutcomeRegion.create(spec.messages, spec.nodes)
        self._finalizer = weakref.finalize(
            self, _release, segment, self.outcomes
        )
        side = topology.side if isinstance(topology, PlaneTopology) else None
        self.layout = ArenaLayout(
            spec=spec,
            seeds=seeds,
            topology=topology if side is None else None,
            plane_side=side,
            arrays=refs,
            shm_name=segment.name if segment is not None else None,
            # Without a segment the arrays ride inside the layout:
            # inherited under fork, pickled once per worker otherwise.
            inline=arrays if segment is None else None,
            outcome_shm=(
                self.outcomes.name if self.outcomes is not None else None
            ),
            loss_probability=(
                float(faults.loss_probability) if faults is not None else None
            ),
        )

    @property
    def name(self) -> Optional[str]:
        """The shared segment's name (``None`` on the inline fallback)."""
        return self._segment.name if self._segment is not None else None

    def close(self) -> None:
        """Unlink both segments (idempotent; no-op without shared memory)."""
        self._finalizer()

    def __enter__(self) -> "MegasimArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _environment_arrays(
    topology: VectorTopology,
    views: Optional[NDArray[np.int32]],
    faults: Optional[CompiledFaults],
) -> Dict[str, NDArray[np.generic]]:
    """The named arrays a worker needs to rebuild the environment."""
    arrays: Dict[str, NDArray[np.generic]] = {}
    if isinstance(topology, PlaneTopology):
        px, py = topology.positions
        arrays["plane.px"] = px
        arrays["plane.py"] = py
    if views is not None:
        arrays["views"] = views
    if faults is not None:
        if faults.crashed is not None:
            arrays["faults.crashed"] = faults.crashed
        if faults.drop_keys is not None:
            arrays["faults.drop_keys"] = faults.drop_keys
        if faults.lossy_keys is not None:
            arrays["faults.lossy_keys"] = faults.lossy_keys
    return arrays


def _pack_arrays(
    arrays: Dict[str, NDArray[np.generic]],
) -> Tuple[
    Tuple[Tuple[str, ArrayRef], ...],
    Optional["shared_memory.SharedMemory"],
]:
    """Copy ``arrays`` into a fresh shared segment; refs + segment.

    Returns ``((), None)`` when shared memory is unavailable, cannot be
    created (the caller then falls back to inline shipping), or there is
    nothing to share.
    """
    if not arrays:
        return (), None
    refs: List[Tuple[str, ArrayRef]] = []
    offset = 0
    for name in sorted(arrays):
        array = arrays[name]
        offset = _aligned(offset)
        refs.append(
            (name, ArrayRef(offset, array.shape, array.dtype.str))
        )
        offset += array.nbytes
    segment = _create_segment(offset)
    if segment is None:
        return (), None
    for name, ref in refs:
        source = arrays[name]
        destination: NDArray[np.generic] = np.frombuffer(
            segment.buf,
            dtype=np.dtype(ref.dtype),
            count=source.size,
            offset=ref.offset,
        ).reshape(ref.shape)
        np.copyto(destination, source)
        # Drop the view before returning: SharedMemory.close() raises
        # BufferError while exported memoryviews are alive.
        del destination
    return tuple(refs), segment


def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    """Attach to an existing segment without claiming ownership.

    On Python 3.13+ ``track=False`` says so explicitly.  Earlier
    versions register every attach with the resource tracker
    (bpo-39959) -- but under ``fork``/``forkserver`` (every start method
    the pool engine uses on POSIX) the tracker *process* is inherited
    from the parent, so the worker's registration aliases the parent's
    own entry in the tracker's name set: a no-op to add, and exactly one
    unregister happens when the parent unlinks.  Unregistering here
    would remove the parent's entry instead and make its unlink trip
    the tracker.  (A ``spawn`` child on < 3.13 owns a separate tracker
    and may log a spurious leak warning at exit; the parent's unlink
    tolerates the already-removed segment.)
    """
    if shared_memory is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


# -- worker-resident state ----------------------------------------------------

_ENV: Optional[WorkerEnv] = None
_ATTACHED: Optional["shared_memory.SharedMemory"] = None  # the environment's


def install_worker_env(payload: Union[ArenaLayout, WorkerEnv]) -> None:
    """Pool initializer: materialize and pin one run's environment.

    Runs once per worker process (or once inline under the serial
    fallback).  Accepts either a ready :class:`WorkerEnv` (serial path:
    the parent's own objects, nothing to attach) or an
    :class:`ArenaLayout` to materialize -- attaching the shared segment
    zero-copy, or adopting the inline arrays on the fallback path.
    """
    global _ENV, _ATTACHED
    if isinstance(payload, WorkerEnv):
        _ENV = payload
        _ATTACHED = None
        return
    arrays: Dict[str, NDArray[np.generic]] = {}
    segment: Optional["shared_memory.SharedMemory"] = None
    if payload.shm_name is not None:
        segment = _attach_segment(payload.shm_name)
        for name, ref in payload.arrays:
            count = 1
            for extent in ref.shape:
                count *= extent
            array: NDArray[np.generic] = np.frombuffer(
                segment.buf,
                dtype=np.dtype(ref.dtype),
                count=count,
                offset=ref.offset,
            ).reshape(ref.shape)
            array.setflags(write=False)
            arrays[name] = array
    elif payload.inline is not None:
        arrays = dict(payload.inline)
        for array in arrays.values():
            array.setflags(write=False)
    _ENV = _materialize_env(payload, arrays)
    if payload.outcome_shm is not None:
        _ENV.outcomes = OutcomeRegion(
            _attach_segment(payload.outcome_shm),
            payload.spec.messages,
            payload.spec.nodes,
        )
    _ATTACHED = segment


def _materialize_env(
    layout: ArenaLayout, arrays: Dict[str, NDArray[np.generic]]
) -> WorkerEnv:
    spec = layout.spec
    topology = layout.topology
    if topology is None:
        if layout.plane_side is None:
            raise ValueError("layout carries neither a topology nor a plane")
        topology = PlaneTopology.from_positions(
            cast(NDArray[np.float64], arrays["plane.px"]),
            cast(NDArray[np.float64], arrays["plane.py"]),
            side=layout.plane_side,
        )
    faults: Optional[CompiledFaults] = None
    if layout.loss_probability is not None:
        faults = CompiledFaults(
            n=spec.nodes,
            crashed=cast(
                Optional[NDArray[np.bool_]], arrays.get("faults.crashed")
            ),
            drop_keys=cast(
                Optional[NDArray[np.int64]], arrays.get("faults.drop_keys")
            ),
            lossy_keys=cast(
                Optional[NDArray[np.int64]], arrays.get("faults.lossy_keys")
            ),
            loss_probability=layout.loss_probability,
        )
    # Strategies compile deterministically from the frozen factory and
    # the (shared) topology, so recompiling per worker is cheap and
    # avoids shipping evaluator closures.
    strategy = compile_strategy(
        spec.strategy_factory, topology, retry_period_ms=spec.retry_period_ms
    )
    return WorkerEnv(
        spec=spec,
        topology=topology,
        strategy=strategy,
        views=cast(Optional[NDArray[np.int32]], arrays.get("views")),
        faults=faults,
        seeds=layout.seeds,
    )


def current_env() -> WorkerEnv:
    """The environment installed in this process; raises if absent."""
    if _ENV is None:
        raise RuntimeError(
            "no megasim environment installed in this process; "
            "install_worker_env must run first (pool initializer)"
        )
    return _ENV


def clear_worker_env() -> None:
    """Drop the installed environment (serial-path teardown).

    The attachment (if any) is closed so the mapping is released
    promptly; the parent still owns -- and unlinks -- the segment.
    Idempotent.
    """
    global _ENV, _ATTACHED
    _ENV = None
    segment, _ATTACHED = _ATTACHED, None
    if segment is not None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - env views still alive
            pass
