"""Parallel experiment engine.

Replicated studies and figure sweeps are embarrassingly parallel: every
run is an independent discrete-event simulation fully determined by
``(model, spec)``.  This module fans such runs out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping results
**bit-identical** to serial execution:

- *Seeds are derived before dispatch.*  Callers (e.g.
  :func:`repro.experiments.replication.run_replicated`) enumerate every
  spec -- including its seed -- up front, so nothing about the outcome
  depends on which worker runs which spec, or in which order workers
  finish.
- *Results are collected by submission index*, so aggregation order (and
  therefore floating-point reduction order) matches the serial loop
  exactly.
- *The serial fallback rule*: with ``workers=1`` (the default) no pool
  is created at all -- specs run inline in the calling process, so
  single-process results cannot even in principle diverge from the
  pre-engine behaviour.

Payloads must pickle: :class:`~repro.experiments.runner.ExperimentSpec`
is built from frozen dataclasses (see
:mod:`repro.experiments.scenarios`) and the network model serialises as
plain data.  A spec that does not pickle (e.g. a lambda strategy
factory) fails fast in the parent with the offending spec attached.

Child failures do not poison the pool: the worker catches everything and
ships the traceback text home, where it is re-raised as
:class:`ParallelExecutionError` carrying the failing spec.  A worker
that *dies* (killed, out of memory) raises the same error, carrying every
item it left unfinished -- never a short result list.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.runner import ExperimentResult, ExperimentSpec, run_experiment
from repro.topology.cache import ModelLike, resolve_model
from repro.topology.routing import ClientNetworkModel

#: Progress callback signature: ``(completed_count, total, item)`` where
#: ``item`` is the spec/task that just finished.  Called in the *parent*
#: process, in completion order (nondeterministic under ``workers > 1``;
#: results themselves are always returned in submission order).
ProgressFn = Callable[[int, int, Any], None]


class ParallelExecutionError(RuntimeError):
    """A spec/task failed (in a worker or during dispatch).

    ``spec`` is the failing payload -- the list of unfinished payloads
    when a worker process died, which no single one can be blamed for;
    ``child_traceback`` the formatted traceback from the failing run --
    worker-process or inline (empty for dispatch-side errors such as
    unpicklable payloads, and for a dead worker).
    """

    def __init__(
        self,
        message: str,
        spec: Any = None,
        child_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.spec = spec
        self.child_traceback = child_traceback


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``None`` or ``0`` means "one per available CPU"; anything else must
    be a positive integer.
    """
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _check_picklable(item: Any, what: str) -> None:
    """Fail fast, with context, before a pool submit would fail opaquely."""
    try:
        pickle.dumps(item)
    except Exception as exc:
        raise ParallelExecutionError(
            f"{what} is not picklable and cannot be dispatched to a "
            f"worker process: {exc}",
            spec=item,
        ) from exc


# -- the one pool loop -------------------------------------------------------------


def _guarded(call: Callable[[Any], Any], index: int, item: Any):
    """Pool task: ``call(item)`` with the outcome made picklable.

    Returns ``(index, result, None)`` or ``(index, None, traceback_text)``
    -- exceptions never cross the pickle boundary raw, so a failing item
    cannot wedge the pool on an unpicklable exception type.
    """
    try:
        return index, call(item), None
    except BaseException:
        return index, None, traceback.format_exc()


def _fan_out(
    items: List[Any],
    call: Callable[[Any], Any],
    what: str,
    workers: Optional[int],
    progress: Optional[ProgressFn],
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> List[Any]:
    """``[call(item) for item in items]``, inline or over a pool.

    ``call`` is a module-level function (pickled by reference); ``what``
    names an item in error messages.  ``initializer(*initargs)`` installs
    per-worker state once per pool process -- under the serial fallback
    inline, exactly once, before the first item, so worker-resident
    state behaves identically at any worker count (serial callers tear
    it down again; pool workers just exit).  The first failure -- an item
    raising, or a worker dying -- cancels what is still pending and
    raises :class:`ParallelExecutionError`.
    """
    workers = resolve_workers(workers)
    total = len(items)
    if total == 0:
        return []

    if workers == 1:
        if initializer is not None:
            initializer(*initargs)
        results: List[Any] = []
        for index, item in enumerate(items):
            try:
                results.append(call(item))
            except Exception as exc:
                raise ParallelExecutionError(
                    f"{what} {index + 1}/{total} failed: {exc}",
                    spec=item,
                    child_traceback=traceback.format_exc(),
                ) from exc
            if progress is not None:
                progress(index + 1, total, item)
        return results

    for item in items:
        _check_picklable(item, what)
    context = multiprocessing.get_context()
    if initializer is not None and context.get_start_method() != "fork":
        # A forked worker inherits the initializer's payload; every other
        # start method pickles it once per worker.
        _check_picklable(initargs, "initializer arguments")

    slots: List[Any] = [None] * total
    finished: Set[int] = set()
    with ProcessPoolExecutor(
        max_workers=min(workers, total),
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        try:
            futures: Dict["Future[Any]", Any] = {}
            for index, item in enumerate(items):
                futures[pool.submit(_guarded, call, index, item)] = item
            pending = set(futures)
            while pending:
                completed, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in completed:
                    index, result, child_tb = future.result()
                    if child_tb is not None:
                        # Cancellation is idempotent and order-insensitive;
                        # results are keyed by submission index, so future
                        # iteration order cannot reach any trace.
                        for other in pending:  # noqa: DET003
                            other.cancel()
                        raise ParallelExecutionError(
                            f"{what} {index + 1}/{total} failed in a worker "
                            f"process:\n{child_tb}",
                            spec=futures[future],
                            child_traceback=child_tb,
                        )
                    slots[index] = result
                    finished.add(index)
                    if progress is not None:
                        progress(len(finished), total, futures[future])
        except BrokenProcessPool as exc:
            # The pool fails every unfinished future at once, and refuses
            # any submit still to come: a worker may die mid-dispatch.
            lost = [
                item for index, item in enumerate(items) if index not in finished
            ]
            raise ParallelExecutionError(
                f"a worker process died with {len(lost)} of {total} "
                f"{what}s unfinished, the first of them {lost[0]!r}",
                spec=lost,
            ) from exc
    return slots


# -- experiment fan-out ------------------------------------------------------------

# The model is shipped once per worker via the pool initializer instead
# of once per task; sweeps reuse one model across dozens of specs.
_WORKER_MODEL: Optional[ClientNetworkModel] = None


def _init_worker(model: Optional[ClientNetworkModel]) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = model


def _run_spec(spec: ExperimentSpec) -> ExperimentResult:
    # A global lookup per call: the perf harness rebinds ``run_experiment``.
    return run_experiment(_WORKER_MODEL, spec)


def run_experiments(
    model: ModelLike,
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
) -> List[ExperimentResult]:
    """Run every spec against ``model``; results in submission order.

    ``workers=1`` (default) runs inline -- bit-identical to the historic
    serial loop.  ``workers=None`` / ``0`` uses one worker per CPU.  Any
    failing spec raises :class:`ParallelExecutionError` with the spec
    attached.

    ``model`` may be a :class:`~repro.topology.cache.ModelKey`; it is
    resolved through the shared topology cache *here, in the parent*, so
    the build happens (at most) once and the concrete model ships to
    every worker via the pool initializer.
    """
    try:
        return _fan_out(
            list(specs), _run_spec, "experiment", workers, progress,
            _init_worker, (resolve_model(model),),
        )
    finally:
        _init_worker(None)


# -- generic task fan-out ----------------------------------------------------------


def _call_task(task: Callable[[], Any]) -> Any:
    return task()


def run_tasks(
    tasks: Sequence[Callable[[], Any]],
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> List[Any]:
    """Run zero-argument callables; results in submission order.

    The generic escape hatch for work that is not an
    :class:`ExperimentSpec` -- benchmark sweep points, megasim seed
    batches.  Tasks must pickle under ``workers > 1``; use
    :func:`functools.partial` over module-level functions, not lambdas.

    ``initializer``/``initargs`` install per-worker state *once* per
    pool process (the megasim arena attaches its shared environment
    here) instead of shipping it inside every task; see :func:`_fan_out`
    for the serial-fallback rule.
    """
    return _fan_out(
        list(tasks), _call_task, "task", workers, progress,
        initializer, initargs,
    )
