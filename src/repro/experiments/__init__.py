"""Experiment harness: regenerates every table and figure.

- :mod:`repro.experiments.workload` -- the section 5.3 traffic model
  (400 messages x 256 B, round-robin senders, ~500 ms mean spacing).
- :mod:`repro.experiments.runner` -- one experiment = warm-up, optional
  failure injection, measured traffic, drain, summary.
- :mod:`repro.experiments.scenarios` -- named strategy factories with
  the paper's parameters, plus noise calibration helpers.
- :mod:`repro.experiments.figures` -- one function per table/figure
  (section 5.1 table, Fig. 4, Fig. 5a-c, Fig. 6a-c, section 5.4 stats),
  each returning the rows the paper plots; Figs. 4-6 are point lists
  over one sweep engine.
- :mod:`repro.experiments.reporting` -- plain-text table rendering.
- :mod:`repro.experiments.parallel` -- the process-pool engine fanning
  independent runs (replications, sweep points) over cores with
  bit-identical results for any worker count.
- :mod:`repro.experiments.golden` -- golden-trace digests: compact,
  exact fingerprints of canonical runs, pinned under ``tests/golden/``.

Every figure function takes a :class:`~repro.experiments.figures.Scale`
(``QUICK`` for a fast look, ``FULL`` for paper-scale runs recorded in
EXPERIMENTS.md).
"""

from repro.experiments.baselines import compare_baselines, compare_under_failures
from repro.experiments.parallel import (
    ParallelExecutionError,
    run_experiments,
    run_tasks,
)
from repro.experiments.replication import ReplicatedResult, run_replicated
from repro.experiments.runner import ExperimentResult, ExperimentSpec, run_experiment
from repro.experiments.scenarios import (
    ScenarioParams,
    flat_factory,
    hybrid_factory,
    noisy_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.experiments.workload import TrafficConfig, TrafficGenerator

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_experiments",
    "run_tasks",
    "ParallelExecutionError",
    "run_replicated",
    "ReplicatedResult",
    "compare_baselines",
    "compare_under_failures",
    "ScenarioParams",
    "flat_factory",
    "ttl_factory",
    "radius_factory",
    "ranked_factory",
    "hybrid_factory",
    "noisy_factory",
    "TrafficConfig",
    "TrafficGenerator",
]
