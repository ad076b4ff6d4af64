"""Failure injection (paper section 6.3).

"We simulate failed nodes by silencing them with firewall rules after
letting them join the overlay and warm up, i.e. immediately before
starting to log message deliveries."  :class:`FailureInjector` does the
same against the simulated fabric: silenced nodes stay in peers' views
and keep receiving gossip targets, but all their traffic is dropped.

:func:`crash_victims` and :func:`gray_targets` are the seeded target
draws themselves; the injectors and the vector backend's
``compile_faults`` all call them, so a plan impairs the same nodes and
links on both kernels.
"""

from repro.failures.gray import (
    AppliedGrayFailures,
    GrayFailureInjector,
    GrayFailurePlan,
    gray_targets,
)
from repro.failures.injection import FailureInjector, FailurePlan, crash_victims

__all__ = [
    "FailureInjector",
    "FailurePlan",
    "GrayFailurePlan",
    "GrayFailureInjector",
    "AppliedGrayFailures",
    "crash_victims",
    "gray_targets",
]
