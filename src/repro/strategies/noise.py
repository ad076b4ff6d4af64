"""The noise wrapper of section 4.3.

Used to evaluate robustness to inaccurate environment knowledge without
changing the amount of data transmitted.  Every ``Eager?`` query of the
wrapped strategy yields ``v`` (1.0 for true, 0.0 for false); the wrapper
returns true with probability

    ``v' = c + (v - c) * (1 - o)``

where ``o`` is the noise ratio and ``c`` is calibrated so the *overall*
eager probability is unchanged -- which requires ``c`` to equal the
wrapped strategy's average eager rate (then ``E[v'] = E[v]`` for any
``o``).  At ``o = 0`` decisions pass through untouched; at ``o = 1`` the
strategy degenerates to Flat with ``p = c``, "completely erasing
structure"; in between the structure blurs progressively (Fig. 6).

Calibration ``c`` can be supplied (the paper extracts it from the model
file) or estimated online as the running mean of observed decisions.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Set

from repro.scheduler.interfaces import TransmissionStrategy


class NoisyStrategy:
    """Blurs a wrapped strategy's ``Eager?`` while preserving its rate."""

    def __init__(
        self,
        inner: TransmissionStrategy,
        noise: float,
        rng: random.Random,
        calibration: Optional[float] = None,
    ) -> None:
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise out of range: {noise}")
        if calibration is not None and not 0.0 <= calibration <= 1.0:
            raise ValueError(f"calibration out of range: {calibration}")
        self.inner = inner
        self.noise = noise
        self._rng = rng
        self._calibration = calibration
        self._observed = 0
        self._observed_true = 0

    @property
    def calibration(self) -> float:
        """Current ``c``: supplied, or the online estimate (0.5 until the
        first observation)."""
        if self._calibration is not None:
            return self._calibration
        if self._observed == 0:
            return 0.5
        return self._observed_true / self._observed

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        v = 1.0 if self.inner.eager(message_id, payload, round_, peer) else 0.0
        self._observed += 1
        self._observed_true += int(v)
        if self.noise <= 0.0:
            return v >= 1.0
        c = self.calibration
        blurred = c + (v - c) * (1.0 - self.noise)
        return self._rng.random() < blurred

    def eager_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> Sequence[bool]:
        return [self.eager(message_id, payload, round_, peer) for peer in peers]

    # ``ScheduleNext`` timing is delegated untouched: noise models bad
    # environment knowledge, not a different request discipline.

    def first_request_delay(self, message_id: int, source: int) -> float:
        return self.inner.first_request_delay(message_id, source)

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        return self.inner.select_source(message_id, sources, asked)

    @property
    def retry_period_ms(self) -> float:
        return self.inner.retry_period_ms
