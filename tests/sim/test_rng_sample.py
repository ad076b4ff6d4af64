"""``repro.sim.rng.sample`` is ``random.Random.sample``, draw for draw.

Every sampler without replacement in the package goes through it, so
the event kernel's failure injector and the slot kernel's replay of it
share one sampler by construction; it must never drift from the
standard library's, or seeded runs stop reproducing.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.rng import sample

SEEDS = 50
MAX_N = 300


def _uses_pool(n: int, k: int) -> bool:
    """``random.Random.sample``'s branch rule: an n-list below a k-set."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


def test_matches_random_sample_for_every_n_and_k():
    """Every ``k <= n`` for ``n`` in 1..300, spread over 50 seeds: pair
    ``(n, k)`` runs on seed ``(n + k) % 50``, each seed's pairs through
    one generator, so a wrong draw count shows in every later result
    and in the final state."""
    generators = [(random.Random(s), random.Random(s)) for s in range(SEEDS)]
    branches = {True: 0, False: 0}
    for n in range(1, MAX_N + 1):
        population = list(range(1000, 1000 + n))
        for k in range(n + 1):
            ours, theirs = generators[(n + k) % SEEDS]
            assert sample(ours, population, k) == theirs.sample(population, k), (
                n, k,
            )
            branches[_uses_pool(n, k)] += 1
    for ours, theirs in generators:
        assert ours.getstate() == theirs.getstate()
    assert branches[True] > 0 and branches[False] > 0


@pytest.mark.parametrize("n, k", [(10, 3), (21, 5), (200, 6), (100_000, 10_000)])
def test_accepts_a_range_population(n, k):
    ours, theirs = random.Random(7), random.Random(7)
    assert sample(ours, range(n), k) == theirs.sample(range(n), k)
    assert ours.getstate() == theirs.getstate()


def test_rejects_sizes_random_sample_rejects():
    for k in (-1, 4):
        with pytest.raises(ValueError):
            sample(random.Random(0), [1, 2, 3], k)
    assert sample(random.Random(0), [1, 2, 3], 0) == []
