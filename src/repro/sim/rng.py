"""Named, independently seeded random streams.

Reproducibility discipline: a single root seed fans out into one
:class:`random.Random` instance per *named* stream.  Components ask for a
stream by name (``"overlay"``, ``"gossip:strategy"``, ``"workload"``), so

- adding randomness to one component never shifts the random sequence
  another component observes, and
- two runs with the same root seed produce identical event traces.

Stream seeds are derived with SHA-256 over ``(root_seed, name)`` rather
than Python's ``hash`` builtin, which is salted per process and would
destroy cross-run determinism.

:func:`sample` is the one sampler without replacement in the package:
``random.Random.sample``'s exact draw sequence without its per-draw
``_randbelow`` frame.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Sequence, Set, TypeVar

T = TypeVar("T")


def sample(rng: random.Random, population: Sequence[T], k: int) -> List[T]:
    """``rng.sample(population, k)``, draw for draw.

    The same ``getrandbits`` calls in the same order, so the same result
    and the same stream state afterwards: the pool branch (an ``n``-list
    smaller than a ``k``-set) and the set branch (rejection against the
    indices already taken) are CPython's, with ``_randbelow``'s
    rejection loop inlined.  ``population`` is any sequence, a ``range``
    included.  Requires a plain :class:`random.Random` (whose
    ``_randbelow`` is the ``getrandbits`` one).
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result: List[T] = []
    append = result.append
    setsize = 21  # random.Random.sample's list-versus-set size rule
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        for size in range(n, n - k, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            append(pool[j])
            pool[j] = pool[size - 1]
    else:
        bits = n.bit_length()
        selected: Set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            append(population[j])
    return result


class RandomStreams:
    """A factory of named deterministic :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so state advances monotonically within a run.
        """
        generator = self._streams.get(name)
        if generator is None:
            generator = random.Random(self.derive_seed(name))
            self._streams[name] = generator
        return generator

    def derive_seed(self, name: str) -> int:
        """Derive a stable 64-bit seed for ``name`` from the root seed."""
        digest = hashlib.sha256(
            f"{self.root_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child factory whose streams are independent of this
        factory's, yet fully determined by the root seed and ``name``.

        Useful to hand a whole subsystem (e.g. one simulated node) its own
        namespace of streams.
        """
        return RandomStreams(self.derive_seed(f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStreams(root_seed={self.root_seed}, "
            f"streams={sorted(self._streams)})"
        )
