"""The paper tier: ablations and extensions of the paper's evaluation at
BENCH scale, each asserting the *shape* the paper (or DESIGN.md) claims.

The figures themselves (Figs. 4-6, sections 5.1/5.4) and the baseline
comparison are checked at the same scale in
``tests/experiments/test_figures.py``,
``tests/experiments/test_baselines_comparison.py`` and
``tests/topology/test_paper_properties.py``.  Paper-scale numbers come
from ``examples/run_full_evaluation.py`` and are recorded in
EXPERIMENTS.md.
"""

from repro.experiments.figures import Scale
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig

#: Big enough for stable shapes, small enough that the whole tier runs in
#: seconds inside the blocking test job.
BENCH = Scale("bench", clients=30, routers=300, messages=40, warmup_ms=5_000.0, seed=3)


def bench_cluster(**overrides) -> ClusterConfig:
    """BENCH's default cluster (gossip sized for the population), with
    the given ``ClusterConfig`` fields replaced."""
    return ClusterConfig(
        gossip=GossipConfig.for_population(BENCH.clients), **overrides
    )
