"""``structure_metrics``: one sorted send buffer against the dict reference.

The scale tier reduces every message's ``(link_keys, link_sends)`` table
into :class:`~repro.megasim.links.StructureMetrics` without a per-link
dict.  The property holds it to the small-N path -- each outcome's
``link_counts`` summed with a ``Counter`` and read by
:func:`repro.metrics.structure.link_concentration` -- over random tables
with links repeated across messages, multi-send links and messages that
sent nothing.  The memory test bounds what the reduction allocates per
send.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.megasim.links import structure_metrics
from repro.megasim.rounds import MessageOutcome
from repro.metrics.structure import link_concentration

FRACTIONS = (0.05, 0.3, 1.0)


def outcome_for(n: int, keys: List[int], sends: List[int]) -> MessageOutcome:
    """A finished message whose only content is its payload-link table."""
    return MessageOutcome(
        origin=0,
        deliver_slot=np.zeros(n, dtype=np.int32),
        carried_round=np.zeros(n, dtype=np.int32),
        payload_sent=np.zeros(n, dtype=np.int64),
        payload_received=np.zeros(n, dtype=np.int64),
        msg_sent=sum(sends),
        ihave_sent=0,
        iwant_sent=0,
        slots_elapsed=1,
        link_keys=np.array(keys, dtype=np.int64),
        link_sends=np.array(sends, dtype=np.int64),
    )


@st.composite
def link_tables(draw: st.DrawFn) -> Tuple[int, List[MessageOutcome]]:
    """``n`` and per-message tables: sorted distinct keys drawn from one
    shared pool (so links repeat across messages), sends >= 1, and
    messages with no links at all."""
    n = draw(st.integers(2, 40))
    pool = draw(st.lists(st.integers(0, n * n - 1), min_size=1, max_size=30))
    outcomes = []
    for _ in range(draw(st.integers(1, 6))):
        keys = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=30))))
        sends = draw(
            st.lists(st.integers(1, 5), min_size=len(keys), max_size=len(keys))
        )
        outcomes.append(outcome_for(n, keys, sends))
    return n, outcomes


def summed_links(outcomes: List[MessageOutcome]) -> Dict[Tuple[int, int], int]:
    total: Counter = Counter()
    for outcome in outcomes:
        counts = outcome.link_counts
        assert counts is not None
        total.update(counts)
    return dict(total)


@settings(max_examples=300, deadline=None)
@given(link_tables())
def test_structure_metrics_match_the_dict_reference(table) -> None:
    n, outcomes = table
    links = summed_links(outcomes)
    senders = len({src for src, _ in links})
    for fraction in FRACTIONS:
        metrics = structure_metrics(outcomes, n, fraction)
        assert metrics is not None
        assert metrics.top_link_share == link_concentration(links, fraction)
        assert metrics.top_fraction == fraction
        assert metrics.used_links == len(links)
        assert metrics.sending_nodes == senders
        assert metrics.effective_degree == (
            len(links) / senders if senders else 0.0
        )


@settings(max_examples=50, deadline=None)
@given(link_tables(), st.data())
def test_any_untracked_outcome_means_no_metrics(table, data) -> None:
    n, outcomes = table
    index = data.draw(st.integers(0, len(outcomes) - 1))
    column = data.draw(st.sampled_from(["link_keys", "link_sends"]))
    outcomes[index] = replace(outcomes[index], **{column: None})
    assert structure_metrics(outcomes, n) is None


def test_no_outcomes_means_no_metrics() -> None:
    assert structure_metrics([], 10) is None


def test_bad_arguments_rejected() -> None:
    outcomes = [outcome_for(4, [1, 6], [1, 2])]
    with pytest.raises(ValueError, match="n must be"):
        structure_metrics(outcomes, 0)
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            structure_metrics(outcomes, 4, fraction)


def test_vector_top_share_matches_on_zero_padded_links() -> None:
    """Links that carried nothing are not "used": zero sends beside links
    with counts 1..10 leave the cut (and ``used_links``) where the dict
    implementation puts it."""
    n = 300
    counts = {(i, i + 1): i for i in range(1, 11)}
    padded = {**counts, **{(100 + i, 200 + i): 0 for i in range(100)}}
    for table in (counts, padded):
        ordered = sorted((src * n + dst, sent) for (src, dst), sent in table.items())
        outcome = outcome_for(
            n, [key for key, _ in ordered], [sent for _, sent in ordered]
        )
        for fraction in FRACTIONS:
            metrics = structure_metrics([outcome], n, fraction)
            assert metrics is not None
            assert metrics.top_link_share == link_concentration(table, fraction)
            assert metrics.used_links == 10


def test_peak_memory_per_send_is_bounded() -> None:
    """8 messages x 200k mostly distinct links: the reduction allocates at
    most 12 bytes per send (numpy reports its buffers to tracemalloc, so
    the figure is the same on every box)."""
    n = 100_000
    rng = np.random.default_rng(7)
    shared = rng.integers(0, n * n, size=20_000, dtype=np.int64)
    outcomes = []
    for _ in range(8):
        fresh = rng.integers(0, n * n, size=180_000, dtype=np.int64)
        keys = np.unique(np.concatenate([fresh, shared]))
        sends = 1 + (rng.random(keys.shape[0]) < 0.05).astype(np.int64)
        outcome = outcome_for(n, [], [])
        outcomes.append(replace(outcome, link_keys=keys, link_sends=sends))
    total_sends = sum(int(outcome.link_sends.sum()) for outcome in outcomes)
    tracemalloc.start()
    try:
        metrics = structure_metrics(outcomes, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics is not None and metrics.used_links > 1_400_000
    assert peak <= 12 * total_sends, f"{peak / total_sends:.1f} bytes per send"
