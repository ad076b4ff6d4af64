"""Fixtures for the project-scope stream-lineage rules (DET010-DET012).

``lint_source`` treats a string as a one-file project, so single-module
cases run through the same phase-2 path as the whole tree; the
cross-module cases write real files and go through ``lint_paths``.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source


def rules_of(source: str, module: str = "repro.sim.fixture"):
    return [f.rule for f in lint_source(source, module=module)]


# -- DET010: stream-name collisions ------------------------------------------------


class TestStreamCollision:
    def test_two_functions_same_key_fire(self):
        source = (
            "def build_a(streams):\n"
            '    return streams.stream("failures")\n'
            "def build_b(streams):\n"
            '    return streams.stream("failures")\n'
        )
        assert rules_of(source) == ["DET010"]

    def test_same_function_rederivation_is_clean(self):
        source = (
            "def build(streams):\n"
            '    a = streams.derive_seed("workload")\n'
            '    b = streams.derive_seed("workload")\n'
            "    return a, b\n"
        )
        assert rules_of(source) == []

    def test_distinct_keys_are_clean(self):
        source = (
            "def build_a(streams):\n"
            '    return streams.stream("failures")\n'
            "def build_b(streams):\n"
            '    return streams.stream("failures.gray")\n'
        )
        assert rules_of(source) == []

    def test_placeholder_names_still_collide(self):
        # f"node.{i}" and f"node.{node}" resolve to the same collision
        # key "node.{}" -- renaming the index variable is not isolation.
        source = (
            "def build_a(streams, i):\n"
            '    return streams.stream(f"node.{i}")\n'
            "def build_b(streams, node):\n"
            '    return streams.stream(f"node.{node}")\n'
        )
        assert rules_of(source) == ["DET010"]

    def test_spawn_does_not_collide_with_stream(self):
        # RandomStreams.spawn derives "spawn:<name>", a different key
        # space from plain stream()/derive_seed() of the same name.
        source = (
            "def build_a(streams):\n"
            '    return streams.spawn("failures")\n'
            "def build_b(streams):\n"
            '    return streams.stream("failures")\n'
        )
        assert rules_of(source) == []

    def test_dynamic_keys_are_exempt(self):
        source = (
            "def build_a(streams, name):\n"
            "    return streams.stream(name)\n"
            "def build_b(streams, name):\n"
            "    return streams.stream(name)\n"
        )
        assert rules_of(source) == []

    def test_cross_module_failures_clash(self, tmp_path: Path):
        # The shape this rule exists for: an injector module owns the
        # "failures" stream, and a far-away vector adapter derives the
        # same key to replay it.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "injection.py").write_text(
            "class FailureInjector:\n"
            "    def __init__(self, streams):\n"
            '        self._rng = streams.stream("failures")\n'
        )
        (pkg / "adapter.py").write_text(
            "def replay(streams):\n"
            '    return streams.derive_seed("failures")\n'
        )
        findings = lint_paths([pkg], root=tmp_path)
        assert [f.rule for f in findings] == ["DET010"]
        finding = findings[0]
        assert '"failures"' in finding.message
        # Both modules appear: one as the primary location, one related.
        paths = {loc.path for loc in finding.locations}
        assert paths == {"src/repro/injection.py", "src/repro/adapter.py"}

    def test_noqa_on_related_location_suppresses(self, tmp_path: Path):
        # The justification lives at the *intentional* site (the replay),
        # which may be the related location rather than the primary one.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "injection.py").write_text(
            "def inject(streams):\n"
            '    return streams.stream("failures")\n'
        )
        (pkg / "replay.py").write_text(
            "def replay(streams):\n"
            '    return streams.stream("failures")  # noqa: DET010\n'
        )
        assert lint_paths([pkg], root=tmp_path) == []


# -- DET011: RNG seed lineage ------------------------------------------------------


class TestRngLineage:
    def test_constant_seed_fires(self):
        assert rules_of("import random\nrng = random.Random(42)\n") == [
            "DET011"
        ]

    def test_ambient_seed_fires(self):
        source = (
            "import random\n"
            "import time\n"
            "rng = random.Random(time.time_ns())\n"
        )
        # time.time_ns() itself is DET001; seeding from it is DET011.
        # (DET011 sorts first: the Random(...) call starts at a lower
        # column than the nested clock call.)
        assert rules_of(source) == ["DET011", "DET001"]

    def test_missing_seed_fires(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        assert rules_of(source) == ["DET011"]

    def test_derived_seed_is_clean(self):
        source = (
            "import random\n"
            "def build(streams):\n"
            '    return random.Random(streams.derive_seed("x"))\n'
        )
        assert rules_of(source) == []

    def test_derived_seed_through_local_is_clean(self):
        source = (
            "import random\n"
            "def build(streams):\n"
            '    seed = streams.derive_seed("x")\n'
            "    return random.Random(seed)\n"
        )
        assert rules_of(source) == []

    def test_parameter_seed_is_unknown_and_clean(self):
        source = (
            "import random\n"
            "def build(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert rules_of(source) == []

    def test_bit_generator_lineage_recurses(self):
        source = (
            "import numpy as np\n"
            "def good(streams):\n"
            '    return np.random.Generator(np.random.PCG64(streams.derive_seed("x")))\n'
            "def bad():\n"
            "    return np.random.Generator(np.random.PCG64(7))\n"
        )
        assert rules_of(source) == ["DET011"]

    def test_noqa_suppresses(self):
        source = (
            "import random\n"
            "rng = random.Random(0)  # noqa: DET011\n"
        )
        assert rules_of(source) == []


# -- DET012: unparameterized stream keys in loops ----------------------------------


class TestUnparameterizedStream:
    def test_literal_key_in_loop_fires(self):
        source = (
            "def build(streams, nodes):\n"
            "    for node in nodes:\n"
            '        rng = streams.stream("node")\n'
        )
        assert rules_of(source) == ["DET012"]

    def test_fstring_key_in_loop_is_clean(self):
        source = (
            "def build(streams, nodes):\n"
            "    for node in nodes:\n"
            '        rng = streams.stream(f"node.{node}")\n'
        )
        assert rules_of(source) == []

    def test_comprehension_counts_as_loop(self):
        source = (
            "def build(streams, nodes):\n"
            '    return [streams.stream("node") for node in nodes]\n'
        )
        assert rules_of(source) == ["DET012"]

    def test_index_param_helper_fires(self):
        source = (
            "def seed_for(streams, index):\n"
            '    return streams.derive_seed("retry")\n'
        )
        assert rules_of(source) == ["DET012"]

    def test_index_param_helper_with_fstring_is_clean(self):
        source = (
            "def seed_for(streams, index):\n"
            '    return streams.derive_seed(f"retry.{index}")\n'
        )
        assert rules_of(source) == []

    def test_literal_key_outside_loop_is_clean(self):
        source = (
            "def build(streams):\n"
            '    return streams.stream("workload")\n'
        )
        assert rules_of(source) == []

    def test_dynamic_key_in_loop_is_exempt(self):
        source = (
            "def build(streams, names):\n"
            "    return [streams.stream(name) for name in names]\n"
        )
        assert rules_of(source) == []
