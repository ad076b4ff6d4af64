"""Per-rule fixtures: each DET rule must fire on a violating snippet and
stay silent on its compliant twin."""

from __future__ import annotations

from repro.lint import RULES_BY_ID, lint_source


def rules_of(source: str, module: str = "repro.sim.fixture"):
    return [f.rule for f in lint_source(source, module=module)]


# -- DET001: wall clocks -----------------------------------------------------------


class TestWallClock:
    def test_time_time_fires(self):
        assert rules_of("import time\nx = time.time()\n") == ["DET001"]

    def test_monotonic_and_perf_counter_fire(self):
        source = (
            "import time\n"
            "a = time.monotonic()\n"
            "b = time.perf_counter()\n"
            "c = time.time_ns()\n"
        )
        assert rules_of(source) == ["DET001"] * 3

    def test_from_import_alias_resolved(self):
        assert rules_of(
            "from time import perf_counter as pc\nx = pc()\n"
        ) == ["DET001"]

    def test_module_alias_resolved(self):
        assert rules_of("import time as t\nx = t.time()\n") == ["DET001"]

    def test_datetime_now_and_utcnow_fire(self):
        source = (
            "from datetime import datetime\n"
            "a = datetime.now()\n"
            "b = datetime.utcnow()\n"
        )
        assert rules_of(source) == ["DET001"] * 2

    def test_datetime_module_spelling_fires(self):
        assert rules_of(
            "import datetime\nx = datetime.datetime.now()\n"
        ) == ["DET001"]

    def test_simulated_time_is_clean(self):
        source = (
            "def handler(sim):\n"
            "    return sim.now + 400.0\n"
        )
        assert rules_of(source) == []

    def test_every_expression_position_is_walked(self):
        # Decorator, class base and keyword, default, annotation, with
        # item, except type, assignment and augmented-assignment target,
        # match guard: the fact walk reaches each of them.
        source = (
            "import time\n"
            "@deco(time.time())\n"
            "class A(base(time.time()), meta=time.time()):\n"
            "    pass\n"
            "def f(x=time.time(), y: g(time.time()) = 1):\n"
            "    with ctx(time.time()):\n"
            "        pass\n"
            "    try:\n"
            "        pass\n"
            "    except E(time.time()):\n"
            "        pass\n"
            "    out[time.time()] = 1\n"
            "    out[time.time()] += 1\n"
            "    match x:\n"
            "        case 1 if time.time():\n"
            "            pass\n"
        )
        assert rules_of(source) == ["DET001"] * 10

    def test_time_sleep_is_not_a_clock_read(self):
        # sleep blocks but does not observe the clock value; other rules
        # would catch it if it ever mattered, DET001 stays focused.
        assert rules_of("import time\ntime.sleep(0)\n") == []

    def test_allowlisted_module_is_exempt(self):
        source = "import time\nx = time.perf_counter()\n"
        assert rules_of(source, module="repro.experiments.parallel") == []
        assert rules_of(source, module="benchmarks.perf.harness") == []
        assert rules_of(source, module="repro.sim.engine") == ["DET001"]


# -- DET002: global random ---------------------------------------------------------


class TestGlobalRandom:
    def test_module_level_calls_fire(self):
        source = (
            "import random\n"
            "a = random.random()\n"
            "b = random.randint(1, 6)\n"
            "c = random.shuffle([1, 2])\n"
        )
        assert rules_of(source) == ["DET002"] * 3

    def test_seed_call_fires(self):
        assert rules_of("import random\nrandom.seed(0)\n") == ["DET002"]

    def test_from_import_fires(self):
        assert rules_of(
            "from random import choice\nx = choice([1, 2])\n"
        ) == ["DET002"]

    def test_seeded_instance_is_clean(self):
        # An instance is never a *global-random* violation (DET002); the
        # literal seed itself is DET011's business.
        source = (
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.randint(1, 6)\n"
            "rng.shuffle([1, 2])\n"
        )
        assert rules_of(source) == ["DET011"]

    def test_from_import_random_class_is_clean(self):
        assert rules_of(
            "from random import Random\nrng = Random(7)\nx = rng.random()\n"
        ) == ["DET011"]

    def test_annotation_use_is_clean(self):
        source = (
            "import random\n"
            "def f(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        assert rules_of(source) == []

    def test_sim_rng_stream_is_clean(self):
        source = (
            "def pick(sim, peers):\n"
            "    return sim.rng.stream('overlay').choice(peers)\n"
        )
        assert rules_of(source) == []


# -- DET003: unsorted set iteration ------------------------------------------------


class TestUnsortedSetIteration:
    def test_for_over_set_literal_fires(self):
        assert rules_of("s = {1, 2}\nfor x in s:\n    print(x)\n") == ["DET003"]

    def test_for_over_set_call_fires(self):
        assert rules_of(
            "for x in set([1, 2]):\n    print(x)\n"
        ) == ["DET003"]

    def test_list_of_set_fires(self):
        assert rules_of("xs = list(set([3, 1, 2]))\n") == ["DET003"]

    def test_tuple_and_enumerate_launder_fires(self):
        source = (
            "s = frozenset((1, 2))\n"
            "a = tuple(s)\n"
            "for i, x in enumerate(s):\n"
            "    pass\n"
        )
        assert rules_of(source) == ["DET003"] * 2

    def test_comprehension_over_set_fires(self):
        assert rules_of("out = [x for x in {1, 2}]\n") == ["DET003"]

    def test_set_union_binop_fires(self):
        assert rules_of(
            "a = {1}\nb = {2}\nfor x in a | b:\n    pass\n"
        ) == ["DET003"]

    def test_set_method_result_fires(self):
        assert rules_of(
            "a = {1}\nfor x in a.union({2}):\n    pass\n"
        ) == ["DET003"]

    def test_sorted_wrapper_is_clean(self):
        source = (
            "s = {2, 1}\n"
            "for x in sorted(s):\n"
            "    print(x)\n"
            "xs = sorted(set([3, 1]))\n"
        )
        assert rules_of(source) == []

    def test_order_free_reductions_are_clean(self):
        source = (
            "s = {1, 2, 3}\n"
            "n = len(s)\n"
            "m = max(s)\n"
            "ok = 2 in s\n"
        )
        assert rules_of(source) == []

    def test_list_iteration_is_clean(self):
        assert rules_of(
            "xs = [3, 1, 2]\nfor x in xs:\n    print(x)\n"
        ) == []

    def test_dict_iteration_is_clean(self):
        # Dicts preserve insertion order in every supported Python, so a
        # deterministically-built dict iterates deterministically.
        source = (
            "d = {'a': 1}\n"
            "for k in d:\n"
            "    print(k)\n"
            "for k, v in d.items():\n"
            "    print(k, v)\n"
        )
        assert rules_of(source) == []

    def test_every_statement_of_a_handler_or_case_is_walked(self):
        source = (
            "s = {1, 2}\n"
            "try:\n"
            "    pass\n"
            "except ValueError:\n"
            "    pass\n"
            "    for x in s:\n"
            "        pass\n"
            "match s:\n"
            "    case _:\n"
            "        pass\n"
            "        ys = list(s)\n"
        )
        assert rules_of(source) == ["DET003"] * 2

    def test_augmented_set_operator_keeps_tracking(self):
        source = (
            "def f(other):\n"
            "    s = set()\n"
            "    s |= other\n"
            "    return [x for x in s]\n"
        )
        assert rules_of(source) == ["DET003"]

    def test_reassignment_clears_tracking(self):
        source = (
            "xs = {1, 2}\n"
            "xs = sorted(xs)\n"
            "for x in xs:\n"
            "    print(x)\n"
        )
        assert rules_of(source) == []

    def test_tracking_is_per_function_scope(self):
        source = (
            "def a():\n"
            "    s = {1, 2}\n"
            "    return sorted(s)\n"
            "def b(s):\n"
            "    for x in s:\n"
            "        print(x)\n"
        )
        # b's parameter is untracked: the rule does not guess types.
        assert rules_of(source) == []


# -- DET004: ambient environment reads ---------------------------------------------


class TestEnvironmentRead:
    def test_environ_subscript_fires_in_core(self):
        assert rules_of(
            "import os\nv = os.environ['SEED']\n",
            module="repro.gossip.protocol",
        ) == ["DET004"]

    def test_getenv_and_urandom_fire_in_core(self):
        source = "import os\na = os.getenv('X')\nb = os.urandom(8)\n"
        assert rules_of(source, module="repro.runtime.node") == ["DET004"] * 2

    def test_open_fires_in_core(self):
        assert rules_of(
            "data = open('model.txt').read()\n",
            module="repro.network.fabric",
        ) == ["DET004"]

    def test_uuid4_and_secrets_fire_in_core(self):
        source = (
            "import uuid\n"
            "import secrets\n"
            "a = uuid.uuid4()\n"
            "b = secrets.token_bytes(8)\n"
        )
        assert rules_of(source, module="repro.sim.engine") == ["DET004"] * 2

    def test_experiment_layer_is_out_of_scope(self):
        source = "import os\nv = os.environ.get('WORKERS')\n"
        assert rules_of(source, module="repro.experiments.runner") == []
        assert rules_of(source, module="repro.cli") == []

    def test_core_without_reads_is_clean(self):
        assert rules_of(
            "def f(config):\n    return config.fanout\n",
            module="repro.membership.view",
        ) == []

    def test_megasim_is_in_core_scope(self):
        assert rules_of(
            "import os\nv = os.getenv('SEED')\n",
            module="repro.megasim.rounds",
        ) == ["DET004"]

    def test_shared_memory_fires_outside_the_arena(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        )
        assert rules_of(source, module="repro.megasim.rounds") == ["DET004"]
        assert rules_of(source, module="repro.sim.engine") == ["DET004"]

    def test_shared_memory_from_import_resolved(self):
        source = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "seg = SharedMemory(name='x')\n"
        )
        assert rules_of(source, module="repro.runtime.node") == ["DET004"]

    def test_arena_is_the_sanctioned_shared_memory_user(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        )
        assert rules_of(source, module="repro.megasim.arena") == []

    def test_experiment_layer_shared_memory_is_out_of_scope(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        )
        assert rules_of(source, module="repro.experiments.parallel") == []


# -- DET005: unfrozen factories ----------------------------------------------------


class TestUnfrozenFactory:
    def test_dataclass_with_call_fires(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Build:\n"
            "    p: float\n"
            "    def __call__(self, ctx):\n"
            "        return ctx\n"
        )
        assert rules_of(source) == ["DET005"]

    def test_factory_suffix_fires(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FlatFactory:\n"
            "    p: float\n"
        )
        assert rules_of(source) == ["DET005"]

    def test_dataclass_call_with_other_kwargs_fires(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(eq=True)\n"
            "class RankedFactory:\n"
            "    fraction: float\n"
        )
        assert rules_of(source) == ["DET005"]

    def test_frozen_factory_is_clean(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FlatFactory:\n"
            "    p: float\n"
            "    def __call__(self, ctx):\n"
            "        return ctx\n"
        )
        assert rules_of(source) == []

    def test_module_spelling_resolved(self):
        source = (
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class TtlFactory:\n"
            "    rounds: int\n"
        )
        assert rules_of(source) == ["DET005"]

    def test_plain_dataclass_without_call_is_clean(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Stats:\n"
            "    delivered: int\n"
        )
        assert rules_of(source) == []

    def test_non_dataclass_factory_is_clean(self):
        # Only the dataclass/pickle invariant is checked statically.
        source = (
            "class LegacyFactory:\n"
            "    def __call__(self, ctx):\n"
            "        return ctx\n"
        )
        assert rules_of(source) == []


# -- mutable defaults: ruff B006's job, not a rule here ----------------------------


class TestMutableDefault:
    """Defaults are ruff ``B006``'s business (selected and blocking in
    the same CI job); this linter says nothing about them."""

    def test_mutable_defaults_are_left_to_ruff_b006(self):
        assert rules_of("def f(xs=[], *, ys={}):\n    return xs, ys\n") == []
        assert "DET006" not in RULES_BY_ID

    def test_none_sentinel_is_clean(self):
        assert rules_of(
            "def f(xs=None):\n    return xs if xs is not None else []\n"
        ) == []

    def test_immutable_defaults_are_clean(self):
        assert rules_of(
            "def f(a=0, b='x', c=(1, 2), d=frozenset((1,))):\n    return a\n"
        ) == []


# -- finding metadata --------------------------------------------------------------


def test_findings_carry_location_and_severity():
    findings = lint_source(
        "import time\n\nx = time.time()\n", module="repro.sim.fixture"
    )
    (finding,) = findings
    assert finding.rule == "DET001"
    assert finding.line == 3
    assert finding.col == 4
    assert finding.severity == "error"
    assert "time.time" in finding.message
    assert finding.render().startswith("<string>:3:4: DET001 ")


def test_findings_sort_stably():
    source = (
        "import time, random\n"
        "b = random.random()\n"
        "a = time.time()\n"
    )
    findings = lint_source(source, module="repro.sim.fixture")
    assert [f.rule for f in sorted(findings)] == ["DET002", "DET001"]
