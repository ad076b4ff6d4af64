"""Fixtures for the vectorization-safety rules (VEC001-VEC004).

These rules are scoped to ``repro.megasim`` -- the struct-of-arrays
backend whose equivalence to the event kernel depends on stable sorts
and order-free numpy inputs -- so every fixture is linted under a
``repro.megasim.*`` module name, plus one scope check that the same
source is clean elsewhere.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_source

MEGASIM = "repro.megasim.fixture"


def rules_of(source: str, module: str = MEGASIM):
    return [f.rule for f in lint_source(source, module=module)]


# -- VEC001: unstable sorts --------------------------------------------------------


class TestUnstableSort:
    def test_argsort_without_kind_fires(self):
        assert rules_of(
            "import numpy as np\norder = np.argsort(x)\n"
        ) == ["VEC001"]

    def test_value_sort_is_clean(self):
        # Equal values are indistinguishable: stability cannot show.
        assert rules_of(
            "import numpy as np\nordered = np.sort(x)\nx.sort()\n"
        ) == []

    def test_method_argsort_fires(self):
        assert rules_of("order = x.argsort()\n") == ["VEC001"]

    def test_stable_kind_is_clean(self):
        source = (
            "import numpy as np\n"
            'a = np.argsort(x, kind="stable")\n'
            'b = np.sort(x, kind="stable")\n'
            'c = x.argsort(kind="stable")\n'
        )
        assert rules_of(source) == []

    def test_lexsort_is_stable_by_spec(self):
        assert rules_of(
            "import numpy as np\norder = np.lexsort((a, b))\n"
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rules_of(
            "import numpy as np\norder = np.argsort(x)\n",
            module="repro.metrics.latency",
        ) == []


# -- VEC002: legacy global numpy.random API ----------------------------------------


class TestLegacyNumpyRandom:
    def test_legacy_calls_fire(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "b = np.random.randint(0, 10)\n"
            "np.random.seed(0)\n"
            "np.random.shuffle(a)\n"
        )
        assert rules_of(source) == ["VEC002"] * 4

    def test_modern_generator_api_is_clean(self):
        source = (
            "import numpy as np\n"
            "def build(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    gen = np.random.Generator(np.random.PCG64(seed))\n"
            "    return rng, gen\n"
        )
        assert rules_of(source) == []

    def test_aliased_import_resolved(self):
        assert rules_of(
            "import numpy\nx = numpy.random.permutation(10)\n"
        ) == ["VEC002"]


# -- VEC003: np.unique positional companions ---------------------------------------


class TestUniquePositional:
    def test_companion_used_as_index_fires(self):
        source = (
            "import numpy as np\n"
            "def f(a, payload):\n"
            "    vals, inverse = np.unique(a, return_inverse=True)\n"
            "    return payload[inverse]\n"
        )
        assert rules_of(source) == ["VEC003"]

    def test_return_index_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(a, payload):\n"
            "    vals, first = np.unique(a, return_index=True)\n"
            "    return payload[first]\n"
        )
        assert rules_of(source) == []

    def test_values_only_use_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(a):\n"
            "    fresh = np.unique(a)\n"
            "    return fresh\n"
        )
        assert rules_of(source) == []

    def test_companion_not_indexed_is_clean(self):
        # Counts zipped with values never index another array, so order
        # mismatches cannot scramble a payload.
        source = (
            "import numpy as np\n"
            "def f(a):\n"
            "    vals, counts = np.unique(a, return_counts=True)\n"
            "    return list(zip(vals, counts))\n"
        )
        assert rules_of(source) == []


# -- VEC004: numpy operands from unordered iteration -------------------------------


class TestSetOperand:
    def test_set_literal_operand_fires(self):
        source = (
            "import numpy as np\n"
            "def f(x):\n"
            "    seen = {1, 2, 3}\n"
            "    return np.array(list(seen))\n"
        )
        # list(seen) is also DET003's unsorted set iteration -- the two
        # rules agree that this order leak needs a sorted(...).
        assert rules_of(source) == ["VEC004", "DET003"]

    def test_set_call_operand_fires(self):
        source = (
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.asarray(set(x))\n"
        )
        assert rules_of(source) == ["VEC004"]

    @pytest.mark.parametrize(
        "operand", ["np.array(a.union(b))", "np.asarray(a.copy())"]
    )
    def test_set_method_result_operand_fires(self, operand):
        # The set predicate is shared with DET003: a set method's result
        # is again a set.
        source = f"import numpy as np\na = {{1}}\nb = {{2}}\narr = {operand}\n"
        assert rules_of(source) == ["VEC004"]

    def test_dict_view_operand_fires(self):
        source = (
            "import numpy as np\n"
            "def f(d):\n"
            "    return np.fromiter(d.keys(), dtype=int)\n"
        )
        assert rules_of(source) == ["VEC004"]

    def test_sorted_set_operand_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(x):\n"
            "    seen = set(x)\n"
            "    return np.array(sorted(seen))\n"
        )
        assert rules_of(source) == []

    def test_plain_list_operand_is_clean(self):
        assert rules_of(
            "import numpy as np\narr = np.array([3, 1, 2])\n"
        ) == []
