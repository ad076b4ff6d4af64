"""Engine behaviour: suppression comments, file walking, module naming."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import (
    LintError,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    select_rules,
)
from repro.lint.rules import RULES


# -- noqa suppression --------------------------------------------------------------


def test_targeted_noqa_suppresses_matching_rule():
    assert lint_source("import time\nx = time.time()  # noqa: DET001\n") == []


def test_bare_noqa_suppresses_every_rule_on_the_line():
    assert lint_source("import time\nx = time.time()  # noqa\n") == []


def test_noqa_for_a_different_rule_does_not_suppress():
    findings = lint_source("import time\nx = time.time()  # noqa: DET002\n")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_with_multiple_codes():
    source = (
        "import time, random\n"
        "x = time.time() + random.random()  # noqa: DET001, DET002\n"
    )
    assert lint_source(source) == []


def test_multi_code_noqa_suppresses_each_rule_independently():
    # "# noqa: DET001,DET002" is a set of codes, not an all-or-nothing
    # unit: listing only one code lets exactly the other rule through.
    line = "x = time.time() + random.random()"
    both = f"import time, random\n{line}  # noqa: DET001,DET002\n"
    only_001 = f"import time, random\n{line}  # noqa: DET001\n"
    only_002 = f"import time, random\n{line}  # noqa: DET002\n"
    assert lint_source(both) == []
    assert [f.rule for f in lint_source(only_001)] == ["DET002"]
    assert [f.rule for f in lint_source(only_002)] == ["DET001"]


def test_noqa_is_case_insensitive():
    assert lint_source("import time\nx = time.time()  # NOQA: det001\n") == []


def test_noqa_only_covers_its_own_line():
    source = (
        "import time\n"
        "a = time.time()  # noqa: DET001\n"
        "b = time.time()\n"
    )
    findings = lint_source(source)
    assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]


# -- files and directories ---------------------------------------------------------


def test_lint_file_reports_relative_posix_paths(tmp_path):
    bad = tmp_path / "pkg" / "mod.py"
    bad.parent.mkdir()
    bad.write_text("import time\nx = time.time()\n")
    findings = lint_file(bad, root=tmp_path)
    assert [f.path for f in findings] == ["pkg/mod.py"]


def test_lint_paths_walks_directories_in_sorted_order(tmp_path):
    for name in ("b.py", "a.py"):
        (tmp_path / name).write_text("import time\nx = time.time()\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("import time\ntime.time()\n")
    findings = lint_paths([tmp_path], root=tmp_path)
    assert [f.path for f in findings] == ["a.py", "b.py"]


def test_lint_paths_accepts_single_files(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("import random\nx = random.random()\n")
    findings = lint_paths([target], root=tmp_path)
    assert [f.rule for f in findings] == ["DET002"]


def test_syntax_error_raises_lint_error(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    with pytest.raises(LintError, match="broken.py"):
        lint_file(target, root=tmp_path)


def test_lint_source_syntax_error():
    with pytest.raises(LintError):
        lint_source("def f(:\n")


# -- module naming and scoping -----------------------------------------------------


def test_module_name_from_src_layout():
    path = Path("src/repro/sim/engine.py")
    assert module_name_for(path) == "repro.sim.engine"


def test_module_name_for_package_init():
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"


def test_module_name_fallback_for_loose_files():
    assert module_name_for(Path("examples/quickstart.py")) == "quickstart"


def test_scoping_follows_derived_module_name(tmp_path):
    # A file under src/repro/sim/ gets DET004 core scoping even when the
    # tree lives somewhere else on disk.
    core = tmp_path / "src" / "repro" / "sim" / "mod.py"
    core.parent.mkdir(parents=True)
    core.write_text("import os\nv = os.getenv('X')\n")
    outside = tmp_path / "src" / "repro" / "experiments" / "mod.py"
    outside.parent.mkdir(parents=True)
    outside.write_text("import os\nv = os.getenv('X')\n")
    assert [f.rule for f in lint_file(core, root=tmp_path)] == ["DET004"]
    assert lint_file(outside, root=tmp_path) == []


# -- rule selection ----------------------------------------------------------------


def test_select_rules_defaults_to_all():
    assert select_rules(None) == RULES


def test_select_rules_filters_and_normalises():
    (rule,) = select_rules(["det003"])
    assert rule.rule_id == "DET003"


def test_select_rules_rejects_unknown_codes():
    with pytest.raises(LintError, match="DET099"):
        select_rules(["DET099"])
