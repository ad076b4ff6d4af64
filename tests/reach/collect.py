"""Consumer reach: the functions of ``src/repro`` no product entry point enters.

Lists every function definition under ``src/repro`` by AST, runs each
entry point in :data:`ENTRY_POINTS` serially in this process under
``sys.setprofile``, and writes the sorted ``module:qualname`` of every
function that no ``call`` event entered to ``tests/reach/unreached.txt``
(no line numbers, so unrelated edits leave it alone).  CI regenerates the
file and diffs it against the committed copy; the list may only shrink.

    PYTHONPATH=src python tests/reach/collect.py      # or: make reach

Caveat: only this process is traced.  The entry points run serially
(``--workers 1``; ``os.cpu_count`` reads 1 for the examples, which size
their pools from it), except one pooled megasim run: its parent side --
packing the arena, reading the outcome region -- is traced, its worker
side is not, so a function only pool workers enter stays listed.
Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
OUTPUT = Path(__file__).with_name("unreached.txt")

STRATEGIES = ("eager", "lazy", "flat", "ttl", "radius", "ranked", "hybrid")
FIGURES = ("5.1", "4", "5a", "5b", "5c", "6", "5.4")
FULL_EVALUATION = ROOT / "examples" / "run_full_evaluation.py"

#: ``repro`` argument lists (quick scale), then example scripts and their
#: arguments.
_RUN = ["run", "--workers", "1"]
_FAULTS = ["--fail-fraction", "0.2", "--loss", "0.05"]
ENTRY_POINTS = [
    *(_RUN + [name] for name in STRATEGIES),
    *(_RUN + [name, "--backend", "vector"] for name in STRATEGIES),
    _RUN + ["radius"] + _FAULTS,
    _RUN + ["radius", "--backend", "vector"] + _FAULTS,
    _RUN + ["eager", "--replications", "2", "--messages", "10"],
    _RUN + ["ranked", "--backend", "vector", "--view-degree", "8", "--track-links"],
    _RUN + ["eager", "--backend", "vector", "--clients", "5000", "--messages", "1"],
    _RUN + ["radius", "--backend", "vector", "--clients", "5000", "--messages", "1"],
    ["run", "eager", "--backend", "vector", "--clients", "5000", "--messages", "2",
     "--workers", "2"],
    *(["figure", key, "--workers", "1"] for key in FIGURES),
    ["topology", "--routers", "400", "--clients", "40", "--save", os.devnull],
    *(
        [str(path)]
        for path in sorted((ROOT / "examples").glob("*.py"))
        if path != FULL_EVALUATION
    ),
    [str(FULL_EVALUATION), "--quick"],
]


def defined() -> dict:
    """``(path, first line, name) -> "module:qualname"`` for every function
    under ``src/repro``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = {}

    def walk(node: ast.AST, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[(path, first, child.name)] = f"{module}:{qualname}"
                walk(child, module, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".")
            else:
                walk(child, module, path, prefix)

    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, module, os.path.realpath(path), "")
    return found


def entered(entry_points: list) -> set:
    """``(path, first line, name)`` of every code object entered, the
    import of the CLI (and what it runs at import time) included."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from repro.cli import main as repro_main
    finally:
        sys.setprofile(None)
    for argv in entry_points:
        print(" ".join(argv), file=sys.stderr)
        quiet = contextlib.redirect_stdout(io.StringIO())
        with quiet, mock.patch("os.cpu_count", lambda: 1):
            sys.setprofile(profile)
            try:
                if argv[0].endswith(".py"):
                    with mock.patch.object(sys, "argv", argv):
                        runpy.run_path(argv[0], run_name="__main__")
                else:
                    repro_main(argv)
            finally:
                sys.setprofile(None)
    return {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in seen
    }


def main() -> None:
    functions = defined()
    reached = entered(ENTRY_POINTS)
    unreached = sorted(name for key, name in functions.items() if key not in reached)
    OUTPUT.write_text("".join(line + "\n" for line in unreached), encoding="utf-8")
    print(f"{len(unreached)} of {len(functions)} functions unreached", file=sys.stderr)


if __name__ == "__main__":
    main()
