"""Consumer reach: the functions of ``src/repro`` no product entry point enters.

Runs each entry point in :data:`ENTRY_POINTS` in this process under the
call ledger (:mod:`tests.calls`) and writes the sorted ``module:qualname``
of every function definition with no ``call`` event to
``tests/reach/unreached.txt`` (no line numbers, so unrelated edits leave it
alone).  Lambdas, generator expressions and ``typing.Protocol`` bodies are
not listed.  CI regenerates the file and diffs it against the committed
copy; the list may only shrink.

    PYTHONPATH=src python -m tests.reach.collect      # or: make reach

The entry points run serially (``--workers 1``; ``os.cpu_count`` reads 1
for the examples, which size their pools from it), except one pooled
megasim run.  Its forked workers are traced and their counts merged; under
``spawn`` or ``forkserver`` they would not be.  Pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path
from unittest import mock

from tests import calls

ROOT = Path(__file__).resolve().parents[2]
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
    ["topology", "--routers", "400", "--clients", "40"],
    *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))
      if path != FULL_EVALUATION),
    [str(FULL_EVALUATION), "--quick"],
]


def main() -> None:
    names = calls.index()
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet, mock.patch("os.cpu_count", lambda: 1), calls.counting(names) as counts:
        from repro.cli import main as repro_main

        for argv in ENTRY_POINTS:
            print(" ".join(argv), file=sys.stderr)
            if argv[0].endswith(".py"):
                with mock.patch.object(sys, "argv", argv):
                    runpy.run_path(argv[0], run_name="__main__")
            else:
                repro_main(argv)
    functions = {name for name in names.values() if not name.endswith(">")}
    unreached = sorted(name for name in functions if not counts[name])
    OUTPUT.write_text("".join(line + "\n" for line in unreached), encoding="utf-8")
    print(f"{len(unreached)} of {len(functions)} functions unreached", file=sys.stderr)


if __name__ == "__main__":
    main()
