"""One call ledger: ``call`` events into ``src/repro``, counted per function.

:func:`index` names every function, ``lambda`` and generator expression
under ``src/repro`` by AST, as ``module:qualname`` the way CPython 3.12's
``co_qualname`` does (comprehensions are transparent, PEP 709).  The
bodies of ``typing.Protocol`` classes are left out: nobody calls them, by
construction.  :func:`counting` traces a block under ``sys.setprofile`` --
the one profile hook of the test tools -- and fills a ``Counter`` keyed by
those names when the block exits.  Comprehension frames are skipped
because CPython 3.12 inlines them, so the counts are the same on 3.10
through 3.13.  A counted code object the index does not name (a class or
module body run at import) is keyed ``?path:line:name``.

Pool workers forked while a block is counting inherit the hook.  Each
clears its inherited counts at fork and, at exit, writes its own to the
block's scratch directory; the block merges them.  Workers started by
``spawn`` or ``forkserver`` are not traced.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
import tempfile
from collections import Counter
from multiprocessing import util
from pathlib import Path
from typing import Iterator

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
ANONYMOUS = {ast.Lambda: "<lambda>", ast.GeneratorExp: "<genexpr>"}


def index() -> dict:
    """``(path, first line, co_name) -> "module:qualname"`` for every code
    object under ``src/repro`` that a call can enter; the first line is the
    first decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node: ast.AST, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if "Protocol" not in [ast.unparse(base) for base in child.bases]:
                    walk(child, module, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, *ANONYMOUS)):
                name = ANONYMOUS.get(type(child)) or child.name
                decorators = getattr(child, "decorator_list", [])
                first = min(n.lineno for n in [child, *decorators])
                found[(path, first, name)] = f"{module}:{prefix}{name}"
                walk(child, module, path, prefix + name + ".<locals>.")
            else:
                walk(child, module, path, prefix)

    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, module.removesuffix(".__init__"), os.path.realpath(path), "")
    return found


def _names(raw: Counter, names: dict) -> Counter:
    calls: Counter = Counter()
    for code, count in raw.items():
        path = os.path.realpath(code.co_filename)
        if path.startswith(str(SOURCE) + os.sep) and code.co_name not in INLINED:
            key = (path, code.co_firstlineno, code.co_name)
            calls[names.get(key, "?%s:%d:%s" % key)] += count
    return calls


@contextlib.contextmanager
def counting(names: dict) -> Iterator[Counter]:
    """Count the ``call`` events of the block, its forked workers' included;
    the yielded ``Counter`` is filled when the block exits."""
    raw, calls = Counter(), Counter()  # by code object; by name, at exit

    def profile(frame, event, arg):
        if event == "call":
            raw[frame.f_code] += 1

    def write_worker_counts() -> None:
        sys.setprofile(None)
        with tempfile.NamedTemporaryFile("w", dir=scratch, delete=False) as out:
            json.dump(_names(raw, names), out)

    def after_fork(_: Counter) -> None:
        if sys.getprofile() is profile:
            raw.clear()
            util.Finalize(raw, write_worker_counts, exitpriority=0)

    with tempfile.TemporaryDirectory() as scratch:
        util.register_after_fork(raw, after_fork)
        sys.setprofile(profile)
        try:
            yield calls
        finally:
            sys.setprofile(None)
            calls.update(_names(raw, names))
            for path in Path(scratch).iterdir():
                calls.update(json.loads(path.read_text()))
