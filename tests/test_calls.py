"""The call ledger's index names code objects as CPython's ``co_qualname``."""

from __future__ import annotations

import inspect
import re
import sys
from types import CodeType
from typing import Iterator

import pytest

from tests import calls


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every function, lambda and generator expression compiled in ``code``."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is 3.11+")
def test_index_names_every_function_as_co_qualname() -> None:
    names = calls.index()
    for path in sorted(calls.SOURCE.rglob("*.py")):
        parts = path.relative_to(calls.SOURCE.parent).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        compiled = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _functions(compiled):
            if code.co_name in calls.INLINED:
                continue
            # CPython 3.11 keeps a comprehension's frame in the qualname of
            # what it defines; 3.12 inlines the comprehension (PEP 709).
            qualname = re.sub(r"<(list|dict|set)comp>\.(<locals>\.)?", "",
                              code.co_qualname)
            name = names.get((str(path), code.co_firstlineno, code.co_name))
            if name is None:
                owner = qualname.split(".")[0]
                cls = getattr(pytest.importorskip(module), owner)
                assert getattr(cls, "_is_protocol", False), f"{module}:{qualname}"
            else:
                assert name == f"{module}:{qualname}"
