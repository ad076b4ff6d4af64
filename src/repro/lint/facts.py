"""Fact collection: one AST walk per file, structured facts out.

Every rule judges facts, never a syntax tree.  Some rules need the
whole tree at once -- a stream-name collision is invisible from either
of its two call sites -- and the rest read one file's facts at a time,
so, following the paper's own move (global structure derived from
purely local rules), the engine splits linting into

1. **collect** -- this module.  Each file is walked exactly once and
   reduced to a :class:`FileFacts` record: every RNG stream-name call
   site (with its resolved literal/f-string pattern and loop context),
   every RNG constructor site (with the seed's dataflow lineage), every
   determinism-relevant numpy call site, every resolved call to a banned
   wall-clock, global-random or ambient name (and every ``os.environ``
   load), every iteration or sequence launder of a set, and every
   dataclass factory declaration.
2. **analyze** -- the rules in :mod:`repro.lint.rules` run over the
   merged, sorted fact set and emit findings that may span files.

Facts are frozen and totally ordered so the analyze phase -- and the
generated stream manifest -- cannot depend on filesystem walk order.

Pattern resolution: a stream key that is a string literal resolves to
itself (``pattern == key``); an f-string resolves each ``{...}``
placeholder to the placeholder's expression text in ``pattern`` (for the
human-readable manifest) and to a bare ``{}`` in ``key`` (so
``f"node.{i}"`` and ``f"node.{node}"`` collide); anything else --
a variable, a concatenation -- is *dynamic* and exempt from the
pattern-level rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Method names that name-derive an RNG stream (see repro/sim/rng.py).
STREAM_METHODS: Tuple[str, ...] = ("stream", "derive_seed", "spawn")

#: Resolved callables that construct an RNG from a seed argument.
RNG_CONSTRUCTORS: Tuple[str, ...] = (
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
)

#: numpy bit generators: ``Generator(PCG64(seed))`` -- lineage recurses
#: through these into their own seed argument.
NUMPY_BIT_GENERATORS: Tuple[str, ...] = (
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
)

#: The modern, explicitly-seeded corner of ``numpy.random``.  Everything
#: else under that namespace is the legacy process-global API (VEC002).
NUMPY_RANDOM_ALLOWED: Tuple[str, ...] = (
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
) + tuple(name.rsplit(".", 1)[1] for name in NUMPY_BIT_GENERATORS)

#: Wall-clock reads (DET001).
WALL_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Reads of the OS entropy pool.  Like every ``secrets.*`` call, they
#: are banned in the sim core (DET004) and never a valid seed (DET011).
ENTROPY_CALLS: Tuple[str, ...] = (
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: Ambient-environment reads banned in the sim core (DET004), besides
#: ``open()``, ``secrets.*`` and ``os.environ`` loads.
ENVIRONMENT_CALLS: Tuple[str, ...] = ENTROPY_CALLS + (
    "os.getenv",
    "os.putenv",
    "io.open",
    "socket.gethostname",
    "platform.node",
)

#: Banned in the sim core like the calls above -- segment creation draws
#: a random OS name -- except in the megasim arena (DET004).
SHARED_MEMORY_CALLS: Tuple[str, ...] = (
    "multiprocessing.shared_memory.SharedMemory",
    "multiprocessing.shared_memory.ShareableList",
)

#: Calls whose return value is ambient process state (never a valid
#: seed): wall clocks, the OS entropy pool, ``secrets.*`` and the pid.
AMBIENT_SEED_CALLS: Tuple[str, ...] = (
    WALL_CLOCK_CALLS + ENTROPY_CALLS + ("os.getpid",)
)

#: Every resolved name a :class:`NameSite` records; ``random.*`` (bar
#: ``random.Random``) and ``secrets.*`` are matched by prefix.
_BANNED_NAMES = frozenset(
    WALL_CLOCK_CALLS + ENVIRONMENT_CALLS + SHARED_MEMORY_CALLS + ("open",)
)

#: Calls that launder a set's arbitrary order into a sequence (DET003).
SET_LAUNDERS: Tuple[str, ...] = ("list", "tuple", "iter", "enumerate")

#: Methods whose result on a set is again a set.
_SET_METHODS: Tuple[str, ...] = (
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: Parameter names that mark a "per-index helper": a function called
#: once per message/node/slot whose stream key must embed that index.
INDEX_PARAM_NAMES: Tuple[str, ...] = ("index", "idx", "i")


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------


def import_table(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import time as t`` yields ``{"t": "time"}``;
    ``from datetime import datetime as dt`` yields
    ``{"dt": "datetime.datetime"}``.  Relative imports resolve to their
    bare module text (good enough for stdlib/numpy detection, which is
    all the rules ban).
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                origin = name.name if name.asname else name.name.split(".")[0]
                table[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                table[local] = f"{node.module}.{name.name}"
    return table


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``, or None for anything
    more dynamic (subscripts, calls, literals)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of ``node`` with its head mapped through the import
    table, e.g. ``np.unique`` -> ``numpy.unique``."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def in_scope(module: str, prefixes: Sequence[str]) -> bool:
    """True when ``module`` is, or is a submodule of, any dotted prefix."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


# ---------------------------------------------------------------------------
# Fact records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Site:
    """A source position; every fact record starts with one."""

    path: str
    line: int
    col: int


@dataclass(frozen=True, order=True)
class StreamSite(Site):
    """One ``.stream(...)`` / ``.derive_seed(...)`` / ``.spawn(...)``
    call site."""

    module: str
    #: Dotted qualname of the enclosing function (``"<module>"`` at top
    #: level, ``"Cluster._build_nodes"`` inside a method).
    function: str
    kind: str  # "stream" | "derive_seed" | "spawn"
    #: Human-readable resolved key, e.g. ``"node.{node}"``.  Empty when
    #: dynamic.
    pattern: str
    #: Collision key: placeholders normalised to ``{}`` so differently
    #: named index variables still collide.  ``spawn`` keys are prefixed
    #: ``spawn:`` (matching RandomStreams.spawn's own derivation), so a
    #: spawned namespace never collides with a plain stream of the same
    #: name.  Empty when dynamic.
    key: str
    #: True when the key embeds at least one ``{...}`` placeholder.
    parameterized: bool
    #: True when the key could not be resolved statically (a variable,
    #: concatenation, call result, ...).  Dynamic sites are recorded for
    #: completeness but exempt from the pattern-level rules.
    dynamic: bool
    #: True when the call sits inside a loop or comprehension body.
    in_loop: bool
    #: Name of the enclosing function's index-like parameter (one of
    #: INDEX_PARAM_NAMES), or "" -- marks a per-index helper.
    index_param: str


@dataclass(frozen=True, order=True)
class RngSite(Site):
    """One RNG-constructor call site with its seed's dataflow lineage."""

    module: str
    function: str
    constructor: str  # resolved callable, e.g. "random.Random"
    #: "derived"  -- seed provably flows from derive_seed/spawn,
    #: "constant" -- a literal constant seed,
    #: "ambient"  -- a wall clock / entropy-pool read,
    #: "missing"  -- no seed argument at all (OS-entropy seeded),
    #: "unknown"  -- a parameter or other untracked expression.
    lineage: str


@dataclass(frozen=True, order=True)
class NumpySite(Site):
    """One determinism-relevant numpy call site."""

    module: str
    #: "argsort" | "lexsort" | "unique" | "legacy-random"
    #: | "set-operand"
    op: str
    #: The resolved callable text (``numpy.argsort``, ``numpy.random.rand``,
    #: ``.argsort`` for the method form).
    func: str
    #: argsort/lexsort: a stable order is guaranteed
    #: (``kind="stable"`` present, or lexsort which is stable by spec).
    stable: bool = False
    #: unique: ``return_index=True`` was passed.
    return_index: bool = False
    #: unique: a positional companion of the result (second or later
    #: unpack target) is later used as a subscript index.
    positional_use: bool = False


@dataclass(frozen=True, order=True)
class NameSite(Site):
    """A resolved banned name: a call to a wall-clock, global-random
    (``random.*`` other than ``random.Random``) or ambient-environment
    callable, or an ``os.environ`` load.  Names resolve only through
    plain Name/Attribute chains, so a method on a computed receiver that
    shadows a module name is never recorded."""

    name: str


@dataclass(frozen=True, order=True)
class SetOrderSite(Site):
    """A set whose arbitrary order escapes: iterated by a ``for`` loop
    (``form == "for"``) or a comprehension (``"comprehension"``), or
    laundered into a sequence (``"list"``, ``"tuple"``, ``"iter"``,
    ``"enumerate"``)."""

    form: str


@dataclass(frozen=True, order=True)
class FactorySite(Site):
    """A dataclass factory declaration (the class defines ``__call__``
    or is named ``*Factory``), located at its dataclass decorator."""

    name: str
    frozen: bool


@dataclass(frozen=True, order=True)
class FileFacts:
    """Everything the rules need to know about one file."""

    path: str
    module: str
    streams: Tuple[StreamSite, ...] = field(default_factory=tuple)
    rngs: Tuple[RngSite, ...] = field(default_factory=tuple)
    numpy: Tuple[NumpySite, ...] = field(default_factory=tuple)
    names: Tuple[NameSite, ...] = field(default_factory=tuple)
    set_orders: Tuple[SetOrderSite, ...] = field(default_factory=tuple)
    factories: Tuple[FactorySite, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# The collector: one walk, same-scope dataflow.
# ---------------------------------------------------------------------------


class _Scope:
    """Same-scope dataflow state, copied into nested scopes."""

    def __init__(self, outer: Optional["_Scope"] = None) -> None:
        self.setish: Dict[str, bool] = dict(outer.setish) if outer else {}
        self.derived: Dict[str, bool] = dict(outer.derived) if outer else {}
        #: unique-result companion name -> index of its numpy site.
        self.companions: Dict[str, int] = (
            dict(outer.companions) if outer else {}
        )


class FactCollector:
    """Single-pass fact extraction over one module's AST."""

    def __init__(self, module: str, path: str, aliases: Dict[str, str]) -> None:
        self.module = module
        self.path = path
        self.aliases = aliases
        self.streams: List[StreamSite] = []
        self.rngs: List[RngSite] = []
        self.numpy: List[NumpySite] = []
        self.names: List[NameSite] = []
        self.set_orders: List[SetOrderSite] = []
        self.factories: List[FactorySite] = []
        self._qualname: List[str] = []
        self._index_param: List[str] = [""]
        self._loop_depth = 0
        self._last_unique: Optional[int] = None

    def collect(self, tree: ast.AST) -> FileFacts:
        scope = _Scope()
        self._walk_body(getattr(tree, "body", []), scope)
        return FileFacts(
            path=self.path,
            module=self.module,
            streams=tuple(sorted(self.streams)),
            rngs=tuple(sorted(self.rngs)),
            numpy=tuple(sorted(self.numpy)),
            names=tuple(sorted(self.names)),
            set_orders=tuple(sorted(self.set_orders)),
            factories=tuple(sorted(self.factories)),
        )

    # -- statement walk ----------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            self._stmt(stmt, scope)

    def _node(self, node: ast.AST, scope: _Scope) -> None:
        """Walk any node: statements and expressions get their own
        walks; anything else (arguments, handlers, with-items, match
        cases, patterns) only holds those."""
        if isinstance(node, ast.stmt):
            self._stmt(node, scope)
        elif isinstance(node, ast.expr):
            self._expr(node, scope)
        else:
            for child in ast.iter_child_nodes(node):
                self._node(child, scope)

    def _header(self, stmt: ast.stmt, scope: _Scope) -> None:
        """Walk a definition's decorators, arguments and bases -- every
        child but its body."""
        for child in ast.iter_child_nodes(stmt):
            if not isinstance(child, ast.stmt):
                self._node(child, scope)

    def _stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._header(stmt, scope)
            args = stmt.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            index_param = next(
                (p for p in params if p in INDEX_PARAM_NAMES), ""
            )
            self._qualname.append(stmt.name)
            self._index_param.append(index_param)
            saved_depth, self._loop_depth = self._loop_depth, 0
            self._walk_body(stmt.body, _Scope(scope))
            self._loop_depth = saved_depth
            self._index_param.pop()
            self._qualname.pop()
            return
        if isinstance(stmt, ast.ClassDef):
            self._header(stmt, scope)
            self._factory_site(stmt)
            self._qualname.append(stmt.name)
            self._walk_body(stmt.body, _Scope(scope))
            self._qualname.pop()
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            self._last_unique = None
            if value is not None:
                self._expr(value, scope)
            last_unique = self._last_unique
            for child in ast.iter_child_nodes(stmt):
                if child is not value:
                    self._node(child, scope)
            if isinstance(stmt, ast.AugAssign):
                # ``x op= v`` rebinds x to ``x op v``.
                value = ast.BinOp(stmt.target, stmt.op, stmt.value)
            if value is not None:
                targets: List[ast.expr]
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                else:
                    targets = [stmt.target]
                for target in targets:
                    self._bind(target, value, scope, last_unique)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, scope)
            if _is_setish(stmt.iter, scope):
                self._set_order(stmt.iter, "for")
            self._expr(stmt.target, scope)
            self._loop_depth += 1
            self._walk_body(stmt.body, scope)
            self._loop_depth -= 1
            self._walk_body(stmt.orelse, scope)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, scope)
            self._loop_depth += 1
            self._walk_body(stmt.body, scope)
            self._loop_depth -= 1
            self._walk_body(stmt.orelse, scope)
            return
        # Any other statement: its expressions, nested bodies (if/with/
        # try/match...) and the handlers, with-items and cases between.
        for child in ast.iter_child_nodes(stmt):
            self._node(child, scope)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        scope: _Scope,
        last_unique: Optional[int],
    ) -> None:
        if isinstance(target, ast.Name):
            scope.setish[target.id] = _is_setish(value, scope)
            scope.derived[target.id] = _is_derived_seed(value, scope)
            scope.companions.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            names = [
                elt.id for elt in target.elts if isinstance(elt, ast.Name)
            ]
            for name in names:
                scope.setish[name] = False
                scope.derived[name] = False
                scope.companions.pop(name, None)
            # ``vals, pos = np.unique(...)``: every non-first target is a
            # positional companion of the unique result.
            if last_unique is not None and len(target.elts) >= 2:
                for elt in target.elts[1:]:
                    if isinstance(elt, ast.Name):
                        scope.companions[elt.id] = last_unique

    # -- expression walk ---------------------------------------------

    def _expr(self, node: ast.expr, scope: _Scope) -> None:
        comp_call_ids = _comprehension_call_ids(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                in_loop = self._loop_depth > 0 or id(sub) in comp_call_ids
                self._call(sub, scope, in_loop)
            elif isinstance(sub, ast.Subscript):
                index = sub.slice
                if (
                    isinstance(index, ast.Name)
                    and index.id in scope.companions
                ):
                    position = scope.companions[index.id]
                    self.numpy[position] = replace(
                        self.numpy[position], positional_use=True
                    )
            elif isinstance(sub, ast.Attribute):
                if (
                    sub.attr == "environ"
                    and isinstance(sub.ctx, ast.Load)
                    and resolve_name(sub, self.aliases) == "os.environ"
                ):
                    self.names.append(
                        NameSite(self.path, sub.lineno, sub.col_offset, "os.environ")
                    )
            elif isinstance(sub, _COMPREHENSIONS):
                for generator in sub.generators:
                    if _is_setish(generator.iter, scope):
                        self._set_order(generator.iter, "comprehension")

    def _call(self, call: ast.Call, scope: _Scope, in_loop: bool) -> None:
        func = call.func
        resolved = resolve_name(func, self.aliases)
        if isinstance(func, ast.Attribute) and func.attr in STREAM_METHODS:
            self._stream_site(call, func.attr, in_loop)
        if (
            isinstance(func, ast.Name)
            and func.id in SET_LAUNDERS
            and call.args
            and _is_setish(call.args[0], scope)
        ):
            self._set_order(call, func.id)
        if resolved is None:
            if isinstance(func, ast.Attribute) and func.attr == "argsort":
                self._sort_site(call, "argsort", ".argsort")
            return
        if (
            (resolved.startswith("random.") and resolved != "random.Random")
            or resolved in _BANNED_NAMES
            or resolved.startswith("secrets.")
        ):
            self.names.append(
                NameSite(self.path, call.lineno, call.col_offset, resolved)
            )
        if resolved in RNG_CONSTRUCTORS:
            self._rng_site(call, resolved, scope)
        if resolved in ("numpy.argsort", "numpy.lexsort"):
            self._sort_site(call, resolved.rsplit(".", 1)[1], resolved)
        elif isinstance(func, ast.Attribute) and func.attr == "argsort":
            self._sort_site(call, "argsort", ".argsort")
        if resolved == "numpy.unique":
            self._last_unique = len(self.numpy)
            return_index = _keyword_constant(call, "return_index") is True
            self._record_numpy(
                call, "unique", "numpy.unique", return_index=return_index
            )
        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail and "." not in tail and tail not in NUMPY_RANDOM_ALLOWED:
                self._record_numpy(call, "legacy-random", resolved)
        if resolved in (
            "numpy.array",
            "numpy.asarray",
            "numpy.asanyarray",
            "numpy.fromiter",
            "numpy.isin",
        ):
            if any(_is_unordered_operand(arg, scope) for arg in call.args):
                self._record_numpy(call, "set-operand", resolved)

    # -- site recorders ----------------------------------------------

    def _stream_site(self, call: ast.Call, kind: str, in_loop: bool) -> None:
        key_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if key_expr is None:
            for keyword in call.keywords:
                if keyword.arg == "name":
                    key_expr = keyword.value
                    break
        if key_expr is None:
            return
        pattern, key, parameterized, dynamic = _key_pattern(key_expr)
        if not dynamic and kind == "spawn":
            key = f"spawn:{key}"
        self.streams.append(
            StreamSite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                function=self._function(),
                kind=kind,
                pattern=pattern,
                key=key,
                parameterized=parameterized,
                dynamic=dynamic,
                in_loop=in_loop,
                index_param=self._index_param[-1],
            )
        )

    def _rng_site(self, call: ast.Call, constructor: str, scope: _Scope) -> None:
        self.rngs.append(
            RngSite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                function=self._function(),
                constructor=constructor,
                lineage=_seed_lineage(call, scope, self.aliases),
            )
        )

    def _sort_site(self, call: ast.Call, op: str, func: str) -> None:
        # np.lexsort is stable by specification.
        stable = op == "lexsort" or _keyword_constant(call, "kind") == "stable"
        self._record_numpy(call, op, func, stable=stable)

    def _record_numpy(
        self,
        call: ast.Call,
        op: str,
        func: str,
        stable: bool = False,
        return_index: bool = False,
    ) -> None:
        self.numpy.append(
            NumpySite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                op=op,
                func=func,
                stable=stable,
                return_index=return_index,
            )
        )

    def _set_order(self, node: ast.expr, form: str) -> None:
        self.set_orders.append(
            SetOrderSite(self.path, node.lineno, node.col_offset, form)
        )

    def _factory_site(self, cls: ast.ClassDef) -> None:
        if not cls.name.endswith("Factory") and not any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__call__"
            for item in cls.body
        ):
            return
        for decorator in cls.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = decorator if call is None else call.func
            if resolve_name(target, self.aliases) in (
                "dataclass",
                "dataclasses.dataclass",
            ):
                frozen = call is not None and (
                    _keyword_constant(call, "frozen") is True
                )
                self.factories.append(
                    FactorySite(
                        self.path,
                        decorator.lineno,
                        decorator.col_offset,
                        cls.name,
                        frozen,
                    )
                )
                return

    def _function(self) -> str:
        return ".".join(self._qualname) if self._qualname else "<module>"


def collect_facts_for_module(
    module: str, path: str, tree: ast.AST, aliases: Optional[Dict[str, str]] = None
) -> FileFacts:
    """Collect one file's facts (the engine's collect-phase entry point)."""
    if aliases is None:
        aliases = import_table(tree)
    return FactCollector(module, path, aliases).collect(tree)


# ---------------------------------------------------------------------------
# Expression predicates.
# ---------------------------------------------------------------------------


def _keyword_constant(call: ast.Call, name: str) -> object:
    """The literal value of keyword argument ``name``, or None."""
    for keyword in call.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None


def _key_pattern(node: ast.expr) -> Tuple[str, str, bool, bool]:
    """Resolve a stream-key expression to (pattern, key, parameterized,
    dynamic)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.value, False, False
    if isinstance(node, ast.JoinedStr):
        pattern_parts: List[str] = []
        key_parts: List[str] = []
        parameterized = False
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                pattern_parts.append(part.value)
                key_parts.append(part.value)
            elif isinstance(part, ast.FormattedValue):
                parameterized = True
                name = dotted_name(part.value) or ""
                pattern_parts.append("{" + name + "}")
                key_parts.append("{}")
            else:  # pragma: no cover - f-strings only hold those two
                return "", "", False, True
        return "".join(pattern_parts), "".join(key_parts), parameterized, False
    return "", "", False, True


def _is_derived_seed(
    node: ast.expr, scope: _Scope
) -> bool:
    """True when the expression provably flows from derive_seed/spawn."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "derive_seed",
            "spawn",
        ):
            return True
        return False
    if isinstance(node, ast.Name):
        return scope.derived.get(node.id, False)
    if isinstance(node, ast.BinOp):
        return _is_derived_seed(node.left, scope) or _is_derived_seed(
            node.right, scope
        )
    return False


def _seed_lineage(
    call: ast.Call, scope: _Scope, aliases: Dict[str, str]
) -> str:
    seed: Optional[ast.expr] = call.args[0] if call.args else None
    if seed is None:
        for keyword in call.keywords:
            if keyword.arg in ("seed", "x"):
                seed = keyword.value
                break
    if seed is None:
        return "missing"
    return _lineage_of(seed, scope, aliases)


def _lineage_of(node: ast.expr, scope: _Scope, aliases: Dict[str, str]) -> str:
    if isinstance(node, ast.Call):
        resolved = resolve_name(node.func, aliases)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "derive_seed",
            "spawn",
        ):
            return "derived"
        if resolved is not None:
            if resolved in AMBIENT_SEED_CALLS or resolved.startswith("secrets."):
                return "ambient"
            if resolved in NUMPY_BIT_GENERATORS:
                # Generator(PCG64(seed)): judge the bit generator's own
                # seed argument.
                return _seed_lineage(node, scope, aliases)
        return "unknown"
    if isinstance(node, ast.Constant):
        return "constant"
    if isinstance(node, ast.Name):
        return "derived" if scope.derived.get(node.id, False) else "unknown"
    if isinstance(node, ast.BinOp):
        left = _lineage_of(node.left, scope, aliases)
        right = _lineage_of(node.right, scope, aliases)
        if "derived" in (left, right):
            return "derived"
        if left == "constant" and right == "constant":
            return "constant"
        return "unknown"
    return "unknown"


def _is_setish(node: ast.expr, scope: _Scope) -> bool:
    """True when the expression is a set: a literal or comprehension, a
    ``set()``/``frozenset()`` call, a set-typed local, a set method
    result (``a.union(b)``, ``a.copy()``, ...) or a set operator."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return scope.setish.get(node.id, False)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_setish(func.value, scope)
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish(node.left, scope) or _is_setish(node.right, scope)
    return False


def _is_unordered_operand(node: ast.expr, scope: _Scope) -> bool:
    """A numpy-operand expression whose element order is arbitrary: a
    set (directly or laundered through ``list()``/``tuple()``) or a dict
    view (``.keys()``/``.values()``/``.items()``)."""
    if _is_setish(node, scope):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "iter")
            and node.args
            and _is_unordered_operand(node.args[0], scope)
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            return True
    return False


def _comprehension_call_ids(node: ast.expr) -> Set[int]:
    """ids of Call nodes nested under any comprehension within ``node``
    (their bodies run once per element -- loop context)."""
    ids: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, _COMPREHENSIONS):
            for inner in ast.walk(sub):
                if isinstance(inner, ast.Call):
                    ids.add(id(inner))
    return ids
