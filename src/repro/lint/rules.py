"""The determinism rule set: per-file DET001..DET005, project-scope
DET010..DET012 and VEC001..VEC004.

The per-file rules are AST passes over one module.  Rules resolve
imported names through the module's import table, so ``from time import
perf_counter`` and ``import time as t`` are caught the same way as the
plain spelling.  The project-scope rules consume the phase-1 facts of
:mod:`repro.lint.facts` -- merged across every linted file -- so they
can see whole-program invariants no single file reveals.

Why the per-file five exist: the reproduction's correctness story is the
golden-trace harness -- every strategy's full event trace must be
bit-identical across runs, machines and worker counts.  Each rule bans
one way that property has historically been lost in discrete-event
simulators:

- **DET001** wall clocks leak real time into simulated time.
- **DET002** the global :mod:`random` generator is shared, unseeded
  process state; only named seeded streams are reproducible.
- **DET003** set iteration order depends on string-hash salting
  (``PYTHONHASHSEED``), so any set that feeds scheduling or output must
  pass through ``sorted()`` first.
- **DET004** environment variables, the filesystem and the OS entropy
  pool are inputs the trace cannot replay.
- **DET005** strategy/experiment factories cross the process boundary
  into the parallel engine; frozen dataclasses are the picklable,
  hash-stable shape PR 3 standardised on.

(Mutable default arguments are ruff ``B006``'s job -- selected and
blocking in the same CI job over the same tree -- not a rule here.)

The stream-lineage family guards the `RandomStreams.derive_seed`
discipline the vector tier's bit-exactness hangs on:

- **DET010** the same resolved stream key derived from two distinct
  ``(module, function)`` sites silently *correlates* subsystems that
  believe they are independent.
- **DET011** an RNG constructed from a constant or ambient seed sits
  outside the root-seed lineage entirely.
- **DET012** a literal (non-parameterized) key derived inside a loop or
  per-index helper re-creates the *same* stream per iteration where an
  ``{index}``-style f-string is required.

The vectorization-safety family (scoped to ``repro.megasim``) bans the
numpy idioms whose result depends on sort stability, first-occurrence
bookkeeping or container iteration order:

- **VEC001** ``argsort`` without ``kind="stable"`` breaks ties by
  implementation detail (``lexsort`` is stable by spec and passes).
- **VEC002** the legacy process-global ``np.random.*`` API is the
  vectorized twin of DET002.
- **VEC003** treating a positional companion of ``np.unique`` as
  first-occurrence indices requires ``return_index=True``.
- **VEC004** a numpy operand built from set/dict iteration has
  arbitrary element order (the vectorized twin of DET003).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.facts import (
    FileFacts,
    NumpySite,
    StreamSite,
    collect_facts_for_module,
    dotted_name as _dotted,
    import_table as _import_table,
    in_scope as _in_scope,
    resolve_name,
)
from repro.lint.findings import Finding, Location

#: Modules (dotted-prefix match) that make up the deterministic sim core.
#: DET004 applies only here: the experiment/metrics/CLI layers legitimately
#: read model files and write results.
CORE_MODULES: Tuple[str, ...] = (
    "repro.sim",
    "repro.runtime",
    "repro.gossip",
    "repro.scheduler",
    "repro.strategies",
    "repro.network",
    "repro.membership",
    "repro.failures",
    "repro.baselines",
    "repro.megasim",
)

#: The one sanctioned user of ``multiprocessing.shared_memory`` inside
#: the core scope.  Creating a segment draws a random OS-level name
#: (``/psm_...``) -- ambient entropy by DET004's definition -- but the
#: arena's names are pure transport: they ship the environment to
#: workers and never reach a simulated result, which the dispatch
#: byte-equality suite checks directly.
SHARED_MEMORY_ALLOWLIST: Tuple[str, ...] = ("repro.megasim.arena",)

#: Modules exempt from DET001: measurement harnesses that time the *real*
#: world on purpose (benchmark drivers, the parallel engine's wall-clock
#: progress reporting).  Simulated time never flows through these.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "repro.experiments.parallel",
    "benchmarks",
)


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    def __init__(self, module: str, path: str, tree: ast.AST, source: str) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.source = source
        self.aliases = _import_table(tree)
        self._facts: Optional[FileFacts] = None

    @property
    def facts(self) -> FileFacts:
        """The module's phase-1 facts, collected once on first use."""
        if self._facts is None:
            self._facts = collect_facts_for_module(
                self.module, self.path, self.tree, self.aliases
            )
        return self._facts


#: Shared AST helpers live in repro.lint.facts; the alias keeps the
#: historical private name rules have always used.
_resolve = resolve_name


class Rule:
    """Base class: a rule id, a summary and an AST check."""

    rule_id: str = ""
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


class WallClockRule(Rule):
    """DET001: no wall-clock reads in deterministic code."""

    rule_id = "DET001"
    summary = (
        "wall-clock call in deterministic code; use sim.now / simulated "
        "timers instead"
    )

    BANNED: Set[str] = {
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
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _in_scope(ctx.module, WALL_CLOCK_ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve(node.func, ctx.aliases)
            if resolved in self.BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {resolved}() is nondeterministic; "
                    "read simulated time from the Simulator",
                )


class GlobalRandomRule(Rule):
    """DET002: the module-level random generator is banned."""

    rule_id = "DET002"
    summary = (
        "call into the global random generator; use a seeded "
        "random.Random(seed) or a sim.rng stream"
    )

    #: The only attribute of the random module that may be *called*:
    #: constructing an explicitly seeded instance.
    ALLOWED = {"random.Random"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve(node.func, ctx.aliases)
            if resolved is None or resolved in self.ALLOWED:
                continue
            head, _, rest = resolved.partition(".")
            if head != "random" or not rest:
                continue
            # Only flag direct uses of the module itself, not methods on
            # an instance that happens to shadow the name.
            func = node.func
            receiver = func.value if isinstance(func, ast.Attribute) else func
            if isinstance(func, ast.Attribute) and not isinstance(
                receiver, (ast.Name, ast.Attribute)
            ):
                continue
            yield self.finding(
                ctx,
                node,
                f"{resolved}() draws from the process-global generator; "
                "pass an explicitly seeded random.Random or use sim.rng",
            )


class UnsortedSetIterationRule(Rule):
    """DET003: iterating a set without sorted() first.

    CPython string hashing is salted per process (PYTHONHASHSEED), so the
    iteration order of any set containing strings -- and, transitively,
    any list built from one -- varies across runs.  The rule tracks
    set-typed locals by simple same-scope dataflow and flags:

    - ``for x in <set-expr>`` and comprehension iteration, and
    - ``list()/tuple()/iter()/enumerate()`` applied to a set expression
      (order laundering: the arbitrary order escapes into a sequence).

    ``sorted(<set-expr>)`` is the sanctioned escape hatch; order-free
    reductions (``len``, ``sum``, ``min``, ``max``, ``any``, ``all``,
    membership tests) are untouched.
    """

    rule_id = "DET003"
    summary = "iteration over an unordered set; wrap it in sorted(...)"

    _LAUNDER = {"list", "tuple", "iter", "enumerate"}
    _SET_METHODS = {
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "copy",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._visit_scope(ctx, ctx.tree, {}, findings)
        yield from findings

    # -- scope walk --------------------------------------------------

    def _visit_scope(
        self,
        ctx: ModuleContext,
        scope_node: ast.AST,
        outer: Dict[str, bool],
        findings: List[Finding],
    ) -> None:
        """Walk one lexical scope, tracking which locals hold sets."""
        setish: Dict[str, bool] = dict(outer)
        body = getattr(scope_node, "body", [])
        for stmt in body:
            self._visit_stmt(ctx, stmt, setish, findings)

    def _visit_stmt(
        self,
        ctx: ModuleContext,
        stmt: ast.stmt,
        setish: Dict[str, bool],
        findings: List[Finding],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_expr_children(ctx, stmt, setish, findings, skip_body=True)
            self._visit_scope(ctx, stmt, setish, findings)
            return
        if isinstance(stmt, ast.ClassDef):
            self._visit_scope(ctx, stmt, setish, findings)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(ctx, stmt.value, setish, findings)
            is_set = self._is_setish(stmt.value, setish)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    setish[target.id] = is_set
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._scan_expr(ctx, stmt.value, setish, findings)
            if isinstance(stmt.target, ast.Name):
                setish[stmt.target.id] = self._is_setish(stmt.value, setish)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self._is_setish(stmt.iter, setish):
                findings.append(
                    self.finding(
                        ctx,
                        stmt.iter,
                        "iterating a set in arbitrary order; "
                        "wrap the iterable in sorted(...)",
                    )
                )
            else:
                self._scan_expr(ctx, stmt.iter, setish, findings)
            for part in stmt.body + stmt.orelse:
                self._visit_stmt(ctx, part, setish, findings)
            return
        # Generic statement: scan nested expressions, recurse into any
        # statement bodies (if/while/with/try).
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(ctx, child, setish, findings)
            elif isinstance(child, ast.expr):
                self._scan_expr(ctx, child, setish, findings)
            else:
                for sub in ast.walk(child):
                    if isinstance(sub, ast.stmt):
                        self._visit_stmt(ctx, sub, setish, findings)
                        break
                else:
                    continue

    def _scan_expr_children(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        setish: Dict[str, bool],
        findings: List[Finding],
        skip_body: bool = False,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if skip_body and isinstance(child, ast.stmt):
                continue
            if isinstance(child, ast.expr):
                self._scan_expr(ctx, child, setish, findings)

    def _scan_expr(
        self,
        ctx: ModuleContext,
        node: ast.expr,
        setish: Dict[str, bool],
        findings: List[Finding],
    ) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._LAUNDER
                    and sub.args
                    and self._is_setish(sub.args[0], setish)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            sub,
                            f"{func.id}() of a set leaks arbitrary iteration "
                            "order; use sorted(...) instead",
                        )
                    )
            elif isinstance(
                sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in sub.generators:
                    if self._is_setish(gen.iter, setish):
                        findings.append(
                            self.finding(
                                ctx,
                                gen.iter,
                                "comprehension iterates a set in arbitrary "
                                "order; wrap the iterable in sorted(...)",
                            )
                        )

    # -- set-expression predicate ------------------------------------

    def _is_setish(self, node: ast.expr, setish: Dict[str, bool]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return setish.get(node.id, False)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._SET_METHODS
                and self._is_setish(func.value, setish)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left, setish) or self._is_setish(
                node.right, setish
            )
        return False


class EnvironmentReadRule(Rule):
    """DET004: no ambient-environment reads inside the sim core."""

    rule_id = "DET004"
    summary = (
        "environment/filesystem/entropy read in the sim core; inject the "
        "value through configuration instead"
    )

    BANNED_CALLS: Set[str] = {
        "os.getenv",
        "os.putenv",
        "os.urandom",
        "os.getrandom",
        "io.open",
        "uuid.uuid1",
        "uuid.uuid4",
        "socket.gethostname",
        "platform.node",
    }
    BANNED_PREFIXES: Tuple[str, ...] = ("secrets.",)
    #: Banned like the calls above -- segment creation draws a random
    #: OS name -- but exempt inside :data:`SHARED_MEMORY_ALLOWLIST`.
    SHARED_MEMORY_CALLS: Set[str] = {
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _in_scope(ctx.module, CORE_MODULES):
            return
        shm_exempt = _in_scope(ctx.module, SHARED_MEMORY_ALLOWLIST)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                resolved = _resolve(node.func, ctx.aliases)
                if resolved is None:
                    continue
                if resolved in self.SHARED_MEMORY_CALLS:
                    if not shm_exempt:
                        yield self.finding(
                            ctx,
                            node,
                            f"{resolved}() creates an OS-named shared "
                            "segment (ambient /psm_* name); only the "
                            "megasim arena may own segments",
                        )
                elif resolved == "open":
                    yield self.finding(
                        ctx,
                        node,
                        "open() in the sim core reads the real filesystem; "
                        "load data in the experiment layer and pass it in",
                    )
                elif resolved in self.BANNED_CALLS or resolved.startswith(
                    self.BANNED_PREFIXES
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{resolved}() reads ambient process state the "
                        "golden traces cannot replay",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                resolved = _resolve(node, ctx.aliases)
                if resolved == "os.environ":
                    yield self.finding(
                        ctx,
                        node,
                        "os.environ read in the sim core; environment "
                        "lookups belong in the CLI/experiment layer",
                    )


class UnfrozenFactoryRule(Rule):
    """DET005: factories shipped to the parallel engine must be frozen.

    The parallel engine pickles :class:`ExperimentSpec` payloads into
    worker processes.  PR 3 standardised every strategy/experiment
    factory as a frozen dataclass: frozen means hashable, comparable and
    safe to share; a mutable factory could diverge between parent and
    worker after dispatch.  The rule flags any dataclass that defines
    ``__call__`` (the factory protocol) or is named ``*Factory`` but is
    not declared ``frozen=True``.
    """

    rule_id = "DET005"
    summary = "factory dataclass must be @dataclass(frozen=True)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorated = self._dataclass_decorator(node, ctx)
            if decorated is None:
                continue
            decorator, frozen = decorated
            if frozen:
                continue
            is_factory = node.name.endswith("Factory") or any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__call__"
                for item in node.body
            )
            if is_factory:
                yield self.finding(
                    ctx,
                    decorator,
                    f"factory dataclass {node.name} is not frozen; the "
                    "parallel engine requires frozen (picklable, "
                    "hash-stable) factories",
                )

    def _dataclass_decorator(
        self, node: ast.ClassDef, ctx: ModuleContext
    ) -> Optional[Tuple[ast.AST, bool]]:
        """Return (decorator node, frozen?) if the class is a dataclass."""
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            resolved = _resolve(target, ctx.aliases)
            if resolved not in {"dataclass", "dataclasses.dataclass"}:
                continue
            frozen = False
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if keyword.arg == "frozen":
                        frozen = (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        )
            return decorator, frozen
        return None


#: Modules (dotted-prefix match) the vectorization-safety rules apply
#: to: the struct-of-arrays scale tier, where every tie-break and
#: operand ordering feeds a bit-exact differential against the event
#: kernel.
VECTOR_MODULES: Tuple[str, ...] = ("repro.megasim",)


class ProjectRule(Rule):
    """A rule over the merged project-wide fact set (phase 2).

    The engine runs :meth:`check_project` once over every linted file's
    facts.  :meth:`check` keeps the single-file entry points
    (``lint_source``/``lint_file``) working by treating the one module
    as a one-file project.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self.check_project((ctx.facts,))

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def site_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        related: Tuple[Location, ...] = (),
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.rule_id,
            message=message,
            related=related,
        )


class StreamCollisionRule(ProjectRule):
    """DET010: every resolved stream key must be globally unique.

    Two modules both deriving ``"failures"`` receive the *same* seeded
    generator sequence -- subsystems that believe they are independent
    become bit-for-bit correlated, exactly the failure class the
    loss-stream-independence tests probe dynamically.  Keys collide on
    their normalised pattern (placeholders reduced to ``{}``), so
    ``f"node.{i}"`` and ``f"node.{node}"`` are the same key; a key is a
    collision when it is derived from two or more distinct
    ``(module, function)`` sites (re-deriving within one function is a
    legal idiom).
    """

    rule_id = "DET010"
    summary = (
        "stream key derived at multiple distinct (module, function) "
        "sites; stream names must be globally unique"
    )

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        by_key: Dict[str, List[StreamSite]] = {}
        for file_facts in facts:
            for site in file_facts.streams:
                if site.dynamic:
                    continue
                by_key.setdefault(site.key, []).append(site)
        for key in sorted(by_key):
            sites = sorted(by_key[key])
            owners = len({(s.module, s.function) for s in sites})
            if owners < 2:
                continue
            primary = sites[0]
            related = tuple(
                Location(s.path, s.line, s.col) for s in sites[1:]
            )
            yield self.site_finding(
                primary.path,
                primary.line,
                primary.col,
                f'stream key "{primary.pattern}" is derived from {owners} '
                "distinct functions; a shared key silently correlates "
                "subsystems that expect independent streams",
                related=related,
            )


class RngLineageRule(ProjectRule):
    """DET011: every RNG must descend from the root-seed lineage.

    A generator seeded with a literal constant, with ambient process
    state (wall clock, entropy pool) or with nothing at all sits outside
    ``RandomStreams.derive_seed``/``spawn`` entirely: constants correlate
    every instance built from the same literal, ambient values make the
    trace unreplayable.  Seeds that provably flow from a
    ``derive_seed``/``spawn`` call (directly or through a same-scope
    local, as in DET003's dataflow) pass; parameters and other untracked
    expressions are given the benefit of the doubt.
    """

    rule_id = "DET011"
    summary = (
        "RNG constructed from a constant or ambient seed instead of a "
        "derive_seed/spawn lineage"
    )

    _REASONS = {
        "constant": "is seeded with a literal constant",
        "ambient": "is seeded from ambient process state",
        "missing": "is constructed without a seed (OS-entropy seeded)",
    }

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.rngs:
                reason = self._REASONS.get(site.lineage)
                if reason is None:
                    continue
                yield self.site_finding(
                    site.path,
                    site.line,
                    site.col,
                    f"{site.constructor}() {reason}; derive the seed "
                    "from RandomStreams.derive_seed/spawn so the "
                    "generator joins the root-seed lineage",
                )


class UnparameterizedStreamRule(ProjectRule):
    """DET012: stream keys derived per iteration must embed the index.

    A literal key inside a loop (or inside a per-index helper -- a
    function taking an ``index``-like parameter) re-derives the *same*
    stream on every iteration, so logically independent draws share one
    sequence.  The fix is an ``{index}``-style f-string, as in
    ``megasim.message.{index}``.
    """

    rule_id = "DET012"
    summary = (
        "literal stream key derived inside a loop or per-index helper; "
        "parameterize it with the index"
    )

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.streams:
                if site.dynamic or site.parameterized:
                    continue
                if site.in_loop:
                    where = "inside a loop"
                elif site.index_param:
                    where = (
                        f"in per-index helper {site.function}() "
                        f"(parameter {site.index_param!r})"
                    )
                else:
                    continue
                placeholder = site.index_param or "index"
                yield self.site_finding(
                    site.path,
                    site.line,
                    site.col,
                    f'literal stream key "{site.pattern}" derived {where} '
                    "re-creates the same stream per iteration; "
                    f'parameterize it (f"{site.pattern}.{{{placeholder}}}")',
                )


class _VectorRule(ProjectRule):
    """Base for the vectorization-safety family: scoped to the numpy
    scale tier, judged from the collected numpy call facts."""

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            if not _in_scope(file_facts.module, VECTOR_MODULES):
                continue
            for site in file_facts.numpy:
                finding = self.check_site(site)
                if finding is not None:
                    yield finding

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        raise NotImplementedError


class UnstableSortRule(_VectorRule):
    """VEC001: ``argsort`` must pin ``kind="stable"``.

    The default introsort orders the *indices* of equal keys by
    implementation detail.  Value sorts pass: equal values come back
    indistinguishable (float ``+-0.0`` aside).  ``lexsort`` is stable.
    """

    rule_id = "VEC001"
    summary = 'numpy argsort without kind="stable"'

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "argsort" or site.stable:
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f'{site.func}() without kind="stable" breaks ties in '
            "implementation-defined order; pass kind=\"stable\" so equal "
            "keys keep their input order",
        )


class LegacyNumpyRandomRule(_VectorRule):
    """VEC002: the legacy global ``np.random.*`` API is banned.

    ``np.random.seed``/``rand``/``randint``/... share one hidden global
    generator, the vectorized twin of DET002.  Only the explicitly
    seeded constructors (``default_rng``, ``Generator``, bit
    generators, ``SeedSequence``) are allowed.
    """

    rule_id = "VEC002"
    summary = "call into the legacy global numpy.random API"

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "legacy-random":
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f"{site.func}() draws from numpy's process-global legacy "
            "generator; use numpy.random.default_rng(derive_seed(...)) "
            "streams instead",
        )


class UniquePositionalRule(_VectorRule):
    """VEC003: positional companions of ``np.unique`` need
    ``return_index=True``.

    ``np.unique`` returns optional companion arrays in flag order; code
    that unpacks a companion and uses it as a subscript index is
    selecting *positions*, which is only first-occurrence-correct when
    ``return_index=True`` was actually requested (otherwise the
    companion is an inverse or a count array, silently wrong as an
    index).
    """

    rule_id = "VEC003"
    summary = (
        "np.unique companion used for positional selection without "
        "return_index=True"
    )

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "unique" or site.return_index or not site.positional_use:
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            "a positional companion of numpy.unique() is used as a "
            "subscript index but return_index=True was not requested; "
            "first-occurrence selection must ask for the index array "
            "explicitly",
        )


class SetOperandRule(_VectorRule):
    """VEC004: numpy operands must not be built from set/dict iteration.

    ``np.array(some_set)`` (or a ``list()``-laundered set, or a dict
    view) materialises elements in arbitrary hash order; any mask or
    reduction built from it inherits that order.  The vectorized twin of
    DET003 -- sort the elements first.
    """

    rule_id = "VEC004"
    summary = "numpy operand built from unordered set/dict iteration"

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "set-operand":
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f"{site.func}() operand is built from unordered set/dict "
            "iteration, so element order varies per process; wrap the "
            "elements in sorted(...) first",
        )


#: The registry, in rule-id order.  The CLI, the pytest gate and the CI
#: job all consume this single list.
RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRandomRule(),
    UnsortedSetIterationRule(),
    EnvironmentReadRule(),
    UnfrozenFactoryRule(),
    StreamCollisionRule(),
    RngLineageRule(),
    UnparameterizedStreamRule(),
    UnstableSortRule(),
    LegacyNumpyRandomRule(),
    UniquePositionalRule(),
    SetOperandRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}
