"""The determinism rule set: per-file DET001..DET005, project-scope
DET010..DET012 and VEC001..VEC004.

Every rule has one shape: ``check(facts)`` over the merged, sorted
:class:`~repro.lint.facts.FileFacts` of every linted file, which the
collector in :mod:`repro.lint.facts` produces in one walk per file.
The per-file rules read one file's facts at a time; the project-scope
rules see whole-program invariants no single file reveals.  Names are
resolved through each module's import table, so ``from time import
perf_counter`` and ``import time as t`` are caught the same way as the
plain spelling.

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

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.facts import (
    ENVIRONMENT_CALLS,
    SHARED_MEMORY_CALLS,
    WALL_CLOCK_CALLS,
    FileFacts,
    NumpySite,
    Site,
    StreamSite,
    in_scope as _in_scope,
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


class Rule:
    """Base class: a rule id, a summary and a check over the merged,
    sorted fact set."""

    rule_id: str = ""
    summary: str = ""

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, site: Site, message: str, related: Tuple[Location, ...] = ()
    ) -> Finding:
        return Finding(
            path=site.path,
            line=site.line,
            col=site.col,
            rule=self.rule_id,
            message=message,
            related=related,
        )


class WallClockRule(Rule):
    """DET001: no wall-clock reads in deterministic code."""

    rule_id = "DET001"
    summary = (
        "wall-clock call in deterministic code; use sim.now / simulated "
        "timers instead"
    )

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            if _in_scope(file_facts.module, WALL_CLOCK_ALLOWLIST):
                continue
            for site in file_facts.names:
                if site.name in WALL_CLOCK_CALLS:
                    yield self.finding(
                        site,
                        f"wall-clock call {site.name}() is nondeterministic; "
                        "read simulated time from the Simulator",
                    )


class GlobalRandomRule(Rule):
    """DET002: the module-level random generator is banned; only
    constructing an explicitly seeded ``random.Random`` is allowed."""

    rule_id = "DET002"
    summary = (
        "call into the global random generator; use a seeded "
        "random.Random(seed) or a sim.rng stream"
    )

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.names:
                if site.name.startswith("random."):
                    yield self.finding(
                        site,
                        f"{site.name}() draws from the process-global "
                        "generator; pass an explicitly seeded random.Random "
                        "or use sim.rng",
                    )


class UnsortedSetIterationRule(Rule):
    """DET003: iterating a set without sorted() first.

    CPython string hashing is salted per process (PYTHONHASHSEED), so the
    iteration order of any set containing strings -- and, transitively,
    any list built from one -- varies across runs.  The collector tracks
    set-typed locals by simple same-scope dataflow and records:

    - ``for x in <set-expr>`` and comprehension iteration, and
    - ``list()/tuple()/iter()/enumerate()`` applied to a set expression
      (order laundering: the arbitrary order escapes into a sequence).

    ``sorted(<set-expr>)`` is the sanctioned escape hatch; order-free
    reductions (``len``, ``sum``, ``min``, ``max``, ``any``, ``all``,
    membership tests) are untouched.
    """

    rule_id = "DET003"
    summary = "iteration over an unordered set; wrap it in sorted(...)"

    _MESSAGES = {
        "for": "iterating a set in arbitrary order; "
        "wrap the iterable in sorted(...)",
        "comprehension": "comprehension iterates a set in arbitrary "
        "order; wrap the iterable in sorted(...)",
    }

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.set_orders:
                message = self._MESSAGES.get(site.form) or (
                    f"{site.form}() of a set leaks arbitrary iteration "
                    "order; use sorted(...) instead"
                )
                yield self.finding(site, message)


class EnvironmentReadRule(Rule):
    """DET004: no ambient-environment reads inside the sim core."""

    rule_id = "DET004"
    summary = (
        "environment/filesystem/entropy read in the sim core; inject the "
        "value through configuration instead"
    )

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            if not _in_scope(file_facts.module, CORE_MODULES):
                continue
            shm_exempt = _in_scope(file_facts.module, SHARED_MEMORY_ALLOWLIST)
            for site in file_facts.names:
                message = self._message(site.name, shm_exempt)
                if message is not None:
                    yield self.finding(site, message)

    @staticmethod
    def _message(name: str, shm_exempt: bool) -> Optional[str]:
        if name in SHARED_MEMORY_CALLS:
            if shm_exempt:
                return None
            return (
                f"{name}() creates an OS-named shared segment (ambient "
                "/psm_* name); only the megasim arena may own segments"
            )
        if name == "open":
            return (
                "open() in the sim core reads the real filesystem; "
                "load data in the experiment layer and pass it in"
            )
        if name == "os.environ":
            return (
                "os.environ read in the sim core; environment "
                "lookups belong in the CLI/experiment layer"
            )
        if name in ENVIRONMENT_CALLS or name.startswith("secrets."):
            return (
                f"{name}() reads ambient process state the "
                "golden traces cannot replay"
            )
        return None


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

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.factories:
                if not site.frozen:
                    yield self.finding(
                        site,
                        f"factory dataclass {site.name} is not frozen; the "
                        "parallel engine requires frozen (picklable, "
                        "hash-stable) factories",
                    )


#: Modules (dotted-prefix match) the vectorization-safety rules apply
#: to: the struct-of-arrays scale tier, where every tie-break and
#: operand ordering feeds a bit-exact differential against the event
#: kernel.
VECTOR_MODULES: Tuple[str, ...] = ("repro.megasim",)


class StreamCollisionRule(Rule):
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

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
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
            yield self.finding(
                primary,
                f'stream key "{primary.pattern}" is derived from {owners} '
                "distinct functions; a shared key silently correlates "
                "subsystems that expect independent streams",
                related=related,
            )


class RngLineageRule(Rule):
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

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.rngs:
                reason = self._REASONS.get(site.lineage)
                if reason is None:
                    continue
                yield self.finding(
                    site,
                    f"{site.constructor}() {reason}; derive the seed "
                    "from RandomStreams.derive_seed/spawn so the "
                    "generator joins the root-seed lineage",
                )


class UnparameterizedStreamRule(Rule):
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

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
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
                yield self.finding(
                    site,
                    f'literal stream key "{site.pattern}" derived {where} '
                    "re-creates the same stream per iteration; "
                    f'parameterize it (f"{site.pattern}.{{{placeholder}}}")',
                )


class _VectorRule(Rule):
    """Base for the vectorization-safety family: scoped to the numpy
    scale tier, judged from the collected numpy call facts."""

    def check(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
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
        return self.finding(
            site,
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
        return self.finding(
            site,
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
        return self.finding(
            site,
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
        return self.finding(
            site,
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
