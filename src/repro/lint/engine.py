"""Lint driver: the two-phase collect/analyze pipeline.

The engine is deliberately boring -- all judgement lives in the rules.
Linting runs in two phases:

1. **collect** -- every file is parsed and walked once, producing the
   per-file findings (DET001..DET005) *and* a :class:`FileFacts` record
   of stream-name, RNG-constructor and numpy call sites
   (:mod:`repro.lint.facts`).
2. **analyze** -- the project-scope rules (DET010..DET012,
   VEC001..VEC004) run once over the merged, sorted fact set and emit
   findings that may span files.

Three layers filter raw findings before anything is reported:

1. per-line ``# noqa: DET0xx`` comments (or a bare ``# noqa``) -- for a
   multi-site finding, a suppression on *any* of its locations silences
   it, so the justification can live at the intentional site,
2. the baseline file of grandfathered findings (see
   :mod:`repro.lint.baseline`),
3. an optional rule selection (``--select`` on the CLI).

Finding paths are normalised to repo-relative POSIX form (the repo root
is auto-detected by ascending to the nearest ``pyproject.toml``/``.git``)
so reports, baselines and the stream manifest are byte-identical no
matter which directory the linter is invoked from.

Everything is pure functions over paths and strings so the pytest gate,
the CLI and CI all share one code path.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.baseline import Baseline
from repro.lint.facts import FileFacts, StreamSite
from repro.lint.findings import Finding
from repro.lint.rules import RULES, ModuleContext, ProjectRule, Rule

#: ``# noqa`` / ``# noqa: DET001`` / ``# noqa: DET001, VEC002``
_NOQA_RE = re.compile(
    r"#\s*noqa\b(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)

#: Version stamp of the generated stream manifest.
MANIFEST_VERSION = 1

#: Files whose presence marks a repository root for path normalisation.
_ROOT_MARKERS = ("pyproject.toml", ".git")


class LintError(RuntimeError):
    """A file could not be linted (unreadable, syntax error)."""


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    Paths under a ``src/`` directory resolve to their import path
    (``src/repro/sim/engine.py`` -> ``repro.sim.engine``); anything else
    falls back to the path's stem-joined parts after the last recognised
    package anchor, or just the stem.  The module name only drives rule
    scoping, so a best-effort answer is fine for out-of-tree fixtures.
    """
    parts = list(path.parts)
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        rel = parts[anchor + 1 :]
    elif "repro" in parts:
        anchor = parts.index("repro")
        rel = parts[anchor:]
    else:
        rel = [parts[-1]]
    dotted = [part for part in rel[:-1]] + [Path(rel[-1]).stem]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or path.stem


def repo_root_for(path: Path) -> Optional[Path]:
    """The nearest enclosing directory holding a repo marker
    (``pyproject.toml`` or ``.git``), or None outside any repo."""
    probe = path.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        for marker in _ROOT_MARKERS:
            if (candidate / marker).exists():
                return candidate
    return None


# ---------------------------------------------------------------------------
# Phase 1: collect.
# ---------------------------------------------------------------------------


def _parse_context(
    source: str, *, module: str, rel_path: str, filename: str
) -> ModuleContext:
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise LintError(f"syntax error in {rel_path}: {exc}") from exc
    return ModuleContext(module=module, path=rel_path, tree=tree, source=source)


def _collect(
    ctx: ModuleContext, rules: Sequence[Rule]
) -> Tuple[List[Finding], FileFacts]:
    """Run the per-file rules and the fact collector over one module."""
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            continue
        raw.extend(rule.check(ctx))
    return raw, ctx.facts


def lint_source(
    source: str,
    *,
    module: str = "repro._lint_fixture",
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a source string (the unit-test entry point).

    ``module`` controls rule scoping (e.g. pass ``"repro.sim.engine"``
    to exercise the DET004 core scope, or ``"repro.megasim.fixture"``
    for the VEC rules); the string is treated as a one-file project, so
    the project-scope rules run over its facts too.  Suppression
    comments are honoured exactly as for on-disk files.
    """
    active = tuple(rules) if rules is not None else RULES
    ctx = _parse_context(source, module=module, rel_path=path, filename=path)
    raw, facts = _collect(ctx, active)
    for rule in active:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project((facts,)))
    raw.sort()
    return _apply_noqa(raw, {path: source.splitlines()})


def lint_file(
    path: Path,
    *,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file as a one-file project.

    Paths in findings are repo-relative POSIX (relative to ``root`` when
    given, else to the auto-detected repository root).
    """
    return lint_paths([path], root=root, rules=rules)


def lint_paths(
    paths: Iterable[Path],
    *,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> List[Finding]:
    """Lint files and directories; directories are walked recursively.

    Phase 1 collects per-file findings and facts; phase 2 runs the
    project-scope rules over the merged fact set.  Results are sorted
    (path, line, col, rule) and the fact set is sorted before analysis,
    so output never depends on filesystem enumeration order *or* on the
    order of the ``paths`` argument -- the linter holds itself to
    DET003's standard.
    """
    active = tuple(rules) if rules is not None else RULES
    findings: List[Finding] = []
    all_facts: List[FileFacts] = []
    lines_by_path: Dict[str, Sequence[str]] = {}
    for path in paths:
        for file_path in _python_files(Path(path)):
            ctx = _file_context(file_path, root)
            if ctx.path in lines_by_path:
                continue  # the same file listed twice is still one fact set
            raw, facts = _collect(ctx, active)
            findings.extend(raw)
            all_facts.append(facts)
            lines_by_path[ctx.path] = ctx.source.splitlines()
    all_facts.sort()
    for rule in active:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(all_facts))
    findings.sort()
    findings = _apply_noqa(findings, lines_by_path)
    if baseline is not None:
        findings = baseline.filter(findings)
    return findings


def collect_facts(
    paths: Iterable[Path],
    *,
    root: Optional[Path] = None,
) -> List[FileFacts]:
    """Phase 1 only: the merged, sorted fact set for ``paths``."""
    all_facts: List[FileFacts] = []
    seen: Set[str] = set()
    for path in paths:
        for file_path in _python_files(Path(path)):
            ctx = _file_context(file_path, root)
            if ctx.path in seen:
                continue
            seen.add(ctx.path)
            all_facts.append(ctx.facts)
    all_facts.sort()
    return all_facts


def _file_context(file_path: Path, root: Optional[Path]) -> ModuleContext:
    try:
        source = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {file_path}: {exc}") from exc
    rel = _relative_posix(file_path, root)
    return _parse_context(
        source,
        module=module_name_for(file_path),
        rel_path=rel,
        filename=str(file_path),
    )


# ---------------------------------------------------------------------------
# Stream manifest.
# ---------------------------------------------------------------------------


def stream_manifest(facts: Sequence[FileFacts]) -> Dict[str, Any]:
    """The generated RNG stream manifest: every statically resolvable
    stream key pattern in the fact set, with its call sites.

    Line numbers are deliberately omitted so the pinned copy only churns
    when a stream is added, renamed or moved between functions -- the
    same review-visibility contract as the mypy ratchet list.  Dynamic
    sites (keys the collector could not resolve) are counted so their
    existence is still visible.
    """
    sites_by_pattern: Dict[Tuple[str, str], List[StreamSite]] = {}
    dynamic = 0
    for file_facts in facts:
        for site in file_facts.streams:
            if site.dynamic:
                dynamic += 1
                continue
            sites_by_pattern.setdefault((site.pattern, site.kind), []).append(
                site
            )
    streams: List[Dict[str, Any]] = []
    for (pattern, kind) in sorted(sites_by_pattern):
        sites = sorted(sites_by_pattern[(pattern, kind)])
        streams.append(
            {
                "pattern": pattern,
                "kind": kind,
                "sites": [
                    {
                        "path": site.path,
                        "module": site.module,
                        "function": site.function,
                    }
                    for site in sites
                ],
            }
        )
    return {
        "version": MANIFEST_VERSION,
        "dynamic_sites": dynamic,
        "streams": streams,
    }


# ---------------------------------------------------------------------------
# Plumbing.
# ---------------------------------------------------------------------------


def _python_files(path: Path) -> List[Path]:
    if path.is_dir():
        return sorted(
            p
            for p in path.rglob("*.py")
            if "__pycache__" not in p.parts
        )
    return [path]


def _relative_posix(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    base = root.resolve() if root is not None else repo_root_for(resolved)
    if base is not None:
        try:
            return resolved.relative_to(base).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _apply_noqa(
    findings: List[Finding], lines_by_path: Dict[str, Sequence[str]]
) -> List[Finding]:
    kept: List[Finding] = []
    for finding in findings:
        if not _suppressed(finding, lines_by_path):
            kept.append(finding)
    return kept


def _suppressed(
    finding: Finding, lines_by_path: Dict[str, Sequence[str]]
) -> bool:
    for location in finding.locations:
        lines = lines_by_path.get(location.path)
        if lines is None or not 1 <= location.line <= len(lines):
            continue
        match = _NOQA_RE.search(lines[location.line - 1])
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            return True  # bare "# noqa" silences every rule on the line
        wanted = {code.strip().upper() for code in codes.split(",")}
        if finding.rule.upper() in wanted:
            return True
    return False


def select_rules(codes: Optional[Sequence[str]]) -> Tuple[Rule, ...]:
    """Resolve ``--select`` codes to rule instances (all rules if None)."""
    if not codes:
        return RULES
    from repro.lint.rules import RULES_BY_ID

    selected: List[Rule] = []
    for code in codes:
        normalised = code.strip().upper()
        if normalised not in RULES_BY_ID:
            known = ", ".join(sorted(RULES_BY_ID))
            raise LintError(f"unknown rule {code!r} (known: {known})")
        selected.append(RULES_BY_ID[normalised])
    return tuple(selected)
