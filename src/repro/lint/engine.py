"""Lint driver: the two-phase collect/analyze pipeline.

The engine is deliberately boring -- all judgement lives in the rules.
Linting runs in two phases:

1. **collect** -- every file is parsed and walked once by the fact
   collector (:mod:`repro.lint.facts`) into a :class:`FileFacts`
   record; no rule sees a syntax tree.
2. **analyze** -- every rule in :data:`~repro.lint.rules.RULES` runs
   once, through the same ``check(facts)`` call, over the merged,
   sorted fact set and emits findings that may span files.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.facts import FileFacts, StreamSite, collect_facts_for_module
from repro.lint.findings import Finding
from repro.lint.rules import RULES, Rule

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
# Collect and analyze.
# ---------------------------------------------------------------------------


def _file_facts(
    source: str, *, module: str, rel_path: str, filename: str
) -> FileFacts:
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise LintError(f"syntax error in {rel_path}: {exc}") from exc
    return collect_facts_for_module(module, rel_path, tree)


def _analyze(
    facts: Sequence[FileFacts],
    rules: Optional[Sequence[Rule]],
    lines_by_path: Dict[str, Sequence[str]],
) -> List[Finding]:
    """Run every rule once over the fact set; sorted, noqa applied."""
    findings: List[Finding] = []
    for rule in rules if rules is not None else RULES:
        findings.extend(rule.check(facts))
    findings.sort()
    return _apply_noqa(findings, lines_by_path)


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
    for the VEC rules); the string is treated as a one-file project.
    Suppression comments are honoured exactly as for on-disk files.
    """
    facts = _file_facts(source, module=module, rel_path=path, filename=path)
    return _analyze((facts,), rules, {path: source.splitlines()})


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

    Results are sorted (path, line, col, rule) and the fact set is
    sorted before analysis, so output never depends on filesystem
    enumeration order *or* on the order of the ``paths`` argument --
    the linter holds itself to DET003's standard.
    """
    lines_by_path: Dict[str, Sequence[str]] = {}
    facts = _collect(paths, root, lines_by_path)
    findings = _analyze(facts, rules, lines_by_path)
    if baseline is not None:
        findings = baseline.filter(findings)
    return findings


def collect_facts(
    paths: Iterable[Path],
    *,
    root: Optional[Path] = None,
) -> List[FileFacts]:
    """The merged, sorted fact set for ``paths``."""
    return _collect(paths, root, {})


def _collect(
    paths: Iterable[Path],
    root: Optional[Path],
    lines_by_path: Dict[str, Sequence[str]],
) -> List[FileFacts]:
    """Walk each file once; fill ``lines_by_path`` for noqa lookups."""
    all_facts: List[FileFacts] = []
    for path in paths:
        for file_path in _python_files(Path(path)):
            rel = _relative_posix(file_path, root)
            if rel in lines_by_path:
                continue  # the same file listed twice is still one fact set
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as exc:
                raise LintError(f"cannot read {file_path}: {exc}") from exc
            all_facts.append(
                _file_facts(
                    source,
                    module=module_name_for(file_path),
                    rel_path=rel,
                    filename=str(file_path),
                )
            )
            lines_by_path[rel] = source.splitlines()
    all_facts.sort()
    return all_facts


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
