"""``python -m repro.lint`` -- the determinism linter's command line.

Exit codes follow the compiler convention: 0 clean, 1 findings reported,
2 usage or I/O error.  ``--format json`` emits the finding list as a
JSON array for CI annotation tooling; ``--write-baseline`` records the
current findings as grandfathered so a gate can be turned on before a
cleanup lands; ``--streams`` prints the generated RNG stream manifest
(sorted JSON of every statically resolvable stream key pattern and its
call sites) instead of linting -- the copy pinned under ``tests/lint``
makes any new or renamed stream review-visible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    LintError,
    collect_facts,
    lint_paths,
    select_rules,
    stream_manifest,
)
from repro.lint.findings import Finding
from repro.lint.rules import RULES


def rule_catalogue() -> str:
    """One ``ID  summary`` line per rule in :data:`RULES`."""
    return "\n".join(f"{rule.rule_id}  {rule.summary}" for rule in RULES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static determinism analysis for the reproduction.  Rules:\n\n"
            + rule_catalogue()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help=(
            "directory finding paths are reported relative to "
            "(default: the auto-detected repository root, so output is "
            "byte-identical regardless of the invocation directory)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of grandfathered findings to filter out",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--streams",
        action="store_true",
        help=(
            "print the generated RNG stream manifest (sorted JSON of "
            "every stream key pattern and its call sites) and exit 0"
        ),
    )
    return parser


def render_manifest(paths: Sequence[Path], root: Optional[Path]) -> str:
    """The stream manifest for ``paths`` as canonical JSON text."""
    facts = collect_facts(paths, root=root)
    manifest = stream_manifest(facts)
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _print_findings(findings: List[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
        return
    for finding in findings:
        print(finding.render())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(rule_catalogue())
        return 0

    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline requires --baseline FILE")

    try:
        rules = select_rules(
            args.select.split(",") if args.select else None
        )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    root = Path(args.root) if args.root is not None else None
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.streams:
        try:
            print(render_manifest(paths, root), end="")
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    baseline: Optional[Baseline] = None
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and not args.write_baseline:
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError, KeyError) as exc:
                print(
                    f"error: cannot load baseline {baseline_path}: {exc}",
                    file=sys.stderr,
                )
                return 2
        else:
            baseline = Baseline()

    try:
        findings = lint_paths(paths, root=root, rules=rules, baseline=baseline)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        assert baseline_path is not None
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"wrote {len(findings)} grandfathered finding(s) to {baseline_path}"
        )
        return 0

    _print_findings(findings, args.format)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
