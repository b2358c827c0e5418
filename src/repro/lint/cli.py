"""CLI plumbing for ``repro lint`` (registered from :mod:`repro.cli`).

Exit codes: 0 when every finding is suppressed or baselined, 1 when new
findings exist, 2 on usage errors — so ``repro lint`` drops straight
into CI as a gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, find_repo_root
from repro.lint.engine import LintReport, lint_paths
from repro.lint.findings import FORMATS, render_findings
from repro.lint.rules import all_rules


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    p = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (CI gate)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="finding output format (github emits workflow annotations)",
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from cwd)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: <root>/lint-baseline.json)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding/suppression/baseline counts",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its pack and description",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for summary extraction and file rules "
        "(default: os.cpu_count(); parsing is serialised, output is "
        "bit-identical at any jobs count)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental analysis cache",
    )
    p.add_argument(
        "--dump-graph",
        choices=("imports", "calls", "locks"),
        default=None,
        help="print the whole-program graph (imports/calls/locks) "
        "instead of linting",
    )
    p.set_defaults(fn=cmd_lint)


def _stats_table(report: LintReport) -> str:
    from repro.harness import reporting

    rows = []
    for rule in sorted(set(report.rules_run) | set(report.stats())):
        row = report.stats().get(
            rule, {"active": 0, "suppressed": 0, "baselined": 0}
        )
        rows.append(
            [rule, row["active"], row["suppressed"], row["baselined"]]
        )
    return reporting.format_table(
        ["rule", "active", "suppressed", "baselined"],
        rows,
        title=f"lint stats over {report.files} files",
    )


def cmd_lint(args) -> int:
    root = Path(args.root).resolve() if args.root else find_repo_root()
    enabled = tuple(
        r.strip() for r in (args.rules or "").split(",") if r.strip()
    )
    config = LintConfig.for_root(root, enabled_rules=enabled)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:24s} [{rule.pack}] {rule.description}")
        return 0

    known = {rule.id for rule in all_rules()}
    unknown = [rule_id for rule_id in enabled if rule_id not in known]
    if unknown:
        print(
            f"unknown rule id(s): {', '.join(unknown)}; known rules: "
            f"{', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2

    baseline_path = (
        Path(args.baseline) if args.baseline else config.baseline_path()
    )
    paths = [Path(p) for p in args.paths] if args.paths else None

    if args.dump_graph:
        from repro.lint.engine import build_project_graph
        from repro.lint.graph import render_graph

        graph = build_project_graph(
            config=config, paths=paths, use_cache=not args.no_cache
        )
        print(render_graph(graph, args.dump_graph))
        return 0

    report = lint_paths(
        paths=paths,
        config=config,
        baseline=Baseline.load(baseline_path),
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )

    if args.write_baseline:
        # Grandfather everything currently active (plus what the old
        # baseline already held and still occurs).
        Baseline.from_findings(report.findings + report.baselined).save(
            baseline_path
        )
        print(
            f"wrote {len(report.findings) + len(report.baselined)} "
            f"finding(s) to {baseline_path}"
        )
        return 0

    gated = report.findings + report.parse_errors
    if gated or args.format == "sarif":
        # SARIF consumers need a (possibly empty) document every run.
        print(render_findings(gated, args.format))
    if args.stats:
        print(_stats_table(report))
        print(
            f"totals: {len(report.findings)} active, "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.baselined)} baselined"
        )
    if gated:
        if args.format not in ("github", "sarif"):
            print(
                f"\nlint: {len(gated)} finding(s); suppress with "
                "'# lint: disable=RULE -- why' or grandfather via "
                "'repro lint --write-baseline'",
                file=sys.stderr,
            )
        return 1
    if not args.stats and args.format != "sarif":
        print(
            f"lint: clean ({report.files} files, "
            f"{len(report.rules_run)} rules, "
            f"{report.cache_hits} cached, "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.baselined)} baselined)"
        )
    return 0


__all__ = ["add_lint_parser", "cmd_lint"]
