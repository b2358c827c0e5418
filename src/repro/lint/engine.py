"""The lint engine: incremental, parallel, whole-program.

One :func:`lint_paths` call is one lint run, in three phases:

1. **Per-file analysis** (parallel, cached).  Every target file is
   content-hashed; on a cache hit the stored summary/findings/
   suppressions are replayed with zero parsing.  Misses are parsed one
   at a time: ``ast.parse`` is serialised by a lock in
   :func:`~repro.lint.rules.parse_module`, because CPython 3.11's AST
   conversion corrupts interpreter-wide state when two threads parse at
   once (gh-106905).  Only summary extraction
   (:mod:`repro.lint.graph`) and the ``scope="file"`` rules, which work
   on Python objects alone, run across ``--jobs`` worker threads.
   Results are aggregated in file order regardless of completion order,
   so the report is bit-identical at any jobs count.
2. **Whole-program analysis.**  The summaries (cached + fresh) are
   assembled into the :class:`~repro.lint.graph.ProjectGraph`, and every
   ``scope="project"`` rule — lock-order cycles, transitive
   blocking-under-lock, determinism taint — runs against it.
3. **Filtering.**  Raw findings pass through inline suppressions and
   the checked-in baseline exactly as before; the resulting
   :class:`LintReport` carries active findings (the CI gate), the
   suppressed/grandfathered burn-down views, and cache hit counters.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.cache import (
    AnalysisCache,
    FileEntry,
    compute_signature,
    text_hash,
)
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.graph import ProjectGraph, build_graph, extract_summary
from repro.lint.rules import ModuleSource, Rule, all_rules, parse_module
from repro.lint.suppress import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # active (gate)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    parse_errors: List[Finding] = field(default_factory=list)
    files: int = 0
    rules_run: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    graph: Optional[ProjectGraph] = None

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_raw(self) -> List[Finding]:
        return self.findings + self.suppressed + self.baselined

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-rule counters: active / suppressed / baselined findings."""
        table: Dict[str, Dict[str, int]] = {}

        def bump(rule: str, column: str) -> None:
            row = table.setdefault(
                rule, {"active": 0, "suppressed": 0, "baselined": 0}
            )
            row[column] += 1

        for finding in self.findings:
            bump(finding.rule, "active")
        for finding in self.suppressed:
            bump(finding.rule, "suppressed")
        for finding in self.baselined:
            bump(finding.rule, "baselined")
        return table


def _collect_files(paths: Sequence[Path], config: LintConfig) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while keeping a deterministic order.
    seen = {}
    for file in files:
        seen.setdefault(file.resolve(), file)
    return [seen[key] for key in sorted(seen)]


def _module_rel(path: Path, config: LintConfig) -> str:
    """Path relative to the analysed package root (posix separators)."""
    resolved = path.resolve()
    for anchor in (config.src.resolve(), config.root.resolve()):
        try:
            return resolved.relative_to(anchor).as_posix()
        except ValueError:
            continue
    return resolved.name


def _module_display(path: Path, config: LintConfig) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(config.root.resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _analyze_file(
    file: Path,
    rel: str,
    display: str,
    text: str,
    file_rules: Sequence[Rule],
    config: LintConfig,
) -> FileEntry:
    """Cold path for one file: parse, extract summary, run file rules."""
    content_hash = text_hash(text)
    module = parse_module(file, rel, display)
    if module is None:
        return FileEntry(
            hash=content_hash,
            summary=None,
            findings=[],
            sups=[],
            bad_sups=[],
            error=True,
        )
    summary = extract_summary(module)
    findings: List[Finding] = []
    for rule in file_rules:
        findings.extend(rule.check([module], config))
    sups, bad = parse_suppressions(display, module.text)
    return FileEntry(
        hash=content_hash,
        summary=summary,
        findings=findings,
        sups=sups,
        bad_sups=bad,
    )


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[Rule]] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    keep_graph: bool = False,
) -> LintReport:
    """Run the linter; defaults to the configured package and baseline."""
    if config is None:
        from repro.lint.config import find_repo_root

        config = LintConfig.for_root(find_repo_root())
    if paths is None:
        paths = [config.src]
    if baseline is None:
        baseline = Baseline.load(config.baseline_path())
    chosen = list(rules) if rules is not None else all_rules()
    if config.enabled_rules:
        chosen = [r for r in chosen if r.id in config.enabled_rules]
    file_rules = [r for r in chosen if r.scope == "file"]
    project_rules = [r for r in chosen if r.scope == "project"]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))

    signature = compute_signature(config, chosen)
    cache = (
        AnalysisCache.load(config.cache_path(), signature)
        if use_cache
        else AnalysisCache(config.cache_path(), signature)
    )

    report = LintReport(rules_run=[r.id for r in chosen])
    files = _collect_files(paths, config)
    keyed: List[Tuple[Path, str, str, str]] = []  # (file, rel, display, text)
    for file in files:
        try:
            text = file.read_text(encoding="utf-8")
        except OSError:
            continue
        keyed.append(
            (file, _module_rel(file, config), _module_display(file, config),
             text)
        )

    # Phase 1: per-file analysis — cached entries replay, misses run in
    # an ordered thread map so output is identical at any jobs count.
    entries: List[Tuple[str, str, Optional[FileEntry]]] = []
    miss_jobs: List[Tuple[int, Path, str, str, str]] = []
    for i, (file, rel, display, text) in enumerate(keyed):
        entry = cache.get(display, text_hash(text)) if use_cache else None
        if entry is None:
            miss_jobs.append((i, file, rel, display, text))
        entries.append((rel, display, entry))

    if miss_jobs:
        def run(job):
            _i, file, rel, display, text = job
            return _analyze_file(
                file, rel, display, text, file_rules, config
            )

        if jobs > 1 and len(miss_jobs) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                fresh = list(pool.map(run, miss_jobs))
        else:
            fresh = [run(job) for job in miss_jobs]
        for (i, _file, rel, display, _text), entry in zip(miss_jobs, fresh):
            entries[i] = (rel, display, entry)
            cache.put(display, entry)

    raw: List[Finding] = []
    suppressions_by_path: Dict[str, List[Suppression]] = {}
    summaries: List[Dict] = []
    for rel, display, entry in entries:
        if entry is None:  # unreadable file was skipped above
            continue
        if entry.error:
            report.parse_errors.append(
                Finding(
                    rule="parse-error",
                    path=display,
                    line=1,
                    message="file does not parse; lint cannot analyse it",
                )
            )
            continue
        report.files += 1
        if entry.summary is not None:
            summaries.append(entry.summary)
        raw.extend(entry.findings)
        raw.extend(entry.bad_sups)
        # Suppressions mutate (used_for) during apply; hand out copies so
        # cached entries stay pristine.
        suppressions_by_path[display] = [
            Suppression(s.line, s.rules, s.justification)
            for s in entry.sups
        ]

    # Phase 2: whole-program rules over the assembled graph.
    graph: Optional[ProjectGraph] = None
    if project_rules or keep_graph:
        graph = build_graph(summaries)
        for rule in project_rules:
            raw.extend(rule.check_project(graph, config))
    if keep_graph:
        report.graph = graph

    # Phase 3: suppressions, baseline, deterministic ordering.
    active, suppressed = apply_suppressions(raw, suppressions_by_path)
    fresh_findings, grandfathered = baseline.partition(active)
    report.findings = sorted(
        fresh_findings, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
    report.suppressed = sorted(
        suppressed, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
    report.baselined = sorted(
        grandfathered, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
    report.cache_hits = cache.hits
    report.cache_misses = cache.misses
    if use_cache:
        cache.save(keep=[display for _rel, display, _e in entries])
    return report


def build_project_graph(
    config: Optional[LintConfig] = None,
    paths: Optional[Sequence[Path]] = None,
    use_cache: bool = True,
) -> ProjectGraph:
    """Assemble the project graph alone (``--dump-graph``, sanitizer).

    Runs the default rule set so the analysis cache signature matches a
    plain ``repro lint`` run — the two share warm-cache entries.
    """
    report = lint_paths(
        paths=paths,
        config=config,
        baseline=Baseline(),
        use_cache=use_cache,
        keep_graph=True,
    )
    assert report.graph is not None
    return report.graph


__all__ = ["LintReport", "build_project_graph", "lint_paths"]
