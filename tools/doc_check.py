#!/usr/bin/env python3
"""doc-check: documentation consistency checks for the mNoC tree.

Documentation that drifts from the code is worse than no
documentation, so this checker enforces the three invariants the
docs overhaul relies on:

  md-link        every relative markdown link in a tracked .md file
                 must resolve to an existing file, and a `#anchor`
                 fragment must match a heading in the target page
                 (GitHub slug rules: lowercase, punctuation dropped,
                 spaces to dashes).
  knob-table     the README environment-knob table and the knob
                 table in src/common/knobs.cc (the one place the code
                 reads MNOC_* variables) agree in both directions:
                 every table row has a README row with the same
                 default and class, and every README row names a
                 knob in the table.
  orphan-doc     every page under docs/ is reachable by following
                 relative links from README.md and DESIGN.md, so no
                 page can silently fall out of the documentation
                 tree.

Usage:
  tools/doc_check.py [--root DIR]

Exits 0 when clean, 1 when any finding is reported, 2 on usage
errors.  Findings print as `path:line: [rule] message`, matching
mnoc-analyze's output shape.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Markdown files checked for links, relative to the repo root.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
             "CHANGES.md")
DOC_DIRS = ("docs",)

# Roots of the reachability walk for the orphan-doc rule.
LINK_ROOTS = ("README.md", "DESIGN.md")

# The knob table: every MNOC_* variable the code reads.
KNOB_TABLE = Path("src") / "common" / "knobs.cc"

MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# One KnobSpec row: {"NAME", "default", KnobKind::K, KnobClass::C, ...
KNOB_ROW_RE = re.compile(r"\{\s*\"(MNOC_[A-Z_]+)\",\s*\"([^\"]*)\",\s*"
                         r"KnobKind::\w+,\s*KnobClass::(\w+),")
# One README row: | `NAME` | default | class | effect |
README_ROW_RE = re.compile(
    r"^\|\s*`(MNOC_[A-Z_]+)`\s*\|([^|]*)\|([^|]*)\|")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> list[Path]:
    files = [root / name for name in DOC_FILES
             if (root / name).is_file()]
    for sub in DOC_DIRS:
        files.extend(sorted((root / sub).glob("*.md")))
    return files


def page_anchors(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(1)))
    return anchors


def extract_links(path: Path) -> list[tuple[int, str]]:
    links = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in MD_LINK_RE.finditer(line):
            links.append((lineno, match.group(1)))
    return links


def check_links(root: Path, findings: list[str]) -> dict[Path, set]:
    """Validate every relative link; return the link graph."""
    graph: dict[Path, set] = {}
    anchor_cache: dict[Path, set] = {}
    for page in markdown_files(root):
        rel = page.relative_to(root)
        graph[rel] = set()
        for lineno, target in extract_links(page):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # absolute URL (https:, mailto:, ...)
            raw, _, anchor = target.partition("#")
            if not raw:
                dest = page  # pure in-page anchor
            else:
                dest = (page.parent / raw).resolve()
                if not dest.is_file():
                    findings.append(
                        f"{rel}:{lineno}: [md-link] broken link "
                        f"'{target}': no such file")
                    continue
            if dest.suffix == ".md" and dest.is_relative_to(root):
                graph[rel].add(dest.relative_to(root))
            if anchor:
                if dest not in anchor_cache:
                    anchor_cache[dest] = page_anchors(dest)
                if anchor not in anchor_cache[dest]:
                    findings.append(
                        f"{rel}:{lineno}: [md-link] broken anchor "
                        f"'{target}': no heading slugs to "
                        f"'#{anchor}'")
    return graph


def table_knobs(root: Path) -> dict[str, tuple[str, str]]:
    """The knob table's rows: name -> (default, class)."""
    text = (root / KNOB_TABLE).read_text(encoding="utf-8")
    return {name: (default, klass.lower())
            for name, default, klass in KNOB_ROW_RE.findall(text)}


def readme_knobs(root: Path) -> dict[str, tuple[int, str, str]]:
    """README knob rows: name -> (line, default, class)."""
    rows: dict[str, tuple[int, str, str]] = {}
    readme = root / "README.md"
    for lineno, line in enumerate(
            readme.read_text(encoding="utf-8").splitlines(), 1):
        match = README_ROW_RE.match(line)
        if match:
            default = match.group(2).strip().strip("`")
            rows.setdefault(match.group(1),
                            (lineno, default, match.group(3).strip()))
    return rows


def check_knobs(root: Path, findings: list[str]) -> None:
    in_table = table_knobs(root)
    in_readme = readme_knobs(root)
    if not in_table:
        findings.append(f"{KNOB_TABLE}:1: [knob-table] no knob rows "
                        f"found")
    for name, (default, klass) in sorted(in_table.items()):
        if name not in in_readme:
            findings.append(
                f"README.md:1: [knob-table] {name} is in "
                f"{KNOB_TABLE} but has no row in the environment-knob "
                f"table")
            continue
        lineno, readme_default, readme_class = in_readme[name]
        if (readme_default, readme_class) != (default, klass):
            findings.append(
                f"README.md:{lineno}: [knob-table] {name} is "
                f"documented as default '{readme_default}', class "
                f"'{readme_class}' but {KNOB_TABLE} says '{default}', "
                f"'{klass}'")
    for name, (lineno, _, _) in sorted(in_readme.items()):
        if name not in in_table:
            findings.append(
                f"README.md:{lineno}: [knob-table] {name} is "
                f"documented but is not in {KNOB_TABLE}")


def check_orphans(root: Path, graph: dict[Path, set],
                  findings: list[str]) -> None:
    reachable = set()
    stack = [Path(name) for name in LINK_ROOTS]
    while stack:
        page = stack.pop()
        if page in reachable:
            continue
        reachable.add(page)
        stack.extend(graph.get(page, ()))
    for page in graph:
        if page.parts[0] in DOC_DIRS and page not in reachable:
            findings.append(
                f"{page}:1: [orphan-doc] not reachable by links "
                f"from {' or '.join(LINK_ROOTS)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="documentation consistency checks")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "README.md").is_file():
        print(f"doc_check: no README.md under {root}",
              file=sys.stderr)
        return 2

    findings: list[str] = []
    graph = check_links(root, findings)
    check_knobs(root, findings)
    check_orphans(root, graph, findings)

    for finding in sorted(findings):
        print(finding)
    if findings:
        print(f"doc_check: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"doc_check: {len(graph)} pages clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
