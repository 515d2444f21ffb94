#!/usr/bin/env python
"""Fail when scheme dispatch leaks outside ``repro/comm/``.

The CollectiveScheme registry (``repro.comm.scheme``) is the single
dispatch point for collective-communication behaviour. This check scans
``src/repro`` (excluding ``src/repro/comm/``) and reports:

1. ``SchemeKind`` *comparisons* (``scheme == SchemeKind.HYBRID``,
   ``scheme in (SchemeKind.RING, ...)``) — the if/elif ladders the
   registry replaced. Plain attribute references (e.g. the
   ``SystemSpec`` constants naming their scheme) are data, not dispatch,
   and stay allowed.
2. Direct calls to per-scheme latency primitives (``*_allreduce_time``)
   or link footprints (``*_link_footprint``) — callers must go through
   ``estimate_group_step`` / ``price_group_step`` or a scheme's routes,
   so a policy's price and its registered links come from one route.

Exit status 0 when clean, 1 with a finding list otherwise. Wired into
the CI lint job next to ruff.
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
EXCLUDED = os.path.join(SRC, "comm") + os.sep

BANNED_CALLS = {
    "ring_allreduce_time",
    "ina_allreduce_time",
    "twostage_allreduce_time",
    "tree_allreduce_time",
}
BANNED_SUFFIX = "_link_footprint"


def _is_schemekind_member(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "SchemeKind"
    )


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[str] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        rel = os.path.relpath(self.path, REPO)
        self.findings.append(f"{rel}:{node.lineno}: {message}")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        # `x in (SchemeKind.A, SchemeKind.B)` hides members in a
        # container literal; unpack one level.
        for op in list(operands):
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                operands.extend(op.elts)
        if any(_is_schemekind_member(op) for op in operands):
            self._flag(
                node,
                "SchemeKind comparison (dispatch ladder) — resolve via "
                "repro.comm.scheme.get_scheme() instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in BANNED_CALLS or (name or "").endswith(BANNED_SUFFIX):
            self._flag(
                node,
                f"direct call to {name}() — use estimate_group_step / "
                "price_group_step or a scheme's routes",
            )
        self.generic_visit(node)


def lint_file(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    visitor = _Visitor(path)
    visitor.visit(tree)
    return visitor.findings


def main() -> int:
    findings: list[str] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC)):
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            if path.startswith(EXCLUDED):
                continue
            findings.extend(lint_file(path))
    if findings:
        print("scheme-dispatch lint: FAIL")
        for f in findings:
            print(" ", f)
        return 1
    print("scheme-dispatch lint: OK (no SchemeKind ladders or direct "
          "latency-primitive or footprint calls outside repro/comm/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
