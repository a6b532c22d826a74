#!/usr/bin/env python
"""Stdlib stand-in for the two ruff checks CI relies on most.

``make lint`` runs ``ruff`` whenever it can be imported; images without it
(the reference box has none) run this script instead, so the lint step
still catches the drift a PR leaves behind.  It checks, over the given
files and directories:

* **E9** — the file compiles (syntax errors, null bytes, bad encodings);
* **F401** — a module imports a name it never uses.  As in ``ruff.toml``,
  ``__init__.py`` files are exempt (they re-export their API), and so are
  ``__future__`` imports, names listed in ``__all__`` and lines carrying a
  ``# noqa`` comment that covers F401.

A name counts as used when it is read anywhere in the module, including
inside a quoted annotation (``x: "Partition"``) or the type argument of
``typing.cast``.  Scopes are not tracked, so an unused import whose name
is read elsewhere in the file goes unreported.  Nothing here replaces
``ruff format --check``.

Exit status 1 when anything was reported, else 0.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator

DEFAULT_PATHS = ("src", "tests", "scripts")
SKIPPED_DIRECTORIES = {"__pycache__", ".git", "build", "dist"}


def python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, in a stable order."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not SKIPPED_DIRECTORIES.intersection(candidate.parts):
                yield candidate


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Names read by an annotation, quoted parts included."""
    names: set[str] = set()
    if node is None:
        return names
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, in code, annotations and ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
            every += [arguments.vararg, arguments.kwarg]
            for argument in every:
                if argument is not None:
                    used |= _annotation_names(argument.annotation)
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Call) and node.args:
            function = node.func
            name = getattr(function, "id", None) or getattr(function, "attr", None)
            if name == "cast":
                used |= _annotation_names(node.args[0])
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                for child in ast.walk(node.value):
                    if isinstance(child, ast.Constant) and isinstance(child.value, str):
                        used.add(child.value)
    return used


def _suppressed(line: str) -> bool:
    """True when a ``# noqa`` comment on the line covers F401."""
    _, marker, rest = line.partition("# noqa")
    if not marker:
        return False
    rest = rest.strip()
    return not rest.startswith(":") or "F401" in rest


def unused_imports(tree: ast.AST, lines: list[str]) -> list[tuple[int, int, str]]:
    """``(line, column, name)`` of every import the module never uses."""
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used:
                continue
            line = getattr(alias, "lineno", node.lineno)
            if _suppressed(lines[line - 1]) or _suppressed(lines[node.lineno - 1]):
                continue
            column = getattr(alias, "col_offset", node.col_offset)
            unused.append((line, column + 1, alias.asname or alias.name))
    return sorted(unused)


def check_file(path: Path) -> list[str]:
    """Diagnostics for one file, formatted like ruff's."""
    try:
        source = path.read_bytes()
        tree = ast.parse(source, filename=str(path))
        compile(tree, str(path), "exec")
        lines = source.decode("utf-8").splitlines()
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return [f"{path}:{line}:1: E999 {type(exc).__name__}: {exc}"]
    if path.name == "__init__.py":
        return []
    return [
        f"{path}:{line}:{column}: F401 `{name}` imported but unused"
        for line, column, name in unused_imports(tree, lines)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS))
    args = parser.parse_args(argv)
    files = list(python_files(args.paths))
    diagnostics = [message for path in files for message in check_file(path)]
    for message in diagnostics:
        print(message)
    print(
        f"lint fallback: {len(diagnostics)} problem(s) in {len(files)} files "
        "(E9 + F401 only)"
    )
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
