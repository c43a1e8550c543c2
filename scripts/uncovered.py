#!/usr/bin/env python3
"""List every line of ``src/amflood`` that a pytest selection never runs.

    python scripts/uncovered.py [PYTEST ARGS...]    # default: tests

Runs pytest in this process under the standard library's line counter,
``trace.Trace(count=1)``, then prints ``file:line: text`` for each line of
the package that holds code and never ran, in file and line order. Code that
runs in a subprocess or in a sweep worker process is not counted, so a line
reached only there is listed too. Standard library only, besides pytest
itself; expect the selection to run several times slower than usual. Exit
code: pytest's own.
"""

from __future__ import annotations

import functools
import sys
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amflood"


def _code_lines(path: Path) -> set[int]:
    """The lines holding code: those of the instructions in the module's
    code object and in every code object nested in it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    # Nothing here imports the package: pytest imports it under the counter,
    # so its module-level lines count too.
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    # Count the package's frames alone. trace's own filter caches its answer
    # by a module's base name, so an ignored ``__init__.py`` elsewhere would
    # hide the package's; this one decides by directory, once per file.
    tracer.ignore.names = functools.cache(
        lambda filename, modulename: Path(filename).resolve().parent != PACKAGE)
    code = tracer.runfunc(pytest.main, argv or ["tests"])
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(_code_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
