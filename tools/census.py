"""Count the settable values of Python modules: the parameters with defaults
plus the dataclass fields with defaults, per module.

    python3 tools/census.py src/gatesim/simulator.py src/gatesim/policies.py ...

A parameter with a default is one a caller may leave out or set; counting
them finds the knobs that no command turns. Positional, keyword-only and
lambda parameters all count. A dataclass field counts when its class is
decorated with `dataclass` (bare or called) and the field has a default.
Prints one `<count> <path>` line per module, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def census(source: str) -> int:
    """Settable values in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main(paths) -> int:
    total = 0
    for path in paths:
        n = census(Path(path).read_text())
        total += n
        print(f"{n:4d} {path}")
    print(f"{total:4d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
