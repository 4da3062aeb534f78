"""No module of the package, the benchmark scripts or the tests imports a
name that its code never refers to.  The package's ``__init__`` is left
out: its imports are the package's exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ([p for p in sorted((ROOT / "src" / "mfc").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "bench").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement of the source binds
    that no name in its code refers to; ``__future__`` imports bind
    nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "import a.b as c" and "from a import
            # b as c" bind c
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, re\n"
              "import a.b\n"
              "from c import d as e, f\n"
              "def g(x: f) -> None:\n"
              "    return re.sub('', '', a.b.x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "e")]


def test_no_unused_imports():
    unused = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
              for path in MODULES
              for line, name in unused_imports(path.read_text())]
    assert unused == []
