"""Every public name of the package has a user outside the tests: the
package exports it, or the library, the benchmark scripts or the README
refer to it.  A public name that only tests use belongs in the tests."""

import ast
import re
from pathlib import Path

import mfc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mfc").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "README.md"]
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_names():
    """(name, where, is_method) of each public function and class of the
    package's modules, and of each public method of a public class."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITION) and not node.name.startswith("_"):
                yield node.name, path.name, False
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, DEFINITION)
                                and not item.name.startswith("_")):
                            yield ("%s.%s" % (node.name, item.name),
                                   path.name, True)


def _definition_lines():
    """(path, line) of every def and class statement of the package."""
    return {(path, node.lineno) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, DEFINITION)}


def test_every_public_name_has_a_user():
    defs = _definition_lines()
    lines = [(path, i, text) for path in USERS
             for i, text in enumerate(path.read_text().splitlines(), 1)]
    exported = set(vars(mfc))
    unused = []
    for name, where, is_method in _public_names():
        short = name.rsplit(".", 1)[-1]
        if not is_method and short in exported:
            continue
        word = re.compile(r"\b%s\b" % re.escape(short))
        if not any(word.search(text) for path, i, text in lines
                   if (path, i) not in defs):
            unused.append("%s: %s" % (where, name))
    assert unused == []
