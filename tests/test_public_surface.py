"""Every public name of the package has a user outside the tests: the
package exports it, the code of the library or of the benchmark scripts
refers to it, or the README names it.  In the code only references
count (names, attributes, imported names), not words in docstrings or
comments.  A public name that only tests use belongs in the tests."""

import ast
import re
from pathlib import Path

import mfc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mfc").glob("*.py"))
CODE_USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
README = ROOT / "README.md"
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


def code_references(path) -> set[str]:
    """Every name the code of a module refers to: the names it reads or
    binds, the attributes it reads, and each part of the names it
    imports."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
    return refs


def test_every_public_name_has_a_user():
    used = set().union(*map(code_references, CODE_USERS))
    readme = README.read_text()
    exported = set(vars(mfc))
    unused = []
    for name, where, is_method in _public_names():
        short = name.rsplit(".", 1)[-1]
        if not is_method and short in exported:
            continue
        if short in used or re.search(r"\b%s\b" % re.escape(short), readme):
            continue
        unused.append("%s: %s" % (where, name))
    assert unused == []
