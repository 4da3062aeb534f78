"""The README's library tour runs, and says what it computes; its suite
file example is a valid suite."""

import ast
import json
from pathlib import Path

from mfc.verify import run_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str) -> str:
    text = README.read_text()
    start = text.index("```%s\n" % lang) + len("```%s\n" % lang)
    return text[start:text.index("```", start)]


def test_readme_tour():
    # run the block statement by statement; a bare expression whose
    # comment is a Python literal must give that value
    source = _block("python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if isinstance(node, ast.Expr):
            line = lines[node.end_lineno - 1]
            comment = line[line.index("#") + 1:].strip() if "#" in line else ""
            try:
                want = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                exec(code, namespace)
                continue
            expr = ast.Expression(node.value)
            got = eval(compile(expr, "README.md", "eval"), namespace)
            assert got == want, ast.unparse(node)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 8


def test_readme_suite_example():
    code, bundle = run_suite(json.loads(_block("json")))
    assert code == 0 and bundle["summary"]["agree"] == 6
