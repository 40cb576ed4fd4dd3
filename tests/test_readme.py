"""The README's library example runs as written and prints what it says."""

import ast
from pathlib import Path

import expdeg

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    code = library_example()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "expdeg"
        for alias in node.names
    }
    assert imported and imported <= set(expdeg.__all__)
    exec(compile(code, str(README), "exec"), {})
    # the last line's comment is the output it documents
    want = code.rstrip().rsplit("# ", 1)[1]
    assert capsys.readouterr().out == want + "\n"
