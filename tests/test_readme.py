"""The README's Library block runs as written, and each `# value` comment
on an expression line is the repr of that expression's value."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_library_block_runs_and_matches_its_comments():
    namespace: dict = {}
    checked = 0
    for line in _library_block():
        code, _, comment = line.partition("  # ")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:  # a statement: run it, and its comment is prose
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(expr, namespace)
        if comment:
            assert repr(value) == comment.strip(), line
            checked += 1
    assert checked >= 4

