"""The README's Library block runs as written, and each `# value` comment
on an expression line is the repr of that expression's value; each line of
its CLI block exits 0."""

import re
import shlex
from pathlib import Path

from hskolem import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str = "") -> list[str]:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1).splitlines()


def test_library_block_runs_and_matches_its_comments():
    namespace: dict = {}
    checked = 0
    for line in _block("## Library", "python"):
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


def test_cli_block_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "nk2", "--n", "9", "--format", "json"]) == 0
    (tmp_path / "labeling.json").write_text(capsys.readouterr().out, encoding="utf-8")
    (tmp_path / "path.edges").write_text("p 4\n1 2\n2 3\n3 4\n", encoding="utf-8")
    lines = [line for line in _block("## CLI") if line.startswith("hskolem ")]
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
