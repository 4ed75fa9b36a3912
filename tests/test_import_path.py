"""Importing the CLI loads no stdlib module it does not use: the value
types are plain classes, so dataclasses, and inspect with it, stay out."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_NEW_MODULES = """
import sys
before = set(sys.modules)
import hskolem.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run([sys.executable, "-c", _NEW_MODULES], capture_output=True,
                          text=True, cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hskolem.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_no_source_file_names_dataclass():
    sources = sorted((SRC / "hskolem").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if "dataclass" in p.read_text(encoding="utf-8")] == []
