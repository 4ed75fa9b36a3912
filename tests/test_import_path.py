"""Importing the CLI loads no stdlib module it does not use: the value
types are plain classes, so dataclasses, and inspect with it, stay out.
The package loads each submodule on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import hskolem

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


_AFTER_IMPORT = """
import sys, hskolem
print(" ".join(name for name in sys.modules if "hskolem" in name))
print(len([name for name in dir(hskolem) if not name.startswith("_")]))
"""


def test_package_import_loads_no_submodule():
    proc = subprocess.run([sys.executable, "-c", _AFTER_IMPORT], capture_output=True,
                          text=True, cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "hskolem\n54\n"  # 49 exports and 5 submodules


def test_every_export_is_its_home_modules_object():
    modules = [importlib.import_module(f"hskolem.{name}")
               for name in ("conditions", "construct", "core", "search", "verify")]
    assert len(set(hskolem.__all__)) == 49
    for name in hskolem.__all__:
        homes = [vars(module)[name] for module in modules if name in vars(module)]
        assert homes and all(value is getattr(hskolem, name) for value in homes), name


def test_star_import():
    namespace: dict = {}
    exec("from hskolem import *", namespace)
    assert set(hskolem.__all__) <= set(namespace)
    assert namespace["search_nk2"](6, 2, 1, "count").count == 18


def test_moved_names_resolve_from_their_old_modules():
    from hskolem import construct, core, search
    assert construct.NotGraceful is core.NotGraceful
    assert search.BoundExceeded is core.BoundExceeded
    assert search.ContradictionDetected is core.ContradictionDetected
    assert search.MODES is core.MODES


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(hskolem, "no_such_name")
