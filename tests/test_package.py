"""The package advertises only modules and entry points that exist."""

import importlib
import re
from pathlib import Path

import pytest

import chibound

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_docstring_modules_import():
    names = re.findall(r":mod:`(chibound\.\w+)`", chibound.__doc__)
    assert names
    for name in names:
        importlib.import_module(name)


def test_console_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_all_exports_resolve_once():
    assert len(set(chibound.__all__)) == len(chibound.__all__)
    for name in chibound.__all__:
        assert hasattr(chibound, name), name
