"""Packaging metadata: ``pyproject.toml`` installs the ``repro-gps`` script."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import repro
import repro.cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_console_script_resolves_to_the_cli_entry_point():
    target = _project()["scripts"]["repro-gps"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is (
        repro.cli.main
    )


def test_version_matches_the_package():
    assert _project()["version"] == repro.__version__


def test_runtime_dependencies_are_declared():
    assert sorted(_project()["dependencies"]) == ["numpy", "scipy"]
