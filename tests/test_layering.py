"""Layering contract: the decision layer never imports the model.

The model computes the trade-off (MNA, placement, the MOE cost walk);
everything after it only moves, merges and re-ranks decision frames.
In the style of an import-linter "layers" contract, with no
dependency: a module of :data:`DECISION_LAYER` may import, at module
level, only another module of the layer, ``repro.errors``, numpy and
the standard library.  Imports under ``if TYPE_CHECKING:`` are exempt
(an annotation loads nothing), and so are imports inside functions
(only the producer that evaluates pays for the engine it imports).
``tests/test_cold_start.py`` checks the same rule at run time, in
fresh interpreters.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import repro.core as core_package

CORE = Path(core_package.__file__).parent

#: The modules of ``repro/core`` that store, move or query frames.
DECISION_LAYER = (
    "blobstore",
    "resultframe",
    "ranking",
    "pareto",
    "figure_of_merit",
    "queryvocab",
    "grid",
    "sharding",
    "framestore",
    "warehouse",
    "queue",
    "gather",
    "queryservice",
)

#: What a decision-layer module may import at module level, beside
#: the standard library.
ALLOWED = {f"repro.core.{name}" for name in DECISION_LAYER} | {
    "repro.errors",
    "numpy",
}


def _imported(node: ast.stmt, package: str) -> list[str]:
    """The modules an import statement in ``package`` loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        base = package.rsplit(".", node.level - 1)[0]
        if node.module is None:  # ``from . import blobstore``
            return [f"{base}.{alias.name}" for alias in node.names]
        return [f"{base}.{node.module}"]
    return [node.module]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def module_level_imports(source: str, package: str = "repro.core"):
    """``(line, module)`` for every import that runs when the module
    is imported: module body, class bodies and the blocks they hold,
    except an ``if TYPE_CHECKING:`` body; never a function body."""

    def walk(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for module in _imported(node, package):
                    yield node.lineno, module
            elif isinstance(node, ast.If):
                if not _is_type_checking(node.test):
                    yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody):
                    yield from walk(block)
                for handler in node.handlers:
                    yield from walk(handler.body)
            elif isinstance(node, (ast.With, ast.ClassDef)):
                yield from walk(node.body)

    yield from walk(ast.parse(source).body)


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    return (
        module in ALLOWED
        or module.startswith("numpy.")
        or (top != "repro" and top in sys.stdlib_module_names)
        or module == "__future__"
    )


def forbidden_imports(source: str) -> list[str]:
    """``line: module`` for each module-level import the contract
    forbids in ``source``."""
    return [
        f"{line}: {module}"
        for line, module in module_level_imports(source)
        if not _allowed(module)
    ]


@pytest.mark.parametrize("name", DECISION_LAYER)
def test_decision_layer_imports_no_model(name):
    source = (CORE / f"{name}.py").read_text(encoding="utf-8")
    assert forbidden_imports(source) == [], name


@pytest.mark.parametrize(
    "line, forbidden",
    [
        ("from .sweep import evaluate_cells", ["1: repro.core.sweep"]),
        ("from .. import units", ["1: repro.units"]),
        ("import repro.circuits.mna", ["1: repro.circuits.mna"]),
        ("from ..gps.study import NRE_SCENARIOS", ["1: repro.gps.study"]),
        ("import scipy", ["1: scipy"]),
        ("try:\n    from .methodology import StudyResult\nexcept "
         "ImportError:\n    pass", ["2: repro.core.methodology"]),
        ("class A:\n    from .sweep import EvaluationCache",
         ["2: repro.core.sweep"]),
        ("if TYPE_CHECKING:\n    from .sweep import EvaluationCache", []),
        ("def run():\n    from .sweep import evaluate_cells", []),
        ("from . import blobstore\nfrom ..errors import SpecificationError"
         "\nimport numpy as np\nimport json", []),
    ],
)
def test_contract_sees_what_a_module_imports(line, forbidden):
    assert forbidden_imports(line) == forbidden
