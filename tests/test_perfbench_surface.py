"""The benchmark's import surface still resolves.

``perfbench/`` reaches into the program by name: ``layertrace.TRACED``
lists the functions and methods its traced runs wrap, and
``workloads.py`` imports ``repro`` names and calls them with fixed
arguments.  A rename or a dropped parameter in ``src/`` breaks the
benchmark without failing any other test.  These checks only read
``perfbench/`` (``layertrace`` is loaded from its file; ``workloads``
is parsed, not imported) and run no workload.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", PERFBENCH / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _layertrace().TRACED
WORKLOADS = ast.parse((PERFBENCH / "workloads.py").read_text("utf-8"))

#: ``name -> (module, attribute)`` for every ``from repro... import``
#: in ``workloads.py``.
IMPORTED = {
    alias.asname or alias.name: (node.module, alias.name)
    for node in ast.walk(WORKLOADS)
    if isinstance(node, ast.ImportFrom)
    and (node.module or "").split(".")[0] == "repro"
    for alias in node.names
}


def _resolve(module_name: str, attribute: str):
    return getattr(importlib.import_module(module_name), attribute)


def _unresolved_traced_entry(module_name: str, attribute: str):
    """``None`` when ``Tracer.install`` would find the entry — a module
    attribute, or a method in the class ``__dict__`` (an inherited
    method would not do) — else why not."""
    try:
        target = _resolve(module_name, attribute.split(".")[0])
        if "." in attribute:
            target = vars(target)[attribute.split(".")[1]]
    except (AttributeError, KeyError, ImportError) as exc:
        return f"{module_name}:{attribute}: {exc!r}"
    if not callable(target):
        return f"{module_name}:{attribute} is not callable"
    return None


def test_traced_entries_resolve():
    assert TRACED
    unresolved = [
        problem
        for module_name, attribute, *_ in TRACED
        if (problem := _unresolved_traced_entry(module_name, attribute))
    ]
    assert unresolved == []


def test_workload_imports_exist():
    assert IMPORTED, "workloads.py imports no repro names"
    missing = []
    for name, (module_name, attribute) in sorted(IMPORTED.items()):
        try:
            _resolve(module_name, attribute)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{module_name}:{attribute}: {exc!r}")
    assert missing == []


def test_workload_calls_bind():
    """Every call in ``workloads.py`` to an imported ``repro`` callable
    with a fixed argument shape (no ``*args``/``**kwargs``) still fits
    the callee's signature: positional count and keyword names."""
    checked, unbound = 0, []
    for node in ast.walk(WORKLOADS):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in IMPORTED
            and not any(isinstance(a, ast.Starred) for a in node.args)
            and all(keyword.arg for keyword in node.keywords)
        ):
            continue
        checked += 1
        try:
            inspect.signature(_resolve(*IMPORTED[node.func.id])).bind(
                *[None] * len(node.args),
                **{keyword.arg: None for keyword in node.keywords},
            )
        except (AttributeError, ImportError, TypeError) as exc:
            unbound.append(f"workloads.py:{node.lineno} {node.func.id}: {exc}")
    assert checked
    assert unbound == []
