"""The benchmark under perfbench/ reads pcdl by name: `spans.Tracer.install`
wraps each `LAYERS` entry with `getattr`, and `run.py` and `checks.py`
import pcdl names. No other test imports those files, so these tests check
that every name they read still resolves. The files are loaded as they are:
spans.py is executed, run.py and checks.py (which act when imported) are
only parsed."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, name: str):
    """pcdl's `module.name`, a submodule included, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _pcdl_reads(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the file imports from pcdl, and for
    every attribute it reads off a pcdl module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pcdl":
            for alias in node.names:
                reads.append((node.module, alias.name))
                if isinstance(_resolve(node.module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr))
    return reads


def test_span_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"pcdl.{mod}.{fn}" for mod, fn, _ in spans.LAYERS
               if not callable(_resolve(f"pcdl.{mod}", fn))]
    assert not missing, f"perfbench/spans.py LAYERS name missing functions: {missing}"


@pytest.mark.parametrize("script", ["run.py", "checks.py"])
def test_perfbench_pcdl_names_resolve(script):
    reads = _pcdl_reads(PERFBENCH / script)
    assert reads, f"perfbench/{script} reads no pcdl name"
    missing = [f"{mod}.{name}" for mod, name in reads if _resolve(mod, name) is None]
    assert not missing, f"perfbench/{script} reads missing pcdl names: {missing}"
