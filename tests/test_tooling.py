"""The benchmark under perfbench/ reads pcdl by name: `spans.Tracer.install`
wraps each `LAYERS` entry with `getattr`, and `run.py` and `checks.py`
import pcdl names. No other test imports those files, so these tests check
that every name they read still resolves. The files are loaded as they are:
spans.py is executed, run.py (which acts when imported) is only parsed.
checks.py is also executed, and its output checks run on small sweeps, on
oracle combos and on the oracle workloads' own jobs (combos and streams read
from run.py), so an output the benchmark would call incorrect fails here."""

import ast
import importlib
import importlib.util
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pcdl.estimation import compute_alpha
from pcdl.geometry import build_scenario
from pcdl.harness import load_sweep_config, run_sweep, write_sweep_csv
from pcdl.mc_oracle import verification_rows
from pcdl.rate_core import Precoder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE_CONFIG = PERFBENCH.parent / "configs" / "reference_sweep.cfg"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    spans = _load("spans")
    missing = [f"pcdl.{mod}.{fn}" for mod, fn, _ in spans.LAYERS
               if not callable(_resolve(f"pcdl.{mod}", fn))]
    assert not missing, f"perfbench/spans.py LAYERS name missing functions: {missing}"


@pytest.mark.parametrize("script", ["run.py", "checks.py"])
def test_perfbench_pcdl_names_resolve(script):
    reads = _pcdl_reads(PERFBENCH / script)
    assert reads, f"perfbench/{script} reads no pcdl name"
    missing = [f"{mod}.{name}" for mod, name in reads if _resolve(mod, name) is None]
    assert not missing, f"perfbench/{script} reads missing pcdl names: {missing}"


@pytest.mark.parametrize("L, schemes, n_drops", [
    (2, ("TIN", "SD", "SND", "PD"), 2),
    # TIN and SD recomputed from beta without pcdl's rate code, and SND held
    # to max(TIN, SD), at three cells
    (3, ("TIN", "SD", "SND"), 3),
], ids=["L2", "L3"])
def test_benchmark_checks_pass_on_a_small_reference_sweep(tmp_path, L, schemes, n_drops):
    config = load_sweep_config(str(REFERENCE_CONFIG))
    config = replace(config, scenario=replace(config.scenario, L=L, n_drops=n_drops),
                     m_values=(32, 1024, 10**6), schemes=schemes)
    result = run_sweep(config)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(out))
    assert _load("checks").check_sweep(config, out.read_bytes(), result) == []


def test_benchmark_checks_pass_on_oracle_combos():
    scen = load_sweep_config(str(REFERENCE_CONFIG)).scenario
    combos = [("MRT", 64, (0, 0), (0,)), ("ZF", 64, (0, 1), (0, 1))]
    rows = []
    for c, (prec, M, receiver, omega) in enumerate(combos):
        scenario = build_scenario(scen, 0)
        rows.append(verification_rows(scenario, compute_alpha(scenario), M,
                                      Precoder.parse(prec), receiver, omega, 1000,
                                      np.random.default_rng(c)))
    assert _load("checks").check_oracle(scen, 0, combos, rows) == []


def _oracle_workloads():
    """{workload: combos} of run.py's oracle workloads, its ORACLE_ENTROPY
    and ORACLE_DROP, read from the file's syntax tree: run.py acts when
    imported."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            consts[getattr(node.targets[0], "id", None)] = node.value
    workloads = {ast.literal_eval(key): ast.literal_eval(value.elts[1])
                 for key, value in zip(consts["WORKLOADS"].keys, consts["WORKLOADS"].values)
                 if isinstance(value.elts[0], ast.Name) and value.elts[0].id == "Oracle"}
    return (workloads, ast.literal_eval(consts["ORACLE_ENTROPY"]),
            ast.literal_eval(consts["ORACLE_DROP"]))


@pytest.mark.parametrize("workload", ["oracle-verify", "oracle-large-m"])
def test_benchmark_checks_pass_on_the_oracle_workloads(workload):
    # the jobs `run.py --workload <oracle workload>` times, stream for stream
    workloads, entropy, drop = _oracle_workloads()
    assert set(workloads) == {"oracle-verify", "oracle-large-m"}
    combos = workloads[workload]
    scen = load_sweep_config(str(REFERENCE_CONFIG)).scenario
    rows = []
    for c, (prec, M, receiver, omega) in enumerate(combos):
        scenario = build_scenario(scen, drop)
        rng = np.random.default_rng(np.random.SeedSequence((entropy, c)))
        rows.append(verification_rows(scenario, compute_alpha(scenario), M,
                                      Precoder.parse(prec), receiver, omega, 1000, rng))
    assert _load("checks").check_oracle(scen, drop, combos, rows) == []
