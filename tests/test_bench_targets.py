"""The names the benchmark traces and reads must exist in equiflow.

bench/tracing.py wraps functions by attribute path, and bench/run_bench.py
and bench/workloads.py read spans and call entry points by module and
function name.  A rename in the package would otherwise surface only as a
failed traced run or a metric that silently reads zero.  The bench files
are read, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import equiflow
import equiflow.cli_io  # noqa: F401  (public_targets reads every traced module)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"equiflow.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "target", tracing.PHASE_TARGETS + tracing.EXTRA_TARGETS, ids=lambda t: t[2]
)
def test_traced_targets_resolve(target):
    module_name, path, _ = target
    assert callable(_resolve(module_name, path))


def _span_names() -> set[str]:
    """Every span name a traced run can record."""
    names = {span for _, _, span in tracing.PHASE_TARGETS + tracing.EXTRA_TARGETS}
    names |= {f"{mod}.{key}" for mod, key, _ in tracing.public_targets(equiflow)}
    for split in tracing._SPLIT_BY_PARENT.values():
        names |= set(split.values())
    return names


def _read_names(source: str) -> set[str]:
    """String constants of the form '<traced module>.<name>...' that are
    not metric keys assigned to (m["..."] = ...)."""
    tree = ast.parse(source)
    keys = {
        id(target.slice)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in keys
        and node.value.split(".")[0] in tracing.TRACED_MODULES
        and " " not in node.value
        and "." in node.value
    }


@pytest.mark.parametrize("script", ["run_bench.py", "workloads.py"])
def test_span_names_read_by_the_bench_are_recorded(script):
    """Each span name the bench reads (for example radial_grid.d_rho or
    evolve_llg.scheme_energy) is one a traced run records."""
    names = _read_names((BENCH / script).read_text(encoding="utf-8"))
    assert names, "no span names found; the scan no longer matches the script"
    assert sorted(names - _span_names()) == []


def test_entry_points_used_by_the_workloads_exist():
    """module.attr accesses in bench/workloads.py on equiflow modules, such
    as cli_io.run_vector (patched by the set-up probe), resolve."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in tracing.TRACED_MODULES
    }
    assert ("cli_io", "run_vector") in used
    for module_name, attr in sorted(used):
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_traced_layers_have_public_functions():
    """Every traced module still exposes public functions to wrap."""
    targets = tracing.public_targets(equiflow)
    for module_name in tracing.TRACED_MODULES:
        funcs = [key for mod, key, _ in targets if mod == module_name]
        assert funcs, module_name
        for key in funcs:
            assert inspect.isfunction(_resolve(module_name, key))
