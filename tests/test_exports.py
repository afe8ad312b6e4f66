"""Every name a module of the package exports resolves, and every function
the benchmark traces exists where it looks for it."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path
from types import FunctionType

import pytest

import skdv

MODULES = ["skdv"] + [f"skdv.{m.name}" for m in pkgutil.iter_modules(skdv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _bench_spans():
    """bench/spans.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _bench_spans()
# named by the benchmark beside dealiased_product_samples, into which it was
# folded; the benchmark reads whichever of the two a tree defines
RETIRED = {"spectral.dealiased_product"}
TRACED = sorted({fn for _, needs in SPANS.LAYER_METRICS.values() for fn in needs}
                - set(SPANS.KERNEL_NAMES) - RETIRED)


@pytest.mark.parametrize("name", TRACED)
def test_bench_traces_layer_function(name):
    # the tracer wraps only public module-level functions defined in their
    # own layer module, and silently leaves out a metric whose functions are
    # all missing
    layer, attr = name.split(".")
    assert layer in SPANS.LAYERS
    module = importlib.import_module(f"skdv.{layer}")
    fn = getattr(module, attr, None)
    assert isinstance(fn, FunctionType), f"skdv.{name} is not a function"
    assert not attr.startswith("_") and fn.__module__ == module.__name__


def test_retired_names_are_gone():
    for name in RETIRED:
        layer, attr = name.split(".")
        assert not hasattr(importlib.import_module(f"skdv.{layer}"), attr)


def test_bench_call_shapes():
    # the library calls bench/child.py makes, with the arguments it passes
    from skdv import decay, integrator, model

    inspect.signature(integrator.run).bind(None, None, None, on_snapshot=None,
                                           keep_snapshots=False)
    inspect.signature(model.make_initial_data).bind(None, None, boundary_threshold=1e-8)
    inspect.signature(decay.weighted_accumulator_step).bind(None, None, None, {}, 0.5)
    assert {"snapshots", "final_state"} <= set(integrator.RunResult.__dataclass_fields__)


# exported functions that no program path calls, each kept because it checks
# a claim of the paper: name -> the claim
PAPER_CHECKS = {
    "virial.weight_g": "criterion 04: w' = g for the weight pair w(x) = arctan(e^x)",
    "virial.weight_derivative_bounds":
        "criterion 04: |w''| + |w'''| <= C e^-|x| for the weight pair",
    "virial.check_key_identities":
        "criterion 05: the pointwise algebraic identities that close the decay estimates",
    "decay.smallness_gate_check":
        "criterion 08: alpha*gamma + v*beta/2 >= alpha*gamma/2 under -beta*Phi <= alpha*gamma",
    "momentum.drift_check": "criterion 09: the linear drift laws of F and B",
    "conservation.apriori_monitor": "the a priori bound ||u||_H1 + ||v||_H1 <= Phi",
}
ROOT = Path(__file__).resolve().parents[1]


def _referenced_in_package() -> set:
    """Names the package's own code loads: every ``name`` and ``x.name``
    read, an imported name counting under its original name."""
    names = set()
    for path in (ROOT / "src" / "skdv").glob("*.py"):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        names |= loaded
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names if (a.asname or a.name) in loaded}
    return names


def test_public_functions_have_a_caller():
    # an exported function that only its own tests reach must either check
    # a claim of the paper or go
    in_package = _referenced_in_package()
    bench = "\n".join(p.read_text() for p in (ROOT / "bench").glob("*.py"))
    orphans = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        layer = name.split(".")[1]
        for attr in module.__all__:
            qualified = f"{layer}.{attr}"
            if (isinstance(getattr(module, attr), FunctionType) and attr not in in_package
                    and not re.search(rf"\b{re.escape(qualified)}\b", bench)
                    and qualified not in PAPER_CHECKS):
                orphans.append(qualified)
    assert not orphans, f"exported functions with no caller outside the tests: {orphans}"
    for qualified in PAPER_CHECKS:
        layer, attr = qualified.split(".")
        assert attr in importlib.import_module(f"skdv.{layer}").__all__, qualified


def test_no_function_local_relative_imports():
    # a module reaches one that imports it only through an import inside a
    # function; without such imports the package's modules form a DAG
    local = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "skdv").glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, f"function-local relative imports: {local}"


def _names_numpy_fft(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.fft") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.fft") or (
            node.module == "numpy" and any(a.name == "fft" for a in node.names))
    return False


def test_transforms_live_in_spectral():
    # every transform of the package runs in skdv.spectral, so a change of
    # transform path (a held spectrum, another FFT library) touches one module
    outside = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "skdv").glob("*.py")) if path.name != "spectral.py"
               for node in ast.walk(ast.parse(path.read_text())) if _names_numpy_fft(node)]
    assert not outside, f"numpy.fft named outside skdv.spectral: {outside}"
