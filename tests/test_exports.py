"""Every name a module of the package exports resolves, and every function
the benchmark traces exists where it looks for it."""

import importlib
import importlib.util
import inspect
import pkgutil
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
