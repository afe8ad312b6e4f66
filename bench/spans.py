"""Span tracing for the traced benchmark run, and the per-layer metrics
derived from the spans.

``Tracer.install`` wraps every public function of the skdv layers named in
LAYERS, plus the transforms of ``numpy.fft`` as the spectral kernel, and
rebinds every reference a skdv module holds to them.  Each call records a span: name, start, end and parent span.
Spans stay in flat in-memory arrays until ``save`` writes them out; counts
are taken from the same spans, so they sit at the same boundaries.
Callbacks handed to ``integrator.run`` get spans of their own, so stepping
time can be told apart from diagnostics run inside the stepping loop.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("spectral", "integrator", "model", "conservation", "virial", "decay", "momentum", "cli")
KERNEL_MODULES = ("numpy.fft",)
# transform -> (flop factor per n*log2(n), length taken from "in" or "out")
TRANSFORMS = {
    "fft": (5.0, "out"), "ifft": (5.0, "out"), "fft2": (5.0, "out"), "ifft2": (5.0, "out"),
    "fftn": (5.0, "out"), "ifftn": (5.0, "out"),
    "rfft": (2.5, "in"), "rfft2": (2.5, "in"), "rfftn": (2.5, "in"), "ihfft": (2.5, "in"),
    "irfft": (2.5, "out"), "irfft2": (2.5, "out"), "irfftn": (2.5, "out"), "hfft": (2.5, "out"),
}
KERNEL_NAMES = tuple(f"{k}.{t}" for k in KERNEL_MODULES for t in TRANSFORMS)
RUN = "integrator.run"
CALLBACKS = ("per_step", "on_snapshot")


def skdv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "skdv" or name.startswith("skdv."))]


def rebind(original, replacement) -> None:
    """Point every skdv module-level reference to ``original`` at ``replacement``."""
    for mod in skdv_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _fft_cost(factor: float, length_from: str, args, kwargs, out):
    import numpy as np

    x = np.asarray(args[0] if args else kwargs["a"])
    n = out.size if length_from == "out" else x.size
    flops = factor * n * math.log2(n) if n > 1 else 0.0
    return flops, float(x.nbytes + out.nbytes)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flops = array("d")
        self.nbytes = array("d")
        self._stack = [-1]
        self.wrapped: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, cost=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        flops, nbytes, stack, clock = self.flops, self.nbytes, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            flops.append(0.0)
            nbytes.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if cost is not None:
                flops[i], nbytes[i] = cost(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.bench_span = name
        return traced

    def _span_run(self, fn):
        """integrator.run, with the callbacks it is handed traced as its children."""
        code = fn.__code__
        positional = code.co_varnames[: code.co_argcount]
        inner = self.span(RUN, fn)

        def traced_run(*args, **kwargs):
            args = list(args)
            for cb in CALLBACKS:
                if kwargs.get(cb) is not None:
                    kwargs[cb] = self.span(f"{RUN}.{cb}", kwargs[cb])
                elif cb in positional:
                    j = positional.index(cb)
                    if j < len(args) and args[j] is not None:
                        args[j] = self.span(f"{RUN}.{cb}", args[j])
            return inner(*args, **kwargs)

        traced_run.__wrapped__ = fn
        traced_run.bench_span = RUN
        return traced_run

    def install(self) -> None:
        for layer in LAYERS:
            mod = sys.modules.get(f"skdv.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, FunctionType)
                        or fn.__module__ != mod.__name__ or hasattr(fn, "bench_span")):
                    continue
                name = f"{layer}.{attr}"
                traced = self._span_run(fn) if name == RUN else self.span(name, fn)
                rebind(fn, traced)
                self.wrapped.append(name)
        import numpy.fft  # noqa: F401  (numpy loads it lazily)

        for kname in KERNEL_MODULES:
            kmod = sys.modules.get(kname)
            if kmod is None:
                continue
            for attr, (factor, length_from) in TRANSFORMS.items():
                fn = getattr(kmod, attr, None)
                if fn is None or hasattr(fn, "bench_span"):
                    continue
                name = f"{kname}.{attr}"
                traced = self.span(
                    name, fn,
                    cost=lambda a, k, o, f=factor, lf=length_from: _fft_cost(f, lf, a, k, o))
                setattr(kmod, attr, traced)
                rebind(fn, traced)
                self.wrapped.append(name)

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            wrapped=np.array(self.wrapped, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            flops=np.frombuffer(self.flops, dtype=np.float64),
            nbytes=np.frombuffer(self.nbytes, dtype=np.float64),
        )


# per-layer metric -> (unit, functions whose absence makes the metric absent)
LAYER_METRICS = {
    "spectral.fft.calls_per_step": ("calls/step", KERNEL_NAMES),
    "spectral.fft.us_per_step": ("us/step", KERNEL_NAMES),
    "spectral.fft.gflop_per_step_computed": ("GFLOP/step", KERNEL_NAMES),
    "spectral.fft.mb_per_step_computed": ("MB/step", KERNEL_NAMES),
    "spectral.dealiased_product.calls_per_step": (
        "calls/step", ("spectral.dealiased_product", "spectral.dealiased_product_samples")),
    "spectral.dealiased_product.us_per_call": (
        "us/call", ("spectral.dealiased_product", "spectral.dealiased_product_samples")),
    "spectral.derivative_samples.calls_per_snapshot": (
        "calls/snapshot", ("spectral.derivative_samples",)),
    "integrator.run.us_per_step": ("us/step", (RUN,)),
    "integrator.nonfft.us_per_step": ("us/step", (RUN,)),
    "model.make_initial_data.ms": ("ms", ("model.make_initial_data",)),
    "cli.load_config.ms": ("ms", ("cli.load_config",)),
    "conservation.invariant_sample.us_per_call": ("us/call", ("conservation.invariant_sample",)),
    "conservation.estimate_gn_constant.ms": ("ms", ("conservation.estimate_gn_constant",)),
    "virial.functional_J2.calls_per_snapshot": ("calls/snapshot", ("virial.functional_J2",)),
    "virial.functional_J3.calls_per_snapshot": ("calls/snapshot", ("virial.functional_J3",)),
    "virial.residuals.us_per_snapshot": ("us/snapshot", (
        "virial.identity_residual_prop2", "virial.identity_residual_prop3",
        "virial.identity_residual_combined")),
    "decay.windowed_energy.calls_per_snapshot": ("calls/snapshot", ("decay.windowed_energy",)),
    "decay.windowed_energy.us_per_call": ("us/call", ("decay.windowed_energy",)),
    "decay.weighted_accumulator_step.us_per_call": (
        "us/call", ("decay.weighted_accumulator_step",)),
    "momentum.moment_sample.us_per_call": ("us/call", ("momentum.moment_sample",)),
    "cli.self_us_per_snapshot": ("us/snapshot", ("cli.main",)),
}


def layer_metrics(path, steps: int, snapshots: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced run: ({metric: value}, [absent metrics]).

    A metric whose functions were all missing from the program is absent:
    it is left out of the values, so that it can never read as a gain.  A
    function that exists but is never called on the workload gives 0.
    """
    import numpy as np

    with np.load(path) as z:
        names = [str(s) for s in z["names"]]
        wrapped = {str(s) for s in z["wrapped"]}
        nid, par = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        flops, nbytes = z["flops"], z["nbytes"]
    n = nid.size
    has_parent = par >= 0

    def named(*wanted):
        ids = [i for i, s in enumerate(names) if s in wanted]
        return np.isin(nid, ids)

    def under(mask):
        """Spans with a proper ancestor in ``mask``; parents precede children."""
        anc = np.zeros(n, dtype=bool)
        while True:
            new = np.zeros(n, dtype=bool)
            p = par[has_parent]
            new[has_parent] = mask[p] | anc[p]
            if np.array_equal(new, anc):
                return anc
            anc = new

    def total(mask):
        return float(dur[mask].sum())

    def per_call(mask):
        calls = int(mask.sum())
        return total(mask) / calls * 1e6 if calls else 0.0

    run = named(RUN)
    callback = named(*(f"{RUN}.{cb}" for cb in CALLBACKS))
    stepping = under(run) & ~callback & ~under(callback)
    step_kernel = named(*KERNEL_NAMES) & stepping
    stepping_s = total(run) - total(callback)

    dealiased = named("spectral.dealiased_product", "spectral.dealiased_product_samples")
    dealiased_outer = dealiased & ~under(dealiased)
    residual = named("virial.identity_residual_prop2", "virial.identity_residual_prop3",
                     "virial.identity_residual_combined")
    cli_main = named("cli.main")
    cli_children = has_parent & np.isin(par, np.nonzero(cli_main)[0])

    values = {
        "spectral.fft.calls_per_step": step_kernel.sum() / steps,
        "spectral.fft.us_per_step": total(step_kernel) / steps * 1e6,
        "spectral.fft.gflop_per_step_computed": float(flops[step_kernel].sum()) / steps / 1e9,
        "spectral.fft.mb_per_step_computed": float(nbytes[step_kernel].sum()) / steps / 1e6,
        "spectral.dealiased_product.calls_per_step": (dealiased_outer & stepping).sum() / steps,
        "spectral.dealiased_product.us_per_call": per_call(dealiased_outer),
        "spectral.derivative_samples.calls_per_snapshot":
            named("spectral.derivative_samples").sum() / snapshots,
        "integrator.run.us_per_step": stepping_s / steps * 1e6,
        "integrator.nonfft.us_per_step": (stepping_s - total(step_kernel)) / steps * 1e6,
        "model.make_initial_data.ms": total(named("model.make_initial_data")) * 1e3,
        "cli.load_config.ms": total(named("cli.load_config")) * 1e3,
        "conservation.invariant_sample.us_per_call": per_call(named("conservation.invariant_sample")),
        "conservation.estimate_gn_constant.ms":
            total(named("conservation.estimate_gn_constant")) * 1e3,
        "virial.functional_J2.calls_per_snapshot": named("virial.functional_J2").sum() / snapshots,
        "virial.functional_J3.calls_per_snapshot": named("virial.functional_J3").sum() / snapshots,
        "virial.residuals.us_per_snapshot": total(residual & ~under(residual)) / snapshots * 1e6,
        "decay.windowed_energy.calls_per_snapshot": named("decay.windowed_energy").sum() / snapshots,
        "decay.windowed_energy.us_per_call": per_call(named("decay.windowed_energy")),
        "decay.weighted_accumulator_step.us_per_call":
            per_call(named("decay.weighted_accumulator_step")),
        "momentum.moment_sample.us_per_call": per_call(named("momentum.moment_sample")),
        "cli.self_us_per_snapshot": (total(cli_main) - total(cli_children)) / snapshots * 1e6,
    }
    absent = sorted(m for m, (_, needs) in LAYER_METRICS.items()
                    if not wrapped.intersection(needs))
    return {m: float(v) for m, v in values.items() if m not in absent}, absent
