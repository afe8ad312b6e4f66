"""One benchmark run in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job file (written by run.py) names the workload, the INI config, the
mode ("setup": import skdv and build the config and initial state, then
stop; "run": the whole workload) and whether to trace.  The child writes a
JSON result next to the job file: clock readings, peak RSS, and the data
the correctness check needs, which is gathered after the timed region.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _invariant_drift(states) -> dict:
    """Mass and int(v) drift over the states, computed with numpy alone."""
    import numpy as np

    first = states[0]
    dx = first.grid.spacing
    mass0 = dx * float(np.sum(np.abs(first.u.samples) ** 2))
    vint0 = dx * float(np.sum(first.v.samples))
    mass_drift = vint_drift = 0.0
    finite = True
    for s in states:
        u, v = s.u.samples, s.v.samples
        finite = finite and bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v)))
        mass_drift = max(mass_drift, abs(dx * float(np.sum(np.abs(u) ** 2)) - mass0) / mass0)
        vint_drift = max(vint_drift, abs(dx * float(np.sum(v)) - vint0))
    return {"states": len(states), "finite": finite, "mass0": mass0, "vint0": vint0,
            "mass_rel_drift": mass_drift, "vint_drift": vint_drift}


def _run(job: dict, out: dict) -> None:
    from skdv import cli, decay, integrator, model  # cli imports every other layer

    import spans

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()

    # Hooks outside any span: the first initial state marks the end of
    # set-up, and the stepper's result is kept for the invariant check.
    seen = {}
    make_initial_data, run = model.make_initial_data, integrator.run

    def initial_hook(*args, **kwargs):
        state = make_initial_data(*args, **kwargs)
        if "initial" not in seen:
            seen["initial"] = state
            out["t_setup"] = time.perf_counter()
        return state

    def run_hook(*args, **kwargs):
        seen["result"] = result = run(*args, **kwargs)
        return result

    spans.rebind(make_initial_data, initial_hook)
    spans.rebind(run, run_hook)

    ini = job["ini_path"]
    if job["mode"] == "setup" or not job["cli"]:
        cfg = cli.load_config(ini)
        threshold = 1e-6 if job["cli"] else 1e-8
        state0 = model.make_initial_data(cfg.initial, cfg.grid, boundary_threshold=threshold)
    if job["mode"] == "setup":
        out["t_end"] = out["t_setup"]
    elif job["cli"]:
        out["exit_code"] = cli.main(["run", ini])
        out["t_end"] = time.perf_counter()
    else:
        params = cfg.params
        accumulators = decay.make_accumulators()
        series = {"t": [], "mixed": [], "grad_v": [], "acc": []}

        def on_snapshot(s):
            if s.time < 2.0:
                return
            series["t"].append(s.time)
            series["mixed"].append(decay.windowed_energy(s, cfg.window, "mixed", params).value)
            series["grad_v"].append(decay.windowed_energy(s, cfg.window, "grad_v", params).value)
            decay.weighted_accumulator_step(s, cfg.virial, params, accumulators,
                                            cfg.power_exponent)
            series["acc"].append({tag: accumulators[tag].value for tag in decay.ACCUMULATOR_TAGS})

        integrator.run(state0, cfg.stepper, params, on_snapshot=on_snapshot,
                       keep_snapshots=False)
        out["t_end"] = time.perf_counter()
        out["exit_code"] = 0
        out["series"] = series
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if job["mode"] == "run":
        result = seen["result"]
        states = [seen["initial"], *result.snapshots, result.final_state]
        out["invariants"] = _invariant_drift(states)
    if tracer is not None:
        tracer.save(job["spans_path"])


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = {"ok": False}
    try:
        _run(job, out)
        out["ok"] = True
    except Exception:
        out["error"] = traceback.format_exc()
    Path(job["result_path"]).write_text(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
