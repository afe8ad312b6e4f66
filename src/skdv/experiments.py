"""The experiments behind the ``skdv`` subcommands and the acceptance
criteria, each in one place.

Each returns numbers: the CLI prints them and the acceptance tests assert
on them.  Every stepper call goes through the module-level ``run``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from . import conservation, decay, virial
from .integrator import StepperConfig, run
from .model import ModelParams, SystemState, kdv_soliton_profile
from .spectral import ComplexField, RealField, SpectralGrid

__all__ = ["DecayScan", "analytic_errors", "decay_scan", "drift_halving", "identity_window"]


def identity_window(
    state0: SystemState, params: ModelParams, vcfg: virial.VirialConfig, dts,
    t_center: float, scheme: str = "strang",
) -> list[tuple]:
    """Virial identity residuals at ``t_center`` for each step size in ``dts``:
    rows (dt, |res_prop2|, |res_prop3|, |res_combined|, coefficient sum).

    Each run steps to t_center + 2*dt keeping its last five states, so the
    five-point stencil is centred at t_center.  The mixed terms cancel only
    under theta3 = 'auto'; otherwise the last two columns are nan.
    """
    auto = vcfg.theta3 == "auto"
    coeff = (-2.0 * vcfg.theta2 * params.gamma + vcfg.theta3_value(params) * params.alpha
             if auto else np.nan)
    rows = []
    for dt in dts:
        n_center = int(round(t_center / dt))
        last5 = deque(maxlen=5)
        run(state0, StepperConfig(dt=dt, t_end=(n_center + 2) * dt, scheme=scheme), params,
            on_snapshot=last5.append, keep_snapshots=False)
        r2, r3 = virial.window_residuals([virial.window_entry(s, vcfg, params) for s in last5])
        combined = abs(r2.residual + r3.residual) if auto else np.nan
        rows.append((dt, abs(r2.residual), abs(r3.residual), combined, coeff))
    return rows


def analytic_errors(grid: SpectralGrid) -> tuple[float, float]:
    """L2 errors of the decoupled system against two closed forms: the free
    Schrodinger evolution of exp(-x^2) at t = 1, and the c = 1 KdV soliton
    at t = 5, compared with the soliton profile centred at x = 5."""
    x = grid.x
    free = ModelParams(alpha=0.0, beta=0.0, gamma=0.0)

    state = SystemState(ComplexField(grid, np.exp(-(x**2)).astype(complex)),
                        RealField(grid, np.zeros_like(x)), 0.0)
    u = run(state, StepperConfig(dt=1e-3, t_end=1.0), free,
            keep_snapshots=False).final_state.u.samples
    sigma = 1.0 + 4.0j
    exact_u = np.exp(-(x**2) / sigma) / np.sqrt(sigma)
    err_u = float(np.sqrt(grid.spacing * np.sum(np.abs(u - exact_u) ** 2)))

    v0 = kdv_soliton_profile(x, 1.0)
    state = SystemState(ComplexField(grid, np.zeros_like(x, dtype=complex)),
                        RealField(grid, v0), 0.0)
    v = run(state, StepperConfig(dt=5e-4, t_end=5.0), free,
            keep_snapshots=False).final_state.v.samples
    exact_v = kdv_soliton_profile(x - 5.0, 1.0)
    err_v = float(np.sqrt(grid.spacing * np.sum((v - exact_v) ** 2)))
    return err_u, err_v


def drift_halving(state0: SystemState, params: ModelParams, dts, t_end: float) -> list[tuple]:
    """Drift of Q and E from t = 0 to ``t_end`` for each step size in
    ``dts``: rows (dt, |Q drift|, |E drift|)."""
    q0 = conservation.q_momentum(state0, params)
    e0 = conservation.energy(state0, params)
    rows = []
    for dt in dts:
        final = run(state0, StepperConfig(dt=dt, t_end=t_end), params,
                    keep_snapshots=False).final_state
        rows.append((dt, abs(conservation.q_momentum(final, params) - q0),
                     abs(conservation.energy(final, params) - e0)))
    return rows


class DecayScan(NamedTuple):
    """The mixed and grad-v windowed energies at each snapshot with t > 0,
    the accumulator values after each snapshot with t >= 2 (one dict per
    snapshot) and the accumulators themselves."""

    times: list
    mixed: list
    grad_v: list
    acc_rows: list
    accumulators: dict


def decay_scan(
    state0: SystemState, stepper: StepperConfig, params: ModelParams, window: decay.WindowSpec,
    vcfg: virial.VirialConfig, power_exponent: float,
) -> DecayScan:
    """Windowed energies and weighted accumulators along one run."""
    scan = DecayScan([], [], [], [], decay.make_accumulators())

    def on_snapshot(s):
        if s.time <= 0:
            return
        scan.times.append(s.time)
        scan.mixed.append(decay.windowed_energy(s, window, "mixed", params).value)
        scan.grad_v.append(decay.windowed_energy(s, window, "grad_v", params).value)
        if s.time >= 2:
            decay.weighted_accumulator_step(s, vcfg, params, scan.accumulators, power_exponent)
            scan.acc_rows.append({tag: acc.value for tag, acc in scan.accumulators.items()})

    run(state0, stepper, params, on_snapshot=on_snapshot, keep_snapshots=False)
    return scan
