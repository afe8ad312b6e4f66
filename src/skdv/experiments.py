"""The experiments behind the ``skdv`` subcommands and the acceptance
criteria, each in one place, and the rows of ``skdv run``'s CSVs.

Each returns numbers: the CLI prints or writes them and the acceptance
tests assert on them.  Every stepper call goes through the module-level ``run``.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import NamedTuple

import numpy as np

from . import conservation, decay, momentum, virial
from .integrator import BlowUpError, StepperConfig, run
from .model import (BOUNDARY_TOLERANCE, ModelParams, SystemState, boundary_mass,
                    kdv_soliton_profile)
from .spectral import ComplexField, RealField, SpectralGrid, l2_norm

__all__ = ["ACC_COLUMNS", "CSV_COLUMNS", "DecayScan", "WINDOWED", "analytic_errors",
           "decay_sample", "decay_scan", "drift_halving", "identity_window", "run_tables"]

# (decay.csv column, windowed_energy kind): the windowed energies `skdv run`
# writes, in the order of their columns
WINDOWED = (("E_mixed", "mixed"), ("E_coupling", "coupling"), ("E_gradu", "grad_u"),
            ("E_gradv", "grad_v"), ("E_uk", "power_u"), ("E_vk", "power_v"))
# (decay.csv column, accumulator tag): the accumulators `skdv run` advances,
# in the order of their columns
ACC_COLUMNS = (
    ("acc_mixed", "mixed_kdv"),
    ("acc_coupling", "schrodinger_coupling"),
    ("acc_gradu", "gradient_u"),
    ("acc_gradv", "gradient_v"),
    ("acc_quartic", "quartic_u"),
)
# each CSV `skdv run` writes -> its columns, in the order of its rows
CSV_COLUMNS = {
    "invariants.csv": ("t", "mass", "q", "energy", "u_h1", "v_h1", "margin"),
    "virial.csv": ("t", "J2", "J3", "res_prop2", "res_prop3", "res_combined"),
    "decay.csv": ("t", "window_p", "window_m", *(column for column, _ in WINDOWED),
                  *(column for column, _ in ACC_COLUMNS)),
    "moments.csv": ("t", "B", "Umom", "F", "predicted_slope"),
    "flags.csv": ("t", "boundary_mass", "blowup", "window_clipped"),
}


def identity_window(
    state0: SystemState, params: ModelParams, vcfg: virial.VirialConfig, dts,
    t_center: float, scheme: str = "strang",
) -> list[tuple]:
    """Virial identity residuals at ``t_center`` for each step size in ``dts``:
    rows (dt, |res_prop2|, |res_prop3|, |res_combined|, coefficient sum,
    boundary mass at t_center).

    Each run steps to t_center + 2*dt keeping its last five states, so the
    five-point stencil is centred at t_center.  The mixed terms cancel only
    under theta3 = 'auto'; otherwise the combined residual and the
    coefficient sum are nan.
    """
    rows = []
    for dt in dts:
        n_center = int(round(t_center / dt))
        last5 = deque(maxlen=5)
        run(state0, StepperConfig(dt=dt, t_end=(n_center + 2) * dt, scheme=scheme), params,
            on_snapshot=last5.append)
        window = [virial.window_entry(s, vcfg, params) for s in last5]
        r2, r3, res_c = (abs(r) for r in _residuals(window, vcfg))
        coeff = np.nan if np.isnan(res_c) else vcfg.coefficient_sum(params)
        rows.append((dt, r2, r3, res_c, coeff, boundary_mass(last5[2])))
    return rows


def analytic_errors(grid: SpectralGrid) -> tuple[float, float]:
    """L2 errors of the decoupled system against two closed forms: the free
    Schrodinger evolution of exp(-x^2) at t = 1, and the c = 1 KdV soliton
    at t = 5, compared with the soliton profile centred at x = 5."""
    x = grid.x
    free = ModelParams(alpha=0.0, beta=0.0, gamma=0.0)

    state = SystemState(ComplexField(grid, np.exp(-(x**2)).astype(complex)),
                        RealField(grid, np.zeros_like(x)), 0.0)
    u = run(state, StepperConfig(dt=1e-3, t_end=1.0), free).final_state.u.samples
    sigma = 1.0 + 4.0j
    exact_u = np.exp(-(x**2) / sigma) / np.sqrt(sigma)
    err_u = l2_norm(ComplexField(grid, u - exact_u))

    v0 = kdv_soliton_profile(x, 1.0)
    state = SystemState(ComplexField(grid, np.zeros_like(x, dtype=complex)),
                        RealField(grid, v0), 0.0)
    v = run(state, StepperConfig(dt=5e-4, t_end=5.0), free).final_state.v.samples
    exact_v = kdv_soliton_profile(x - 5.0, 1.0)
    err_v = l2_norm(RealField(grid, v - exact_v))
    return err_u, err_v


def drift_halving(state0: SystemState, params: ModelParams, dts, t_end: float) -> list[tuple]:
    """Drift of Q and E from t = 0 to ``t_end`` for each step size in
    ``dts``: rows (dt, |Q drift|, |E drift|)."""
    q0 = conservation.q_momentum(state0, params)
    e0 = conservation.energy(state0, params)
    rows = []
    for dt in dts:
        final = run(state0, StepperConfig(dt=dt, t_end=t_end), params).final_state
        rows.append((dt, abs(conservation.q_momentum(final, params) - q0),
                     abs(conservation.energy(final, params) - e0)))
    return rows


def decay_sample(s: SystemState, window: decay.WindowSpec, params: ModelParams,
                 vcfg: virial.VirialConfig, power_exponent: float,
                 accumulators: dict) -> tuple[list, bool]:
    """``s``'s windowed energies in WINDOWED order (nan at t = 0) and whether
    their window is clipped; from t = 2 on, ``accumulators`` advance past ``s``."""
    if s.time <= 0:
        return [np.nan] * len(WINDOWED), False
    found = [decay.windowed_energy(s, window, kind, params, 2.0 + power_exponent)
             for _, kind in WINDOWED]
    if s.time >= virial.T_START:
        decay.weighted_accumulator_step(s, vcfg, params, accumulators, power_exponent)
    return [we.value for we in found], found[0].clipped  # every kind reads the same window


def _residuals(window, vcfg: virial.VirialConfig) -> tuple:
    """prop2, prop3 and combined residuals at the centre of a window of 5
    WindowEntry, combined nan unless theta3 = 'auto'; a ValueError unless
    the window is evenly spaced and centred at t >= 2."""
    r2, r3 = virial.identity_residual_prop2(window), virial.identity_residual_prop3(window)
    combined = virial.identity_residual_combined(r2, r3, vcfg)
    return r2.residual, r3.residual, np.nan if combined is None else combined.residual


def run_tables(state0: SystemState, stepper: StepperConfig, params: ModelParams,
               vcfg: virial.VirialConfig, window: decay.WindowSpec, power_exponent: float,
               phi: float, slope: float, write) -> tuple[int, float]:
    """Step from ``state0``, passing each row of the CSV_COLUMNS files to
    ``write(name, row)``, ``phi`` (nan for none) and ``slope`` setting the
    margin and predicted_slope columns: (snapshots, largest boundary mass).
    A snapshot's rows wait, as numbers, for the two snapshots its residual
    window needs; a blow-up flags the last finite one, then propagates."""
    accumulators = decay.make_accumulators([tag for _, tag in ACC_COLUMNS])
    entries = deque(maxlen=5)  # virial.WindowEntry of the latest snapshots
    waiting = deque()  # {file name: row} of each snapshot not yet written
    count, largest = 0, 0.0

    def on_snapshot(s):
        nonlocal count, largest
        count += 1
        entries.append(virial.window_entry(s, vcfg, params))
        inv = conservation.invariant_sample(s, params)
        margin = phi - (inv.u_h1 + inv.v_h1) if np.isfinite(phi) else np.nan
        energies, clipped = decay_sample(s, window, params, vcfg, power_exponent, accumulators)
        ms = momentum.moment_sample(s, params)
        bmass = boundary_mass(s)
        largest = max(largest, bmass)
        waiting.append({
            "invariants.csv": (s.time, inv.mass, inv.q_momentum, inv.energy, inv.u_h1,
                               inv.v_h1, margin),
            "virial.csv": [s.time, entries[-1].j2, entries[-1].j3, np.nan, np.nan, np.nan],
            "decay.csv": (s.time, window.exponent, window.center_exponent, *energies,
                          *(a.value for a in accumulators.values())),
            "moments.csv": (s.time, ms.b_moment, ms.u_moment, ms.f_moment, slope),
            "flags.csv": [s.time, bmass, False, clipped],
        })
        if len(waiting) == 3:
            with contextlib.suppress(ValueError):  # nan: a short or uneven window, or t < 2
                waiting[0]["virial.csv"][3:] = _residuals(entries, vcfg)
            for name, row in waiting.popleft().items():
                write(name, row)

    try:
        run(state0, stepper, params, on_snapshot=on_snapshot)
    except BlowUpError:
        waiting[-1]["flags.csv"][2] = True  # the last finite snapshot
        raise
    finally:
        for rows in waiting:
            for name, row in rows.items():
                write(name, row)
    return count, largest


class DecayScan(NamedTuple):
    """At each snapshot with t >= 2: its time, the mixed and grad-v windowed
    energies and the accumulator values after it (one dict per snapshot);
    over all snapshots, the largest boundary mass and the first time it was
    above BOUNDARY_TOLERANCE (nan if never)."""

    times: list
    mixed: list
    grad_v: list
    acc_rows: list
    largest_boundary_mass: float
    edge_time: float


def decay_scan(
    state0: SystemState, stepper: StepperConfig, params: ModelParams, window: decay.WindowSpec,
    vcfg: virial.VirialConfig, power_exponent: float,
) -> DecayScan:
    """Windowed energies and weighted accumulators along one run, from
    t = 2 on, where the accumulators start: `skdv run`'s decay samples."""
    scan, accumulators = DecayScan([], [], [], [], 0.0, np.nan), decay.make_accumulators()
    largest, edge_time = 0.0, np.nan

    def on_snapshot(s):
        nonlocal largest, edge_time
        bmass = boundary_mass(s)
        largest = max(largest, bmass)
        if bmass > BOUNDARY_TOLERANCE and np.isnan(edge_time):
            edge_time = s.time
        if s.time < virial.T_START:
            return
        energies, _ = decay_sample(s, window, params, vcfg, power_exponent, accumulators)
        scan.times.append(s.time)
        scan.mixed.append(energies[0])  # E_mixed
        scan.grad_v.append(energies[3])  # E_gradv
        scan.acc_rows.append({tag: acc.value for tag, acc in accumulators.items()})

    run(state0, stepper, params, on_snapshot=on_snapshot)
    return scan._replace(largest_boundary_mass=largest, edge_time=edge_time)
