"""Split-step time integration.

Dispersion is advanced exactly in transform space; the nonlinear part
advances u by a pointwise phase rotation (v frozen) and v by an explicit
RK4 step on the conservative flux (|u|^2 frozen), in that fixed order.
The Strang composition dispersion(dt/2) o nonlinear(dt) o dispersion(dt/2)
is second order; Lie splitting dispersion(dt) o nonlinear(dt) is first.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import ModelParams, SystemState
from .spectral import ComplexField, RealField, dealiased_product_samples, h1_norm

__all__ = [
    "StepperConfig",
    "BlowUpError",
    "RunResult",
    "dispersion_step",
    "run",
]


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite values or the H1 guard trips at
    ``time``; ``result`` holds the run up to the last finite state."""

    def __init__(self, message: str, time: float, result: "RunResult | None" = None):
        super().__init__(message)
        self.time = time
        self.result = result


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    scheme: str = "strang"
    snapshot_stride: int = 1
    h1_cap: float = np.inf  # blow-up guard on ||v||_H1; set from the a priori bound

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("strang", "lie"):
            raise ValueError(f"scheme must be 'strang' or 'lie', got {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass
class RunResult:
    final_state: SystemState
    snapshots: list = dc_field(default_factory=list)


def _dispersion_factors(grid, dt: float):
    k = grid.wavenumbers
    return np.exp(-1j * k**2 * dt), np.exp(1j * k**3 * dt)


def dispersion_step(state: SystemState, dt: float) -> SystemState:
    """Exact free evolution: u_hat *= exp(-i k^2 dt), v_hat *= exp(i k^3 dt)."""
    grid = state.grid
    fu, fv = _dispersion_factors(grid, dt)
    u = np.fft.ifft(np.fft.fft(state.u.samples) * fu)
    v = np.fft.ifft(np.fft.fft(state.v.samples) * fv).real
    return SystemState(ComplexField(grid, u), RealField(grid, v), state.time + dt)


def _nonlinear_substep(grid, u, v, dt, params: ModelParams):
    """Raw-array nonlinear step.

    |u| is exactly invariant under the nonlinear subflow (the u equation is
    a pure phase rotation), so the v step with |u|^2 frozen introduces no
    splitting error from u.  v does evolve during the substep, so the phase
    rotation uses the trapezoidal average of v over the step to stay second
    order.
    """
    u_sq = dealiased_product_samples(grid, [u, np.conj(u)]).real

    ik = grid.derivative_multiplier(1)
    gamma_term = params.gamma * u_sq

    def flux(w):
        w_sq = dealiased_product_samples(grid, [w, w]).real
        return -np.fft.ifft(ik * np.fft.fft(0.5 * w_sq - gamma_term)).real

    k1 = flux(v)
    k2 = flux(v + 0.5 * dt * k1)
    k3 = flux(v + 0.5 * dt * k2)
    k4 = flux(v + dt * k3)
    v_new = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # u -> u * exp(-i*(alpha*v_avg + beta*|u|^2)*dt); |u| preserved pointwise
    v_avg = 0.5 * (v + v_new)
    u_new = u * np.exp(-1j * (params.alpha * v_avg + params.beta * np.abs(u) ** 2) * dt)
    return u_new, v_new


def run(
    state0: SystemState,
    config: StepperConfig,
    params: ModelParams,
    per_step=None,
    on_snapshot=None,
    keep_snapshots: bool = True,
) -> RunResult:
    """Advance state0 to t_end.

    ``per_step(state)`` is called after every step (for accumulators);
    ``on_snapshot(state)`` every ``snapshot_stride`` steps and at t=0.
    Snapshots (including the initial state) are retained unless
    ``keep_snapshots`` is False.
    """
    grid = state0.grid
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    if abs(n_steps * dt - config.t_end) > 1e-9 * config.t_end:
        raise ValueError("t_end must be an integer multiple of dt")

    if config.scheme == "strang":
        f_half = _dispersion_factors(grid, 0.5 * dt)
    else:
        f_full = _dispersion_factors(grid, dt)

    result = RunResult(final_state=state0)
    state = state0
    if keep_snapshots:
        result.snapshots.append(state)
    if on_snapshot is not None:
        on_snapshot(state)

    u, v = state.u.samples, state.v.samples
    t = state.time
    for step in range(1, n_steps + 1):
        if config.scheme == "strang":
            fu, fv = f_half
            u = np.fft.ifft(np.fft.fft(u) * fu)
            v = np.fft.ifft(np.fft.fft(v) * fv).real
            u, v = _nonlinear_substep(grid, u, v, dt, params)
            u = np.fft.ifft(np.fft.fft(u) * fu)
            v = np.fft.ifft(np.fft.fft(v) * fv).real
        else:
            fu, fv = f_full
            u = np.fft.ifft(np.fft.fft(u) * fu)
            v = np.fft.ifft(np.fft.fft(v) * fv).real
            u, v = _nonlinear_substep(grid, u, v, dt, params)
        t = state0.time + step * dt

        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise BlowUpError(f"non-finite values at t={t:g}", t, result)
        if np.isfinite(config.h1_cap) and h1_norm(RealField(grid, v)) > config.h1_cap:
            raise BlowUpError(
                f"||v||_H1 exceeded blow-up guard {config.h1_cap:g} at t={t:g}", t, result
            )

        state = SystemState(ComplexField(grid, u), RealField(grid, v), t)
        result.final_state = state
        if per_step is not None:
            per_step(state)
        if step % config.snapshot_stride == 0 or step == n_steps:
            if keep_snapshots:
                result.snapshots.append(state)
            if on_snapshot is not None:
                on_snapshot(state)

    return result
