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
from .spectral import ComplexField, RealField, dealiased_product_samples

__all__ = [
    "StepperConfig",
    "BlowUpError",
    "RunResult",
    "dispersion_step",
    "run",
]


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite values at ``time``; ``result``
    holds the run up to the last finite state."""

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

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("strang", "lie"):
            raise ValueError(f"scheme must be 'strang' or 'lie', got {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        """Steps of size dt to t_end; a ValueError unless t_end is a whole
        number of them."""
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        return n


@dataclass
class RunResult:
    final_state: SystemState
    snapshots: list = dc_field(default_factory=list)


def _dispersion_factors(grid, dt: float):
    k = grid.wavenumbers
    return np.exp(-1j * k**2 * dt), np.exp(1j * k**3 * dt)


def _disperse(u, v, factors, u_out=None, v_out=None):
    """Free evolution through ``factors`` from ``_dispersion_factors``:
    u_hat *= fu, v_hat *= fv.  Each field is transformed in place in its
    complex output array (fresh when not given); returns (u, v)."""
    fu, fv = factors
    n = u.shape[0]
    u_out = np.empty(n, np.complex128) if u_out is None else u_out
    v_out = np.empty(n, np.complex128) if v_out is None else v_out
    np.fft.fft(u, out=u_out)
    u_out *= fu
    np.fft.ifft(u_out, out=u_out)
    v_out[...] = v
    np.fft.fft(v_out, out=v_out)
    v_out *= fv
    np.fft.ifft(v_out, out=v_out)
    return u_out, v_out.real


def dispersion_step(state: SystemState, dt: float) -> SystemState:
    """Exact free evolution: u_hat *= exp(-i k^2 dt), v_hat *= exp(i k^3 dt)."""
    grid = state.grid
    u, v = _disperse(state.u.samples, state.v.samples, _dispersion_factors(grid, dt))
    return SystemState(ComplexField(grid, u), RealField(grid, v.copy()), state.time + dt)


class _Work:
    """The arrays a run steps in, allocated once: the spectra of the first
    dispersion step (v_hat also takes v in the last one of a Strang step),
    the flux spectrum (which also takes conj(u) and the dealiased products),
    gamma*|u|^2, the RK4 stage argument, the running RK4 sum (then the new
    v) and the latest RK4 stage."""

    def __init__(self, grid):
        n = grid.num_points
        self.grid = grid
        self.u_hat, self.v_hat, self.flux_hat = (np.empty(n, np.complex128) for _ in range(3))
        self.gamma_u_sq, self.stage, self.total, self.k = (np.empty(n) for _ in range(4))


def _nonlinear_substep(work: _Work, u, v, dt, params: ModelParams, u_out=None, v_out=None):
    """Raw-array nonlinear step, written into ``u_out`` and ``v_out`` when
    given, else into u itself and the work arrays.

    |u| is exactly invariant under the nonlinear subflow (the u equation is
    a pure phase rotation), so the v step with |u|^2 frozen introduces no
    splitting error from u.  v does evolve during the substep, so the phase
    rotation uses the trapezoidal average of v over the step to stay second
    order.
    """
    grid, hat = work.grid, work.flux_hat
    u_sq = dealiased_product_samples(grid, [u, np.conjugate(u, out=hat)], out=hat).real

    ik = grid.derivative_multiplier(1)
    gamma_term = np.multiply(params.gamma, u_sq, out=work.gamma_u_sq)

    def flux(w, k):
        """k = -d/dx (w^2/2 - gamma*|u|^2)."""
        w_sq = dealiased_product_samples(grid, [w, w], out=hat).real
        np.multiply(0.5, w_sq, out=k)
        k -= gamma_term
        hat[...] = k
        np.fft.fft(hat, out=hat)
        np.multiply(ik, hat, out=hat)
        np.fft.ifft(hat, out=hat)
        return np.negative(hat.real, out=k)

    # RK4: v + (dt/6)*(k1 + 2*k2 + 2*k3 + k4), the sum taken left to right
    # as the stages come, so that one array holds each new stage
    total, k, stage = work.total, work.k, work.stage
    flux(v, total)
    for i, h in enumerate((0.5 * dt, 0.5 * dt, dt)):
        np.add(v, np.multiply(h, k if i else total, out=stage), out=stage)
        if i:
            k *= 2.0
            total += k
        flux(stage, k)
    total += k
    total *= dt / 6.0
    v_new = np.add(v, total, out=total if v_out is None else v_out)

    # u -> u * exp(-i*(alpha*v_avg + beta*|u|^2)*dt); |u| preserved pointwise.
    # The stages are spent, so their arrays hold the terms.
    v_avg = np.add(v, v_new, out=k)
    v_avg *= 0.5
    v_avg *= params.alpha
    beta_u_sq = np.abs(u, out=stage)
    beta_u_sq **= 2
    beta_u_sq *= params.beta
    v_avg += beta_u_sq
    phase = np.multiply(-1j, v_avg, out=hat)
    phase *= dt
    np.exp(phase, out=phase)
    return np.multiply(u, phase, out=u if u_out is None else u_out), v_new


def run(
    state0: SystemState,
    config: StepperConfig,
    params: ModelParams,
    on_snapshot=None,
    keep_snapshots: bool = True,
) -> RunResult:
    """Advance state0 to t_end.

    ``on_snapshot(state)`` is called every ``snapshot_stride`` steps and at t=0.
    Snapshots (including the initial state) are retained unless
    ``keep_snapshots`` is False.
    """
    grid = state0.grid
    dt = config.dt
    n_steps = config.n_steps

    if config.scheme == "strang":
        f_half = _dispersion_factors(grid, 0.5 * dt)
    else:
        f_full = _dispersion_factors(grid, dt)

    result = RunResult(final_state=state0)
    if keep_snapshots:
        result.snapshots.append(state0)
    if on_snapshot is not None:
        on_snapshot(state0)

    # only the arrays of each new state are fresh, so no state handed out
    # shares memory with the work arrays or with another state
    work = _Work(grid)
    u, v = state0.u.samples, state0.v.samples
    for step in range(1, n_steps + 1):
        if config.scheme == "strang":
            u, v = _disperse(u, v, f_half, work.u_hat, work.v_hat)
            u, v = _nonlinear_substep(work, u, v, dt, params)
            u, v = _disperse(u, v, f_half, v_out=work.v_hat)
            v = v.copy()  # the new state's own real array, not a view of v_hat
        else:
            u, v = _disperse(u, v, f_full, work.u_hat, work.v_hat)
            u, v = _nonlinear_substep(
                work, u, v, dt, params, np.empty_like(u), np.empty(grid.num_points))
        t = state0.time + step * dt

        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise BlowUpError(f"non-finite values at t={t:g}", t, result)

        state = SystemState(ComplexField(grid, u), RealField(grid, v), t)
        result.final_state = state
        if step % config.snapshot_stride == 0 or step == n_steps:
            if keep_snapshots:
                result.snapshots.append(state)
            if on_snapshot is not None:
                on_snapshot(state)
                # a state of its own from here on, so that the arrays the
                # callback cached on the snapshot are freed once it lets the
                # snapshot go, not held through the next step
                state = result.final_state = SystemState(
                    ComplexField(grid, u), RealField(grid, v), t)

    return result
