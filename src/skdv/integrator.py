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
from .spectral import ComplexField, RealField, dealiased_product_samples, fourier_multiply

__all__ = [
    "StepperConfig",
    "BlowUpError",
    "RunResult",
    "run",
]


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite values at ``time``; ``result``
    holds the run up to the last finite state."""

    def __init__(self, message: str, time: float, result: "RunResult"):
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


def _dispersion_factors(grid, dt: float) -> np.ndarray:
    """The (2, N) free-evolution factors of u and v over dt, stacked like
    the rows of ``_Work.uv``."""
    k = grid.wavenumbers
    return np.stack([np.exp(-1j * k**2 * dt), np.exp(1j * k**3 * dt)])


class _Work:
    """The arrays a run steps in, allocated once: the current u and v as the
    two rows of one (2, N) complex array ``uv`` (v's row with real part v),
    which the dispersion steps transform in place and the nonlinear substep
    advances through the row views ``u`` and ``v``; the flux spectrum (which
    also takes conj(u), the dealiased products and the phase),
    gamma*|u|^2, the RK4 stage argument, the running RK4 sum (then the new
    v) and the latest RK4 stage."""

    def __init__(self, state: SystemState):
        n = state.grid.num_points
        self.grid = state.grid
        self.uv = np.empty((2, n), np.complex128)
        self.u, self.v = self.uv
        self.u[...] = state.u.samples
        self.v[...] = state.v.samples
        self.flux_hat = np.empty(n, np.complex128)
        self.gamma_u_sq, self.stage, self.total, self.k = (np.empty(n) for _ in range(4))


def _disperse(work: _Work, factors):
    """Free evolution through ``factors`` from ``_dispersion_factors``, in
    place: one ``fourier_multiply`` over u and v, whose two-row transforms
    give each row bit for bit its one-row transform.  v keeps the real part
    only."""
    fourier_multiply(work.uv, factors, out=work.uv)
    work.v.imag = 0.0


def _nonlinear_substep(work: _Work, dt, params: ModelParams):
    """The nonlinear step of the work set's u and v, in place.

    |u| is exactly invariant under the nonlinear subflow (the u equation is
    a pure phase rotation), so the v step with |u|^2 frozen introduces no
    splitting error from u.  v does evolve during the substep, so the phase
    rotation uses the trapezoidal average of v over the step to stay second
    order.
    """
    grid, hat, u, v = work.grid, work.flux_hat, work.u, work.v.real
    u_sq = dealiased_product_samples(grid, [u, np.conjugate(u, out=hat)], out=hat).real
    gamma_term = np.multiply(params.gamma, u_sq, out=work.gamma_u_sq)

    def flux(w, k):
        """k = -d/dx (w^2/2 - gamma*|u|^2)."""
        w_sq = dealiased_product_samples(grid, [w, w], out=hat).real
        np.multiply(0.5, w_sq, out=k)
        k -= gamma_term
        return np.negative(fourier_multiply(k, grid.ik, out=hat).real, out=k)

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
    v_new = np.add(v, total, out=total)

    # u -> u * exp(-i*(alpha*v_avg + beta*|u|^2)*dt); |u| preserved pointwise.
    # The stages are spent, so their arrays hold the terms.
    v_avg = np.add(v, v_new, out=k)
    work.v[...] = v_new
    v_avg *= 0.5
    v_avg *= params.alpha
    beta_u_sq = np.abs(u, out=stage)
    beta_u_sq **= 2
    beta_u_sq *= params.beta
    v_avg += beta_u_sq
    phase = np.multiply(-1j, v_avg, out=hat)
    phase *= dt
    np.exp(phase, out=phase)
    u *= phase


def _state(grid, u, v, t) -> SystemState:
    return SystemState(ComplexField(grid, u), RealField(grid, v), t)


def run(
    state0: SystemState,
    config: StepperConfig,
    params: ModelParams,
    on_snapshot=None,
    keep_snapshots: bool = False,
) -> RunResult:
    """Advance state0 to t_end.

    ``on_snapshot(state)`` is called every ``snapshot_stride`` steps and at t=0.
    Snapshots (including the initial state) are retained in
    ``RunResult.snapshots`` only when ``keep_snapshots`` is True.
    """
    grid = state0.grid
    dt = config.dt
    n_steps = config.n_steps

    strang = config.scheme == "strang"
    factors = _dispersion_factors(grid, 0.5 * dt if strang else dt)

    result = RunResult(final_state=state0)

    def hand_out(state):
        if keep_snapshots:
            result.snapshots.append(state)
        if on_snapshot is not None:
            on_snapshot(state)

    hand_out(state0)

    # each step's arrays are copied out of the work set, and a state is
    # built only for a step handed out (a snapshot, the final step, or the
    # last finite step of a blow-up), so no state shares memory with the
    # work arrays or with a state of another step.  Unless it keeps them,
    # the run holds no snapshot past its callback, so the arrays a callback
    # cached on a snapshot are freed once the callback lets it go.
    work = _Work(state0)
    u = v = None  # the arrays of the last finite step, at time t
    for step in range(1, n_steps + 1):
        _disperse(work, factors)
        _nonlinear_substep(work, dt, params)
        if strang:
            _disperse(work, factors)

        t_step = state0.time + step * dt
        if not np.isfinite(work.uv).all():
            if u is not None:
                result.final_state = _state(grid, u, v, t)
            raise BlowUpError(f"non-finite values at t={t_step:g}", t_step, result)
        u, v, t = work.u.copy(), work.v.real.copy(), t_step
        if step % config.snapshot_stride == 0 or step == n_steps:
            hand_out(_state(grid, u, v, t))

    result.final_state = _state(grid, u, v, t)
    return result
