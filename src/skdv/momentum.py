"""First-moment functionals and their exact linear-drift laws.

B(t) = int x v dx obeys dB/dt = ||v||^2/2 - gamma ||u0||^2, and the
combination F(t) = -(2 alpha/gamma) B(t) + int x |u|^2 dx drifts at the
constant rate 2 alpha ||u0||^2 - Q(0)/gamma.  A time-periodic localized
solution would make both functionals periodic, contradicting the drift;
numerically the testable content is "F is affine with a known slope".

First moments use the box coordinate x in [-L, L) and are only meaningful
while the fields stay away from the boundary (``model.boundary_mass``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conservation import q_momentum
from .model import ModelParams, SystemState
from .spectral import integrate, l2_norm

__all__ = [
    "MomentSample",
    "DriftReport",
    "ZERO_SLOPE_TOL",
    "predicted_slope",
    "moment_sample",
    "drift_check",
]


@dataclass(frozen=True)
class MomentSample:
    time: float
    b_moment: float  # int x v dx
    u_moment: float  # int x |u|^2 dx
    f_moment: float  # -(2 alpha/gamma) b_moment + u_moment
    v_l2_sq: float


def predicted_slope(initial: SystemState, params: ModelParams) -> float:
    """dF/dt = 2 alpha ||u0||^2 - Q(0)/gamma, fixed by the initial data.

    Derivation: d/dt int x v = ||v||^2/2 - gamma ||u0||^2 and
    d/dt int x |u|^2 = -2 int Im(u conj(u_x)) = (alpha ||v||^2 - Q(0))/gamma,
    so the combination F = -(2 alpha/gamma) int x v + int x |u|^2 drifts at
    the constant rate above (verified against simulated trajectories).
    """
    if params.gamma == 0:
        raise ValueError("the F functional requires gamma != 0")
    q0 = q_momentum(initial, params)
    return 2.0 * params.alpha * l2_norm(initial.u) ** 2 - q0 / params.gamma


def moment_sample(state: SystemState, params: ModelParams) -> MomentSample:
    """Evaluate B, int x |u|^2 and F at one snapshot."""
    if params.gamma == 0:
        raise ValueError("the F functional requires gamma != 0")
    grid = state.grid
    x = grid.x
    b = integrate(x * state.v.samples, grid)
    umom = integrate(x * state.u.abs_sq, grid)
    return MomentSample(
        time=state.time,
        b_moment=b,
        u_moment=umom,
        f_moment=-(2.0 * params.alpha / params.gamma) * b + umom,
        v_l2_sq=l2_norm(state.v) ** 2,
    )


@dataclass(frozen=True)
class DriftReport:
    predicted_slope: float
    slope_rel_error: float
    fit_residual: float  # max |F - affine fit|
    db_dt_max_error: float  # max |dB/dt (FD) - (||v||^2/2 - gamma ||u0||^2)|
    slope_near_zero: bool  # diagnostic uninformative when the predicted slope ~ 0


# a predicted slope below this is taken as zero: it becomes the floor of the
# relative error's denominator and sets slope_near_zero
ZERO_SLOPE_TOL = 1e-10


def drift_check(samples: list[MomentSample], params: ModelParams, slope: float,
                u0_l2_sq: float) -> DriftReport:
    """Affine fit of F(t) against ``slope``, the predicted dF/dt from the
    initial data, plus a per-interval finite-difference check of the dB/dt
    law.

    dB/dt is compared by centered differencing of B between consecutive
    samples against the midpoint average of ||v||^2/2 - gamma ||u0||^2,
    which is accurate to O(dt^2) for smooth trajectories.
    """
    if len(samples) < 10:
        raise ValueError(f"drift_check needs at least 10 samples, got {len(samples)}")
    t = np.array([s.time for s in samples])
    f = np.array([s.f_moment for s in samples])

    fitted, intercept = np.polyfit(t, f, 1)
    residual = float(np.max(np.abs(f - (fitted * t + intercept))))
    denom = max(abs(slope), ZERO_SLOPE_TOL)
    rel_err = abs(fitted - slope) / denom

    b = np.array([s.b_moment for s in samples])
    v_sq = np.array([s.v_l2_sq for s in samples])
    db_dt = np.diff(b) / np.diff(t)
    law_mid = 0.5 * (v_sq[1:] + v_sq[:-1]) / 2.0 - params.gamma * u0_l2_sq
    db_err = float(np.max(np.abs(db_dt - law_mid)))

    return DriftReport(
        predicted_slope=slope,
        slope_rel_error=float(rel_err),
        fit_residual=residual,
        db_dt_max_error=db_err,
        slope_near_zero=bool(abs(slope) < ZERO_SLOPE_TOL),
    )
