"""Parameters, states and initial-data families for the coupled
Schrodinger-KdV system

    i u_t + u_xx = alpha*u*v + beta*u*|u|^2
    v_t + v_xxx + v*v_x = gamma*(|u|^2)_x
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ComplexField, RealField, SpectralGrid

__all__ = [
    "ModelParams",
    "InitialData",
    "SystemState",
    "make_initial_data",
    "kdv_soliton_profile",
    "BOUNDARY_TOLERANCE",
    "outer_fraction",
    "boundary_mass",
]

# the largest boundary_mass that counts as clear of the box edge: initial
# data above it is a config error, and a run that exceeds it is flagged
BOUNDARY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Coupling coefficients (alpha, beta, gamma).

    The global H1 theory requires alpha*gamma > 0; runs outside that regime
    are only meaningful as integrator validation cases (``full_regime``
    tells them apart).
    """

    alpha: float
    beta: float
    gamma: float

    @property
    def full_regime(self) -> bool:
        return self.alpha * self.gamma > 0


@dataclass(frozen=True)
class SystemState:
    """The pair (u, v) at a given time on a shared grid."""

    u: ComplexField
    v: RealField
    time: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must live on the same grid")

    @property
    def grid(self) -> SpectralGrid:
        return self.u.grid


@dataclass(frozen=True)
class InitialData:
    """Initial-data family specification.

    Families:
      zero                 u = v = 0
      gaussian             u = amp_u*exp(-(x/width_u)^2), v likewise
      modulated_gaussian   gaussian u multiplied by exp(i*carrier*x)
      kdv_soliton          v = 3c*sech^2(sqrt(c)*x/2), u = 0
    """

    family: str = "gaussian"
    amplitude_u: float = 1.0
    amplitude_v: float = 1.0
    width_u: float = 1.0
    width_v: float = 1.0
    carrier: float = 0.0
    speed: float = 1.0


def kdv_soliton_profile(x: np.ndarray, speed: float) -> np.ndarray:
    """Solitary wave 3c*sech^2(sqrt(c)*x/2) of v_t + v_xxx + v*v_x = 0."""
    if not speed > 0:
        raise ValueError(f"soliton speed must be positive, got {speed}")
    return 3.0 * speed / np.cosh(np.sqrt(speed) * x / 2.0) ** 2


def _build_samples(spec: InitialData, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    x = grid.x
    fam = spec.family
    if fam == "zero":
        return np.zeros(grid.num_points, dtype=complex), np.zeros(grid.num_points)
    if fam in ("gaussian", "modulated_gaussian"):
        if spec.width_u <= 0 or spec.width_v <= 0:
            raise ValueError("gaussian widths must be positive")
        u = spec.amplitude_u * np.exp(-((x / spec.width_u) ** 2)).astype(complex)
        if fam == "modulated_gaussian":
            u = u * np.exp(1j * spec.carrier * x)
        v = spec.amplitude_v * np.exp(-((x / spec.width_v) ** 2))
        return u, v
    if fam == "kdv_soliton":
        return np.zeros(grid.num_points, dtype=complex), kdv_soliton_profile(x, spec.speed)
    raise ValueError(f"unknown initial-data family {fam!r}")


def outer_fraction(grid: SpectralGrid, dens: np.ndarray) -> float:
    """Fraction of sum(dens) carried by the outer 10% of the box, |x| >= 0.9 L
    (0 for a zero density): the periodic box stands in for the real line
    only while this stays at most BOUNDARY_TOLERANCE."""
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[np.abs(grid.x) >= 0.9 * grid.half_length].sum()) / total


def boundary_mass(state: SystemState) -> float:
    """Fraction of int(|u|^2 + v^2) carried by the outer 10% of the box."""
    return outer_fraction(state.grid, state.u.abs_sq + state.v.abs_sq)


def make_initial_data(
    spec: InitialData, grid: SpectralGrid, boundary_threshold: float = 1e-8
) -> SystemState:
    """Realize an initial-data spec on a grid, rejecting data whose tail
    mass would contaminate the periodic box."""
    u, v = _build_samples(spec, grid)
    state = SystemState(ComplexField(grid, u), RealField(grid, v), time=0.0)
    tail = boundary_mass(state)
    if tail > boundary_threshold:
        raise ValueError(
            f"initial data has boundary tail fraction {tail:.3e} "
            f"above threshold {boundary_threshold:.3e}; enlarge the box"
        )
    return state

