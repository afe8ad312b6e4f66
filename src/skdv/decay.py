"""Windowed local energies and the time-integrated weighted accumulators,
both read from one table of energy densities.

The local-energy window is |x - center| <= c * t^p with center = t^m (or 0),
realized as a sharp indicator on grid cells.  Accumulators integrate
(1/t) int dens * w'(x/lambda1) g(x/lambda2) dx over t in (2, T] by the
trapezoidal rule; every integrand is nonnegative, so accumulator values are
non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conservation import SmallnessReport
from .model import ModelParams, SystemState
from .spectral import integrate
from .virial import T_START, VirialConfig, Weights

__all__ = [
    "WindowSpec",
    "WindowedEnergy",
    "AccumulatorState",
    "ACCUMULATOR_TAGS",
    "DECAY_FACTOR",
    "GATE_TOLERANCE",
    "windowed_energy",
    "liminf_tracker",
    "LiminfReport",
    "make_accumulators",
    "weighted_accumulator_step",
    "smallness_gate_check",
    "GateReport",
]

# liminf_tracker calls a series decayed when its last dyadic-block minimum
# is this factor below the first
DECAY_FACTOR = 10.0
# round-off allowance of smallness_gate_check's pointwise lower bound
GATE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class WindowSpec:
    """Growing window |x - t^m| <= c * t^p (center 0 when m = 0)."""

    exponent: float
    center_exponent: float = 0.0
    window_constant: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.exponent < 2.0 / 3.0):
            raise ValueError(f"window exponent must lie in (0, 2/3), got {self.exponent}")
        if not (0.0 <= self.center_exponent < 1.0 - self.exponent / 2.0):
            raise ValueError(
                f"center exponent must lie in [0, 1 - p/2), got {self.center_exponent}"
            )
        if not self.window_constant > 0:
            raise ValueError("window_constant must be positive")

    def interval(self, t: float) -> tuple[float, float]:
        center = t**self.center_exponent if self.center_exponent > 0 else 0.0
        radius = self.window_constant * t**self.exponent
        return center - radius, center + radius


@dataclass(frozen=True)
class WindowedEnergy:
    value: float
    clipped: bool  # window extended past the box edge


# kind -> its energy density on the grid cells c, from the cached arrays of
# the fields u and v (p the model parameters, k the power): the one table
# that the windowed energies and the accumulators read
_DENSITIES = {
    "mixed": lambda u, v, p, k, c: np.abs(0.5 * v.abs_sq[c] - p.gamma * u.abs_sq[c]),
    "coupling": lambda u, v, p, k, c: u.abs[c] * np.abs(
        p.alpha * v.samples[c] + p.beta * u.abs_sq[c]),
    "grad_v": lambda u, v, p, k, c: v.dx_abs_sq[c],
    "grad_u": lambda u, v, p, k, c: u.dx_abs_sq[c],
    "power_u": lambda u, v, p, k, c: u.abs[c] ** k,
    "power_v": lambda u, v, p, k, c: np.abs(v.samples[c]) ** k,
    "quartic_u": lambda u, v, p, k, c: u.abs_fourth[c],
    "cubic_u": lambda u, v, p, k, c: u.abs[c] ** 3,
    "uv_product": lambda u, v, p, k, c: np.abs(u.samples[c] * v.samples[c]),
}


def windowed_energy(
    state: SystemState,
    window: WindowSpec,
    kind: str,
    params: ModelParams,
    power: float = 4.0,
) -> WindowedEnergy:
    """Local energy of the given kind over the growing window at state.time:
    the density on the window's cells, which are the contiguous run
    lo <= x <= hi of the sorted grid."""
    if state.time <= 0:
        raise ValueError(f"windowed energies require t > 0, got {state.time}")
    if kind not in _DENSITIES:
        raise ValueError(f"unknown energy kind {kind!r}; choose from {tuple(_DENSITIES)}")
    lo, hi = window.interval(state.time)
    grid = state.grid
    clipped = lo < -grid.half_length or hi > grid.half_length
    cells = slice(grid.x.searchsorted(lo, "left"), grid.x.searchsorted(hi, "right"))
    dens = _DENSITIES[kind](state.u, state.v, params, power, cells)
    return WindowedEnergy(float(grid.spacing * dens.sum()), clipped)


@dataclass(frozen=True)
class LiminfReport:
    running_min: float
    block_minima: list
    loglog_slope: float
    decayed: bool


def liminf_tracker(times, values) -> LiminfReport:
    """Finite-horizon surrogate for a liminf statement: running minimum,
    per-dyadic-block minima over [2^j, 2^(j+1)) and their log-log trend.

    ``decayed`` is declared when the last block minimum is below the first
    block minimum by at least DECAY_FACTOR; this is a qualitative trend
    check, not a proof of decay.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0 or times.size != values.size:
        raise ValueError("times and values must be nonempty and of equal length")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if times[0] <= 0:
        raise ValueError("times must be positive")

    j_lo = int(np.floor(np.log2(times[0])))
    j_hi = int(np.floor(np.log2(times[-1])))
    edges, minima = [], []
    for j in range(j_lo, j_hi + 1):
        mask = (times >= 2.0**j) & (times < 2.0 ** (j + 1))
        if not np.any(mask):
            continue
        edges.append(2.0**j)
        minima.append(float(np.min(values[mask])))

    slope = 0.0
    positive = [(e, m) for e, m in zip(edges, minima) if m > 0]
    if len(positive) >= 2:
        log_t = np.log([e * np.sqrt(2.0) for e, _ in positive])
        log_m = np.log([m for _, m in positive])
        slope = float(np.polyfit(log_t, log_m, 1)[0])

    decayed = bool(
        len(minima) >= 2
        and minima[0] > 0
        and minima[-1] <= minima[0] / DECAY_FACTOR
    )
    return LiminfReport(
        running_min=float(np.min(values)),
        block_minima=minima,
        loglog_slope=slope,
        decayed=decayed,
    )


# accumulator tag -> the kind of density it integrates
_ACCUMULATED = {
    "mixed_kdv": "mixed",
    "schrodinger_coupling": "coupling",
    "gradient_v": "grad_v",
    "gradient_u": "grad_u",
    "quartic_u": "quartic_u",
    "cubic_u": "cubic_u",
    "uv_product": "uv_product",
    "power_k": "power_v",
}
ACCUMULATOR_TAGS = tuple(_ACCUMULATED)


@dataclass
class AccumulatorState:
    """One running time integral; trapezoidal in t, starting at t >= 2."""

    value: float = 0.0
    last_time: float = np.nan
    last_integrand: float = np.nan


def make_accumulators(tags=ACCUMULATOR_TAGS) -> dict:
    """A fresh accumulator for each of ``tags``, keyed and ordered by tag."""
    tags = tuple(tags)
    unknown = set(tags) - set(ACCUMULATOR_TAGS)
    if unknown:
        raise ValueError(f"unknown accumulator tags {sorted(unknown)}")
    return {tag: AccumulatorState() for tag in tags}


def weighted_accumulator_step(
    state: SystemState,
    config: VirialConfig,
    params: ModelParams,
    accumulators: dict,
    power_exponent: float = 0.5,
    weights: Weights | None = None,
) -> None:
    """Advance every accumulator by the trapezoidal rule with the integrand

        I(t) = (1/t) int dens(x,t) w'(x/lambda1) g(x/lambda2) dx

    for that accumulator's density, with |v|^(2 + power_exponent) for
    ``power_k``.  The first call (t >= 2) only primes the integrand memory.
    The weight is the ``wpg`` of the virial weights at ``state.time``, which
    ``weights`` may pass already built.  Mutates ``accumulators``.
    """
    t = state.time
    if t < T_START:
        raise ValueError(f"accumulators are defined for t >= {T_START:g}, got {t}")
    grid = state.grid
    weight = (weights if weights is not None else Weights(grid, config, t)).wpg
    power = 2.0 + power_exponent
    for tag, acc in accumulators.items():
        dens = _DENSITIES[_ACCUMULATED[tag]](state.u, state.v, params, power, slice(None))
        integrand = integrate(dens * weight, grid) / t
        if np.isfinite(acc.last_time):
            if t <= acc.last_time:
                raise ValueError("accumulator times must be strictly increasing")
            acc.value += 0.5 * (integrand + acc.last_integrand) * (t - acc.last_time)
        acc.last_time = t
        acc.last_integrand = integrand


@dataclass(frozen=True)
class GateReport:
    applicable: bool
    min_value: float  # min over (x, t) of alpha*gamma + v*beta/2
    threshold: float  # alpha*gamma/2
    holds: bool


def smallness_gate_check(
    states: list[SystemState], params: ModelParams, phi_report: SmallnessReport
) -> GateReport:
    """Under the criterion -beta*Phi <= alpha*gamma (beta < 0), assert the
    pointwise lower bound alpha*gamma + v*beta/2 >= alpha*gamma/2 along the
    trajectory."""
    if not states:
        raise ValueError("empty trajectory")
    ag = params.alpha * params.gamma
    if params.beta >= 0 or not phi_report.satisfied:
        return GateReport(applicable=False, min_value=np.nan, threshold=0.5 * ag, holds=False)
    lowest = np.inf
    for s in states:
        lowest = min(lowest, float(np.min(ag + 0.5 * params.beta * s.v.samples)))
    return GateReport(
        applicable=True,
        min_value=lowest,
        threshold=0.5 * ag,
        holds=bool(lowest >= 0.5 * ag - GATE_TOLERANCE),
    )

