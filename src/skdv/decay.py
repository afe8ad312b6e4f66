"""Windowed local energies, sign-partition diagnostics and the
time-integrated weighted accumulators.

The local-energy window is |x - center| <= c * t^p with center = t^m (or 0),
realized as a sharp indicator on grid cells.  Accumulators integrate
(1/t) int dens * w'(x/lambda1) g(x/lambda2) dx over t in (2, T] by the
trapezoidal rule; every integrand is nonnegative, so accumulator values are
non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conservation import SmallnessReport
from .model import ModelParams, SystemState
from .spectral import integrate
from .virial import VirialConfig, Weights

__all__ = [
    "WindowSpec",
    "WindowedEnergy",
    "AccumulatorState",
    "ACCUMULATOR_TAGS",
    "BOUNDARY_TOLERANCE",
    "DECAY_FACTOR",
    "GATE_TOLERANCE",
    "windowed_energy",
    "liminf_tracker",
    "LiminfReport",
    "make_accumulators",
    "weighted_accumulator_step",
    "sign_partition_measure",
    "smallness_gate_check",
    "GateReport",
    "boundary_mass",
    "equivalence_bound_check",
    "BoundChainReport",
]

# the largest boundary_mass that counts as clear of the box edge: initial
# data above it is a config error, and a run that exceeds it is flagged
BOUNDARY_TOLERANCE = 1e-6
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


_WINDOW_KINDS = ("mixed", "coupling", "grad_v", "grad_u", "power_u", "power_v")


def _energy_density(
    state: SystemState, kind: str, params, power: float, cells: slice
) -> np.ndarray:
    """The density of ``kind`` on the grid cells ``cells``."""
    u = state.u.samples[cells]
    v = state.v.samples[cells]
    if kind in ("mixed", "coupling") and params is None:
        raise ValueError(f"kind {kind!r} requires model parameters")
    if kind == "mixed":
        return np.abs(0.5 * v**2 - params.gamma * np.abs(u) ** 2)
    if kind == "coupling":
        return np.abs(u) * np.abs(params.alpha * v + params.beta * np.abs(u) ** 2)
    if kind == "grad_v":
        return state.v.dx.real[cells] ** 2
    if kind == "grad_u":
        return np.abs(state.u.dx[cells]) ** 2
    if kind == "power_u":
        return np.abs(u) ** power
    if kind == "power_v":
        return np.abs(v) ** power
    raise ValueError(f"unknown energy kind {kind!r}; choose from {_WINDOW_KINDS}")


def windowed_energy(
    state: SystemState,
    window: WindowSpec,
    kind: str,
    params: ModelParams | None = None,
    power: float = 4.0,
) -> WindowedEnergy:
    """Local energy of the given kind over the growing window at state.time.
    The density is evaluated on the window's cells only: the grid is sorted,
    so they are the contiguous run lo <= x <= hi."""
    if state.time <= 0:
        raise ValueError(f"windowed energies require t > 0, got {state.time}")
    lo, hi = window.interval(state.time)
    grid = state.grid
    clipped = lo < -grid.half_length or hi > grid.half_length
    cells = slice(grid.x.searchsorted(lo, "left"), grid.x.searchsorted(hi, "right"))
    dens = _energy_density(state, kind, params, power, cells)
    return WindowedEnergy(float(grid.spacing * dens.sum()), clipped)


@dataclass(frozen=True)
class LiminfReport:
    running_min: float
    block_edges: list
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
        block_edges=edges,
        block_minima=minima,
        loglog_slope=slope,
        decayed=decayed,
    )


ACCUMULATOR_TAGS = (
    "mixed_kdv",
    "schrodinger_coupling",
    "gradient_v",
    "gradient_u",
    "quartic_u",
    "cubic_u",
    "uv_product",
    "power_k",
)


@dataclass
class AccumulatorState:
    """One running time integral; trapezoidal in t, starting at t >= 2."""

    tag: str
    value: float = 0.0
    last_time: float = field(default=np.nan)
    last_integrand: float = field(default=np.nan)

    def __post_init__(self):
        if self.tag not in ACCUMULATOR_TAGS:
            raise ValueError(f"unknown accumulator tag {self.tag!r}")


def make_accumulators() -> dict:
    return {tag: AccumulatorState(tag) for tag in ACCUMULATOR_TAGS}


def _accumulator_densities(
    state: SystemState, params: ModelParams, power_exponent: float
) -> dict:
    u, v = state.u, state.v
    return {
        "mixed_kdv": np.abs(0.5 * v.abs_sq - params.gamma * u.abs_sq),
        "schrodinger_coupling": u.abs * np.abs(params.alpha * v.samples + params.beta * u.abs_sq),
        "gradient_v": v.dx_sq,
        "gradient_u": u.dx_abs_sq,
        "quartic_u": u.abs_fourth,
        "cubic_u": u.abs**3,
        "uv_product": np.abs(u.samples * v.samples),
        "power_k": np.abs(v.samples) ** (2.0 + power_exponent),
    }


def weighted_accumulator_step(
    state: SystemState,
    config: VirialConfig,
    params: ModelParams,
    accumulators: dict,
    power_exponent: float = 0.5,
    weights: Weights | None = None,
) -> dict:
    """Advance every accumulator by the trapezoidal rule with the integrand

        I(t) = (1/t) int dens(x,t) w'(x/lambda1) g(x/lambda2) dx

    for that accumulator's density.  The first call (t >= 2) only primes the
    integrand memory.  ``weights`` may pass the virial weights already built
    at ``state.time``, whose ``wpg`` is this weight.  Mutates and returns
    ``accumulators``.
    """
    t = state.time
    if t < 2:
        raise ValueError(f"accumulators are defined for t >= 2, got {t}")
    grid = state.grid
    weight = (weights if weights is not None else Weights(grid, config, t)).wpg
    densities = _accumulator_densities(state, params, power_exponent)
    for tag, acc in accumulators.items():
        integrand = float(integrate(densities[tag] * weight, grid)) / t
        if np.isfinite(acc.last_time):
            if t <= acc.last_time:
                raise ValueError("accumulator times must be strictly increasing")
            acc.value += 0.5 * (integrand + acc.last_integrand) * (t - acc.last_time)
        acc.last_time = t
        acc.last_integrand = integrand
    return accumulators


def sign_partition_measure(state: SystemState, params: ModelParams) -> tuple[float, float, float]:
    """Measures (dx-count) of the cells where v^2/2 - gamma |u|^2 is
    positive, negative or zero to within 1e-12 of its largest magnitude."""
    dens = 0.5 * state.v.samples**2 - params.gamma * np.abs(state.u.samples) ** 2
    scale = max(float(np.max(np.abs(dens))), 1e-300)
    cut = 1e-12 * scale
    dx = state.grid.spacing
    plus = dx * int(np.sum(dens > cut))
    minus = dx * int(np.sum(dens < -cut))
    zero = dx * int(np.sum(np.abs(dens) <= cut))
    return plus, minus, zero


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


def boundary_mass(state: SystemState) -> float:
    """Fraction of int(|u|^2 + v^2) carried by the outer 10% of the box."""
    grid = state.grid
    dens = state.u.abs_sq + state.v.abs_sq
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    outer = np.abs(grid.x) >= 0.9 * grid.half_length
    return float(dens[outer].sum()) / total


@dataclass(frozen=True)
class BoundChainReport:
    lhs_v: float
    rhs_v: float
    lhs_u: float
    rhs_u: float
    holds: bool


def equivalence_bound_check(
    state: SystemState,
    params: ModelParams,
    m: float = 1.0,
    eps: float = 0.5,
    config: VirialConfig | None = None,
) -> BoundChainReport:
    """Integrated form of the two Young-inequality chains that make the
    |u|^(2+m) and |v|^(2+m) weighted integrals equivalent (gamma > 0):

        |v|^(2+m) <= 2 sup|v|^m |v^2/2 - gamma|u|^2|
                     + 2 gamma (eps^q |v|^(2+m) + eps^-r |u|^(2+m))
        |u|^(2+m) <= (sup|u|^m/gamma) |v^2/2 - gamma|u|^2|
                     + (1/(2 gamma)) (eps^q |u|^(2+m) + eps^-r |v|^(2+m))

    with q = (2+m)/m, r = (2+m)/2.  Both sides are integrated against the
    accumulator weight when ``config`` is given (t > 0), else plain dx.
    """
    if params.gamma <= 0:
        raise ValueError("the bound chains are stated for gamma > 0")
    if m <= 0 or eps <= 0:
        raise ValueError("m and eps must be positive")
    grid = state.grid
    if config is not None and state.time > 0:
        weight = Weights(grid, config, state.time).wpg
    else:
        weight = np.ones(grid.num_points)

    g = params.gamma
    v_abs = np.abs(state.v.samples)
    u_abs = np.abs(state.u.samples)
    mixed_abs = np.abs(0.5 * state.v.samples**2 - g * u_abs**2)
    q = (2.0 + m) / m
    r = (2.0 + m) / 2.0
    sup_v = float(np.max(v_abs)) ** m
    sup_u = float(np.max(u_abs)) ** m

    def wint(dens):
        return float(integrate(dens * weight, grid))

    lhs_v = wint(v_abs ** (2.0 + m))
    rhs_v = 2.0 * sup_v * wint(mixed_abs) + 2.0 * g * (
        eps**q * wint(v_abs ** (2.0 + m)) + eps ** (-r) * wint(u_abs ** (2.0 + m))
    )
    lhs_u = wint(u_abs ** (2.0 + m))
    rhs_u = (sup_u / g) * wint(mixed_abs) + (1.0 / (2.0 * g)) * (
        eps**q * wint(u_abs ** (2.0 + m)) + eps ** (-r) * wint(v_abs ** (2.0 + m))
    )
    tol = 1e-12 * max(abs(rhs_v), abs(rhs_u), 1.0)
    return BoundChainReport(
        lhs_v=lhs_v,
        rhs_v=rhs_v,
        lhs_u=lhs_u,
        rhs_u=rhs_u,
        holds=bool(lhs_v <= rhs_v + tol and lhs_u <= rhs_u + tol),
    )
