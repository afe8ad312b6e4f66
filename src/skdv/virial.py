"""Weight functions, the weighted functionals J2/J3 and numerical
verification of their exact evolution identities.

The weight pair is w(x) = arctan(e^x) with w' = g = 1/(e^x + e^-x); the
time scalings are lambda1 = t^p1, lambda2 = t^(p1*p2), eta = t^r1 with
r1 = 1 - p1.  The identities are assembled term by term from their
constituent pieces; d/dt of the functionals is taken by 4th-order central
differences over stored samples so that the dominant residual error is the
O(dt^2) splitting error of the integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SystemState
from .spectral import integrate

__all__ = [
    "VirialConfig",
    "Weights",
    "IdentityResidualSample",
    "WindowEntry",
    "weight_g",
    "weight_w",
    "weight_g1",
    "weight_g2",
    "weight_derivative_bounds",
    "functional_J2",
    "functional_J3",
    "window_entry",
    "identity_residual_prop2",
    "identity_residual_prop3",
    "identity_residual_combined",
    "check_key_identities",
    "T_START",
]

# the virial identities are asserted, and the accumulators integrate, from
# this time on
T_START = 2.0


def _sech(x: np.ndarray) -> np.ndarray:
    # overflow-safe: 2 e^-|x| / (1 + e^-2|x|)
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def weight_g(x) -> np.ndarray:
    """g(x) = 1/(e^x + e^-x) = sech(x)/2; even, 0 < g <= 1/2."""
    return 0.5 * _sech(np.asarray(x, dtype=float))


def weight_w(x) -> np.ndarray:
    """w(x) = arctan(e^x), a primitive of g; 0 < w < pi/2."""
    x = np.asarray(x, dtype=float)
    # evaluate via exp(-|x|) only, so |x| ~ 700 cannot overflow
    pos = np.arctan(np.exp(-np.abs(x)))
    return np.where(x > 0, 0.5 * np.pi - pos, pos)


def weight_g1(x) -> np.ndarray:
    """g'(x) = -tanh(x) g(x) (= w''), in closed form."""
    x = np.asarray(x, dtype=float)
    return -np.tanh(x) * weight_g(x)


def weight_g2(x) -> np.ndarray:
    """g''(x) = g(x) (tanh(x)^2 - sech(x)^2) (= w''')."""
    x = np.asarray(x, dtype=float)
    return weight_g(x) * (np.tanh(x) ** 2 - _sech(x) ** 2)


@dataclass(frozen=True)
class WeightBoundReport:
    smallest_c: float
    ratio_at_edge: float


def weight_derivative_bounds() -> WeightBoundReport:
    """Smallest C with |w''| + |w'''| <= C e^-|x| over 4001 samples of [-40, 40]."""
    x = np.linspace(-40.0, 40.0, 4001)
    ratio = (np.abs(weight_g1(x)) + np.abs(weight_g2(x))) * np.exp(np.abs(x))
    return WeightBoundReport(
        smallest_c=float(np.max(ratio)),
        ratio_at_edge=float(max(ratio[0], ratio[-1])),
    )


@dataclass(frozen=True)
class VirialConfig:
    """Exponents and weights for the virial functionals.

    r1 is always derived as 1 - p1; theta3 may be the tag "auto", meaning
    theta3 = 2*theta2*gamma/alpha (the choice cancelling the mixed term).
    The proofs use p2 > 1 throughout with one step needing p2 > 2, so the
    stricter p2 > 2 is the safe default.
    """

    p1: float = 0.25
    p2: float = 2.5
    theta2: float = 1.0
    theta3: float | str = "auto"

    def __post_init__(self):
        if not self.p2 > 1:
            raise ValueError(f"p2 must exceed 1, got {self.p2}")
        if not (0 < self.p1 < 2.0 / (self.p2 + 2.0)):
            raise ValueError(f"p1 must lie in (0, 2/(p2+2)), got {self.p1}")
        if not self.theta2 > 0:
            raise ValueError("theta2 must be positive")
        if self.theta3 != "auto" and not float(self.theta3) > 0:
            raise ValueError("theta3 must be positive or 'auto'")

    @property
    def r1(self) -> float:
        return 1.0 - self.p1

    def theta3_value(self, params: ModelParams) -> float:
        if self.theta3 == "auto":
            if params.alpha == 0:
                raise ValueError("theta3='auto' requires alpha != 0")
            return 2.0 * self.theta2 * params.gamma / params.alpha
        return float(self.theta3)

    def coefficient_sum(self, params: ModelParams) -> float:
        """-2 theta2 gamma + theta3 alpha, the mixed-term coefficient of the summed identity."""
        return -2.0 * self.theta2 * params.gamma + self.theta3_value(params) * params.alpha


class Weights:
    """Weight product w(x/l1)*g(x/l2) and every derived array the identity
    pieces and the accumulators need, at a fixed time.  sech and tanh are
    evaluated once per argument; each table is the expression of
    ``weight_g``, ``weight_g1`` or ``weight_g2`` on those values."""

    def __init__(self, grid, config: VirialConfig, t: float):
        if t <= 0:
            raise ValueError(f"weights require t > 0, got {t}")
        self.l1 = t**config.p1  # lambda1
        self.l2 = t ** (config.p1 * config.p2)  # lambda2
        self.eta = t**config.r1
        x1 = grid.x / self.l1
        x2 = grid.x / self.l2
        self.x1, self.x2 = x1, x2
        sech1, sech2 = _sech(x1), _sech(x2)
        tanh1, tanh2 = np.tanh(x1), np.tanh(x2)
        self.w = weight_w(x1)
        self.g = 0.5 * sech2  # weight_g(x2)
        self.wp = 0.5 * sech1  # w' = g
        self.gp = -tanh2 * self.g  # weight_g1(x2)
        self.wg = self.w * self.g
        self.wpg = self.wp * self.g
        # d^2/dx^2 [w(x/l1) g(x/l2)], with weight_g1(x1) and weight_g2(x2)
        self.d2 = (
            -tanh1 * self.wp * self.g / self.l1**2
            + 2.0 * self.wp * self.gp / (self.l1 * self.l2)
            + self.w * (self.g * (tanh2**2 - sech2**2)) / self.l2**2
        )


def functional_J2(state: SystemState, config: VirialConfig, weights: Weights) -> float:
    """J2 = (theta2/eta) int v^2 w(x/l1) g(x/l2) dx, with ``weights`` built at
    ``state.time``; always >= 0."""
    return config.theta2 / weights.eta * integrate(state.v.abs_sq * weights.wg, state.grid)


def functional_J3(
    state: SystemState, config: VirialConfig, params: ModelParams, weights: Weights
) -> float:
    """J3 = (theta3/eta) int Im(u * conj(u_x)) w(x/l1) g(x/l2) dx, with
    ``weights`` built at ``state.time``."""
    dens = np.imag(state.u.times_conj_dx)
    return config.theta3_value(params) / weights.eta * integrate(dens * weights.wg, state.grid)


@dataclass(frozen=True)
class IdentityResidualSample:
    time: float
    lhs: float
    rhs: float
    residual: float


def _dt4(values: list[float], h: float) -> float:
    """4th-order central difference over 5 uniformly spaced samples."""
    return (-values[4] + 8.0 * values[3] - 8.0 * values[1] + values[0]) / (12.0 * h)


def _window_times(states: list) -> float:
    """Spacing of a 5-snapshot window centred at t >= 2; the members need
    only a ``time``."""
    if len(states) != 5:
        raise ValueError(f"identity residuals need 5 consecutive snapshots, got {len(states)}")
    times = [s.time for s in states]
    h = float(times[1] - times[0])
    # the test of np.allclose(spacings, h, rtol=1e-8), done on scalars
    if not all(abs((b - a) - h) <= 1e-8 + 1e-8 * abs(h) for a, b in zip(times, times[1:])):
        raise ValueError("snapshots must be uniformly spaced in time")
    if states[2].time < T_START:
        raise ValueError(f"the identity is asserted for t >= {T_START:g}, got t={states[2].time}")
    return h


def _identity_pieces(
    state: SystemState, config: VirialConfig, params: ModelParams, wt: Weights, j2: float
) -> tuple:
    """The pieces (J2_int, lhs, cubic, mixed) of the Prop2 identity and
    (J3_int, grad_term, quartic_term, mixed) of the Prop3 identity at
    ``state.time``, where ``j2`` is functional_J2 there.  The two mixed
    terms scale one integral, int |u|^2 v_x w g."""
    grid = state.grid
    t = state.time
    th2, th3 = config.theta2, config.theta3_value(params)
    v = state.v.samples
    v_sq, vx_sq = state.v.abs_sq, state.v.dx_abs_sq
    u_sq, u_fourth, ux_sq = state.u.abs_sq, state.u.abs_fourth, state.u.dx_abs_sq
    vx = state.v.dx.real
    cubic_dens = state.v.cube / 3.0 - params.gamma * u_sq * v
    im_dens = np.imag(state.u.times_conj_dx)
    re_dens = np.real(state.u.times_conj_dx)
    mixed = integrate(u_sq * vx * wt.wg, grid)

    # J_{2,1}: -theta2 eta'/eta^2 * int v^2 w g
    j21 = -(config.r1 / t) * j2
    # J_{2,2}: (theta2/eta) int v^2 d/dt[w g]
    dwg_dt = -(config.p1 / t) * wt.x1 * wt.wpg - (config.p1 * config.p2 / t) * wt.x2 * wt.w * wt.gp
    j22 = th2 / wt.eta * integrate(v_sq * dwg_dt, grid)
    # J_{2,3}: (2 theta2/(eta l2)) int (v^3/3 - gamma |u|^2 v) w g'
    j23 = 2.0 * th2 / (wt.eta * wt.l2) * integrate(cubic_dens * wt.w * wt.gp, grid)
    # J_{2,4}: -(3 theta2/(eta l2)) int v_x^2 w g' - (2 theta2/eta) int v v_x (w g)''
    j24 = -3.0 * th2 / (wt.eta * wt.l2) * integrate(vx_sq * wt.w * wt.gp, grid) - (
        2.0 * th2 / wt.eta
    ) * integrate(v * vx * wt.d2, grid)

    lhs = 3.0 * th2 / t * integrate(vx_sq * wt.wpg, grid)
    cubic = 2.0 * th2 / t * integrate(cubic_dens * wt.wpg, grid)
    prop2 = (j21 + j22 + j23 + j24, lhs, cubic, 2.0 * th2 * params.gamma / wt.eta * mixed)

    # J_{3,1}: theta3 int Im(u conj(u_x)) d/dt[(1/eta) w g]
    dwg_over_eta_dt = -(1.0 / wt.eta) * (
        (config.r1 / t) * wt.wg
        + (config.p1 / t) * wt.x1 * wt.wpg
        + (config.p1 * config.p2 / t) * wt.x2 * wt.w * wt.gp
    )
    j31 = th3 * integrate(im_dens * dwg_over_eta_dt, grid)
    j321 = -2.0 * th3 / (wt.eta * wt.l2) * integrate(ux_sq * wt.w * wt.gp, grid)
    j322 = -th3 / wt.eta * integrate(re_dens * wt.d2, grid)
    j323 = -params.beta * th3 / (2.0 * wt.eta * wt.l2) * integrate(u_fourth * wt.w * wt.gp, grid)

    grad_term = 2.0 * th3 / t * integrate(ux_sq * wt.wpg, grid)
    quartic_term = params.beta * th3 / (2.0 * t) * integrate(u_fourth * wt.wpg, grid)
    prop3 = (j31 + j321 + j322 + j323, grad_term, quartic_term,
             th3 * params.alpha / wt.eta * mixed)
    return prop2, prop3


class WindowEntry(NamedTuple):
    """What a residual window keeps of one snapshot: its time, J2 and J3
    (nan at t = 0) and, from t = 2 on, the identity pieces at that time."""

    time: float
    j2: float
    j3: float
    pieces: tuple | None  # _identity_pieces at t >= 2, else None


def window_entry(
    state: SystemState, config: VirialConfig, params: ModelParams, weights: Weights | None = None
) -> WindowEntry:
    """The WindowEntry of ``state``; ``weights`` may pass the weights already
    built at ``state.time``."""
    if state.time <= 0:
        return WindowEntry(state.time, np.nan, np.nan, None)
    wt = weights if weights is not None else Weights(state.grid, config, state.time)
    j2 = functional_J2(state, config, wt)
    j3 = functional_J3(state, config, params, wt)
    pieces = None
    if state.time >= T_START:
        pieces = _identity_pieces(state, config, params, wt, j2)
    return WindowEntry(state.time, j2, j3, pieces)


def identity_residual_prop2(window) -> IdentityResidualSample:
    """Residual of the v-functional identity

        (3 theta2/t) int v_x^2 w' g = -dJ2/dt + J2_int
            + (2 theta2/t) int (v^3/3 - gamma |u|^2 v) w' g
            - (2 theta2 gamma/eta) int |u|^2 v_x w g

    at the centre of a window of 5 WindowEntry; a ValueError unless they
    are evenly spaced and centred at t >= 2."""
    h = _window_times(window)
    j2_int, lhs, cubic, mixed = window[2].pieces[0]
    rhs = -_dt4([e.j2 for e in window], h) + j2_int + cubic - mixed
    return IdentityResidualSample(window[2].time, lhs, rhs, lhs - rhs)


def identity_residual_prop3(window) -> IdentityResidualSample:
    """Residual of the u-functional identity

        (2 theta3/t) int |u_x|^2 w' g + (beta theta3/2t) int |u|^4 w' g
            = -dJ3/dt + J3_int + (theta3 alpha/eta) int |u|^2 v_x w g

    at the centre of a window of 5 WindowEntry, validated as for prop2."""
    h = _window_times(window)
    j3_int, grad, quartic, mixed = window[2].pieces[1]
    lhs, rhs = grad + quartic, -_dt4([e.j3 for e in window], h) + j3_int + mixed
    return IdentityResidualSample(window[2].time, lhs, rhs, lhs - rhs)


def identity_residual_combined(
    prop2: IdentityResidualSample, prop3: IdentityResidualSample, config: VirialConfig
) -> IdentityResidualSample | None:
    """Summed identity, whose lhs, rhs and residual are the sums of the two
    samples.  It exists only under theta3 = 'auto' = 2*theta2*gamma/alpha,
    under which the mixed int |u|^2 v_x w g terms cancel; else None."""
    if config.theta3 != "auto":
        return None
    return IdentityResidualSample(prop2.time, prop2.lhs + prop3.lhs, prop2.rhs + prop3.rhs,
                                  prop2.residual + prop3.residual)


@dataclass(frozen=True)
class KeyIdentityReport:
    cubic_split_max_err: float  # v^3/3 - gamma |u|^2 v decomposition
    quartic_max_err: float  # v^4 decomposition
    u_cubed_max_err: float  # |u|^3 decomposition
    scale: float


def check_key_identities(state: SystemState, params: ModelParams) -> KeyIdentityReport:
    """Pointwise algebraic identities used to close the decay estimates;
    each is checked sample by sample on the grid."""
    a, b, g = params.alpha, params.beta, params.gamma
    if a == 0 or g == 0:
        raise ValueError("key identities require alpha != 0 and gamma != 0")
    v = state.v.samples
    u_abs = np.abs(state.u.samples)
    u_sq = u_abs**2
    mixed = 0.5 * v**2 - g * u_sq
    coupling = a * v + b * u_sq

    lhs1 = v**3 / 3.0 - g * u_sq * v
    rhs1 = (2.0 * v / 3.0) * mixed - (g * u_sq / (3.0 * a)) * coupling + g * b * u_sq**2 / (3.0 * a)

    lhs2 = v**4
    rhs2 = 4.0 * g**2 * u_sq**2 + 4.0 * (0.5 * v**2 + g * u_sq) * mixed

    lhs3 = u_abs**3
    rhs3 = (
        -(1.0 / g) * u_abs * mixed
        + (v / (2.0 * g * a)) * u_abs * coupling
        - (b / (2.0 * g * a)) * v * u_abs**3
    )

    scale = max(
        float(np.max(np.abs(lhs1))), float(np.max(np.abs(lhs2))),
        float(np.max(np.abs(lhs3))), 1e-300,
    )
    return KeyIdentityReport(
        cubic_split_max_err=float(np.max(np.abs(lhs1 - rhs1))),
        quartic_max_err=float(np.max(np.abs(lhs2 - rhs2))),
        u_cubed_max_err=float(np.max(np.abs(lhs3 - rhs3))),
        scale=scale,
    )
