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

import numpy as np

from .model import ModelParams, SystemState
from .spectral import derivative_samples, integrate

__all__ = [
    "VirialConfig",
    "IdentityResidualSample",
    "weight_g",
    "weight_w",
    "weight_g1",
    "weight_g2",
    "weight_derivative_bounds",
    "functional_J2",
    "functional_J3",
    "identity_residual_prop2",
    "identity_residual_prop3",
    "identity_residual_combined",
    "check_key_identities",
    "phase_current_rate",
]


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
    x_max: float
    ratio_at_edge: float


def weight_derivative_bounds(x_max: float = 40.0, num: int = 4001) -> WeightBoundReport:
    """Smallest C with |w''| + |w'''| <= C e^-|x| over a sample sweep."""
    x = np.linspace(-x_max, x_max, num)
    ratio = (np.abs(weight_g1(x)) + np.abs(weight_g2(x))) * np.exp(np.abs(x))
    return WeightBoundReport(
        smallest_c=float(np.max(ratio)),
        x_max=x_max,
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

    def lambda1(self, t: float) -> float:
        return t**self.p1

    def lambda2(self, t: float) -> float:
        return t ** (self.p1 * self.p2)

    def eta(self, t: float) -> float:
        return t**self.r1


class _Weights:
    """Weight product w(x/l1)*g(x/l2) and every derived array the identity
    pieces need, at a fixed time."""

    def __init__(self, grid, config: VirialConfig, t: float):
        if t <= 0:
            raise ValueError(f"weights require t > 0, got {t}")
        self.t = t
        self.l1 = config.lambda1(t)
        self.l2 = config.lambda2(t)
        self.eta = config.eta(t)
        x1 = grid.x / self.l1
        x2 = grid.x / self.l2
        self.x1, self.x2 = x1, x2
        self.w = weight_w(x1)
        self.g = weight_g(x2)
        self.wp = weight_g(x1)  # w' = g
        self.gp = weight_g1(x2)
        self.wg = self.w * self.g
        self.wpg = self.wp * self.g
        # d^2/dx^2 [w(x/l1) g(x/l2)]
        self.d2 = (
            weight_g1(x1) * self.g / self.l1**2
            + 2.0 * self.wp * self.gp / (self.l1 * self.l2)
            + self.w * weight_g2(x2) / self.l2**2
        )


def _check_time(t: float) -> None:
    if t <= 0:
        raise ValueError(f"functionals require t > 0, got {t}")


def functional_J2(
    state: SystemState, config: VirialConfig, params: ModelParams | None = None,
    weights: _Weights | None = None,
) -> float:
    """J2 = (theta2/eta) int v^2 w(x/l1) g(x/l2) dx; always >= 0.  ``weights``
    may pass the weights already built at ``state.time``."""
    _check_time(state.time)
    wt = weights if weights is not None else _Weights(state.grid, config, state.time)
    return config.theta2 / wt.eta * integrate(state.v.samples**2 * wt.wg, state.grid)


def functional_J3(
    state: SystemState, config: VirialConfig, params: ModelParams, weights: _Weights | None = None
) -> float:
    """J3 = (theta3/eta) int Im(u * conj(u_x)) w(x/l1) g(x/l2) dx."""
    _check_time(state.time)
    wt = weights if weights is not None else _Weights(state.grid, config, state.time)
    dens = np.imag(state.u.samples * np.conj(state.u.dx))
    return config.theta3_value(params) / wt.eta * integrate(dens * wt.wg, state.grid)


@dataclass(frozen=True)
class IdentityResidualSample:
    time: float
    lhs: float
    rhs: float
    residual: float
    dt_used: float


def _dt4(values: list[float], h: float) -> float:
    """4th-order central difference over 5 uniformly spaced samples."""
    return (-values[4] + 8.0 * values[3] - 8.0 * values[1] + values[0]) / (12.0 * h)


def _window_times(states: list[SystemState]) -> float:
    """Spacing of a 5-snapshot window centred at t >= 2."""
    if len(states) != 5:
        raise ValueError(f"identity residuals need 5 consecutive snapshots, got {len(states)}")
    times = [s.time for s in states]
    h = float(times[1] - times[0])
    # the test of np.allclose(spacings, h, rtol=1e-8), done on scalars
    if not all(abs((b - a) - h) <= 1e-8 + 1e-8 * abs(h) for a, b in zip(times, times[1:])):
        raise ValueError("snapshots must be uniformly spaced in time")
    if states[2].time < 2:
        raise ValueError(f"the identity is asserted for t >= 2, got t={states[2].time}")
    return h


def _window_dt(states: list[SystemState], config: VirialConfig, params: ModelParams,
               *functionals):
    """Spacing of a 5-snapshot window, the weights at its centre and d/dt of
    each functional there; the weights are built once per member."""
    h = _window_times(states)
    weights = [_Weights(s.grid, config, s.time) for s in states]
    dts = [_dt4([f(s, config, params, weights=w) for s, w in zip(states, weights)], h)
           for f in functionals]
    return h, weights[2], *dts


def _j2_pieces(state: SystemState, config: VirialConfig, params: ModelParams, wt: _Weights):
    grid = state.grid
    t = state.time
    th2 = config.theta2
    v = state.v.samples
    u_sq = np.abs(state.u.samples) ** 2
    vx = state.v.dx.real
    cubic_dens = v**3 / 3.0 - params.gamma * u_sq * v

    j2 = th2 / wt.eta * integrate(v**2 * wt.wg, grid)
    # J_{2,1}: -theta2 eta'/eta^2 * int v^2 w g
    j21 = -(config.r1 / t) * j2
    # J_{2,2}: (theta2/eta) int v^2 d/dt[w g]
    dwg_dt = -(config.p1 / t) * wt.x1 * wt.wpg - (config.p1 * config.p2 / t) * wt.x2 * wt.w * wt.gp
    j22 = th2 / wt.eta * integrate(v**2 * dwg_dt, grid)
    # J_{2,3}: (2 theta2/(eta l2)) int (v^3/3 - gamma |u|^2 v) w g'
    j23 = 2.0 * th2 / (wt.eta * wt.l2) * integrate(cubic_dens * wt.w * wt.gp, grid)
    # J_{2,4}: -(3 theta2/(eta l2)) int v_x^2 w g' - (2 theta2/eta) int v v_x (w g)''
    j24 = -3.0 * th2 / (wt.eta * wt.l2) * integrate(vx**2 * wt.w * wt.gp, grid) - (
        2.0 * th2 / wt.eta
    ) * integrate(v * vx * wt.d2, grid)

    lhs = 3.0 * th2 / t * integrate(vx**2 * wt.wpg, grid)
    cubic = 2.0 * th2 / t * integrate(cubic_dens * wt.wpg, grid)
    mixed = 2.0 * th2 * params.gamma / wt.eta * integrate(u_sq * vx * wt.wg, grid)
    return j21 + j22 + j23 + j24, lhs, cubic, mixed


def _prop2_sample(center: SystemState, h: float, wt: _Weights, dj2: float,
                  config: VirialConfig, params: ModelParams) -> IdentityResidualSample:
    """Prop2 residual at a window centre from dJ2/dt and the weights there."""
    j2_int, lhs, cubic, mixed = _j2_pieces(center, config, params, wt)
    rhs = -dj2 + j2_int + cubic - mixed
    return IdentityResidualSample(center.time, lhs, rhs, lhs - rhs, h)


def identity_residual_prop2(
    states: list[SystemState], config: VirialConfig, params: ModelParams
) -> IdentityResidualSample:
    """Residual of the v-functional identity

        (3 theta2/t) int v_x^2 w' g = -dJ2/dt + J2_int
            + (2 theta2/t) int (v^3/3 - gamma |u|^2 v) w' g
            - (2 theta2 gamma/eta) int |u|^2 v_x w g

    evaluated at the center of a 5-snapshot window (t >= 2)."""
    h, wt, dj2 = _window_dt(states, config, params, functional_J2)
    return _prop2_sample(states[2], h, wt, dj2, config, params)


def _j3_pieces(state: SystemState, config: VirialConfig, params: ModelParams, wt: _Weights):
    grid = state.grid
    t = state.time
    th3 = config.theta3_value(params)
    u = state.u.samples
    u_sq = np.abs(u) ** 2
    ux, vx = state.u.dx, state.v.dx.real
    im_dens = np.imag(u * np.conj(ux))
    re_dens = np.real(u * np.conj(ux))

    # J_{3,1}: theta3 int Im(u conj(u_x)) d/dt[(1/eta) w g]
    dwg_over_eta_dt = -(1.0 / wt.eta) * (
        (config.r1 / t) * wt.wg
        + (config.p1 / t) * wt.x1 * wt.wpg
        + (config.p1 * config.p2 / t) * wt.x2 * wt.w * wt.gp
    )
    j31 = th3 * integrate(im_dens * dwg_over_eta_dt, grid)
    j321 = -2.0 * th3 / (wt.eta * wt.l2) * integrate(np.abs(ux) ** 2 * wt.w * wt.gp, grid)
    j322 = -th3 / wt.eta * integrate(re_dens * wt.d2, grid)
    j323 = -params.beta * th3 / (2.0 * wt.eta * wt.l2) * integrate(u_sq**2 * wt.w * wt.gp, grid)

    grad_term = 2.0 * th3 / t * integrate(np.abs(ux) ** 2 * wt.wpg, grid)
    quartic_term = params.beta * th3 / (2.0 * t) * integrate(u_sq**2 * wt.wpg, grid)
    mixed = th3 * params.alpha / wt.eta * integrate(u_sq * vx * wt.wg, grid)
    return j31 + j321 + j322 + j323, grad_term, quartic_term, mixed


def _prop3_sample(center: SystemState, h: float, wt: _Weights, dj3: float,
                  config: VirialConfig, params: ModelParams) -> IdentityResidualSample:
    """Prop3 residual at a window centre from dJ3/dt and the weights there."""
    j3_int, grad_term, quartic_term, mixed = _j3_pieces(center, config, params, wt)
    lhs = grad_term + quartic_term
    rhs = -dj3 + j3_int + mixed
    return IdentityResidualSample(center.time, lhs, rhs, lhs - rhs, h)


def identity_residual_prop3(
    states: list[SystemState], config: VirialConfig, params: ModelParams
) -> IdentityResidualSample:
    """Residual of the u-functional identity

        (2 theta3/t) int |u_x|^2 w' g + (beta theta3/2t) int |u|^4 w' g
            = -dJ3/dt + J3_int + (theta3 alpha/eta) int |u|^2 v_x w g
    """
    h, wt, dj3 = _window_dt(states, config, params, functional_J3)
    return _prop3_sample(states[2], h, wt, dj3, config, params)


@dataclass(frozen=True)
class CombinedResidual:
    sample: IdentityResidualSample
    coefficient_sum: float  # -2 theta2 gamma + theta3 alpha; zero under 'auto'
    prop2: IdentityResidualSample
    prop3: IdentityResidualSample


def identity_residual_combined(
    states: list[SystemState], config: VirialConfig, params: ModelParams
) -> CombinedResidual:
    """Summed identity with theta3 = 2*theta2*gamma/alpha, under which the
    mixed int |u|^2 v_x w g terms cancel."""
    if config.theta3 != "auto":
        raise ValueError("the combined identity requires theta3='auto'")
    th3 = config.theta3_value(params)
    coeff = -2.0 * config.theta2 * params.gamma + th3 * params.alpha
    h, wt, dj2, dj3 = _window_dt(states, config, params, functional_J2, functional_J3)
    r2 = _prop2_sample(states[2], h, wt, dj2, config, params)
    r3 = _prop3_sample(states[2], h, wt, dj3, config, params)
    sample = IdentityResidualSample(
        time=r2.time,
        lhs=r2.lhs + r3.lhs,
        rhs=r2.rhs + r3.rhs,
        residual=r2.residual + r3.residual,
        dt_used=r2.dt_used,
    )
    return CombinedResidual(sample=sample, coefficient_sum=coeff, prop2=r2, prop3=r3)


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


def phase_current_rate(state: SystemState, params: ModelParams) -> np.ndarray:
    """Spatial expression for d/dt Im(u * conj(u_x)):

        -d^2/dx^2 Re(u conj(u_x)) + 2 d/dx |u_x|^2
            + alpha |u|^2 v_x + (beta/2) d/dx |u|^4
    """
    grid = state.grid
    u, ux, vx = state.u.samples, state.u.dx, state.v.dx.real
    u_sq = np.abs(u) ** 2
    term1 = -derivative_samples(grid, np.real(u * np.conj(ux)), 2).real
    term2 = 2.0 * derivative_samples(grid, np.abs(ux) ** 2, 1).real
    term4 = 0.5 * params.beta * derivative_samples(grid, u_sq**2, 1).real
    return term1 + term2 + params.alpha * u_sq * vx + term4
