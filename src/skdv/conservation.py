"""Invariants, the a priori H1 bound and the explicit smallness criterion.

The three conserved quantities of the coupled system are

    M(t) = int |u|^2
    Q(t) = int alpha*v^2 + 2*gamma*Im(u * conj(u_x))
    E(t) = int alpha*gamma*v*|u|^2 - alpha/6*v^3 + beta*gamma/2*|u|^4
               + alpha/2*(v_x)^2 + gamma*|u_x|^2

and the smallness criterion for beta < 0 reads  -beta*Phi <= alpha*gamma,
with Phi an explicit function of the initial H1 norms built from
Gagliardo-Nirenberg constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, SystemState
from .spectral import SpectralGrid, derivative_samples, h1_norm, integrate, l2_norm

__all__ = [
    "InvariantSample",
    "SmallnessReport",
    "mass",
    "q_momentum",
    "energy",
    "invariant_sample",
    "estimate_gn_constant",
    "c_alpha_beta_gamma",
    "c_alpha_beta_gamma_intro",
    "phi_smallness",
    "apriori_monitor",
    "AprioriReport",
]


@dataclass(frozen=True)
class InvariantSample:
    time: float
    mass: float
    q_momentum: float
    energy: float
    u_h1: float
    v_h1: float


def mass(state: SystemState) -> float:
    """M = int |u|^2 dx."""
    return float(integrate(np.abs(state.u.samples) ** 2, state.grid))


def q_momentum(state: SystemState, params: ModelParams) -> float:
    """Q = int alpha*v^2 + 2*gamma*Im(u * conj(u_x)) dx."""
    u, v = state.u.samples, state.v.samples
    dens = params.alpha * v**2 + 2.0 * params.gamma * np.imag(u * np.conj(state.u.dx))
    return float(integrate(dens, state.grid))


def energy(state: SystemState, params: ModelParams) -> float:
    """Five-term conserved energy, evaluated spectrally."""
    grid = state.grid
    u, v = state.u.samples, state.v.samples
    u_sq = np.abs(u) ** 2
    ux, vx = state.u.dx, state.v.dx.real
    a, b, g = params.alpha, params.beta, params.gamma
    dens = (
        a * g * v * u_sq
        - (a / 6.0) * v**3
        + (b * g / 2.0) * u_sq**2
        + (a / 2.0) * vx**2
        + g * np.abs(ux) ** 2
    )
    return float(integrate(dens, grid))


def invariant_sample(state: SystemState, params: ModelParams) -> InvariantSample:
    return InvariantSample(
        time=state.time,
        mass=mass(state),
        q_momentum=q_momentum(state, params),
        energy=energy(state, params),
        u_h1=h1_norm(state.u),
        v_h1=h1_norm(state.v),
    )


def _interpolation_ratio(grid: SpectralGrid, samples: np.ndarray, variant: str) -> float:
    """||f||_Lp / (||f'||^a ||f||^b) for the two interpolation inequalities
    used by the smallness analysis (p=4: a,b = 1/4,3/4; p=3: 1/6,5/6)."""
    l2 = float(np.sqrt(integrate(samples**2, grid)))
    dl2 = float(np.sqrt(integrate(derivative_samples(grid, samples, 1).real ** 2, grid)))
    if l2 == 0.0 or dl2 == 0.0:
        return 0.0
    if variant == "l4":
        lp = float(integrate(samples**4, grid)) ** 0.25
        return lp / (dl2**0.25 * l2**0.75)
    if variant == "l3":
        lp = float(integrate(np.abs(samples) ** 3, grid)) ** (1.0 / 3.0)
        return lp / (dl2 ** (1.0 / 6.0) * l2 ** (5.0 / 6.0))
    raise ValueError(f"unknown variant {variant!r}")


def estimate_gn_constant(
    grid: SpectralGrid,
    variant: str = "l4",
    widths: np.ndarray | None = None,
    families: tuple[str, ...] = ("gaussian", "sech", "sech2"),
) -> float:
    """Lower estimate of the optimal interpolation constant by maximizing
    the ratio over parametric profiles with widths swept log-uniformly.

    Deterministic given the sweep grid; the returned value is a certified
    lower bound of the supremum (the true optimal constant is >= this).
    """
    if widths is None:
        widths = np.geomspace(0.25, 8.0, 25)
    x = grid.x
    best = 0.0
    for fam in families:
        for w in widths:
            if fam == "gaussian":
                prof = np.exp(-((x / w) ** 2))
            elif fam == "sech":
                prof = 1.0 / np.cosh(x / w)
            elif fam == "sech2":
                prof = 1.0 / np.cosh(x / w) ** 2
            else:
                raise ValueError(f"unknown profile family {fam!r}")
            best = max(best, _interpolation_ratio(grid, prof, variant))
    return best


def _mu(params: ModelParams) -> float:
    return min(abs(params.gamma), abs(params.alpha) / 2.0)


def c_alpha_beta_gamma(params: ModelParams, c_gn: float) -> float:
    """The explicit constant from the a priori derivation (authoritative
    form; used by the smallness criterion)."""
    a, b, g = abs(params.alpha), abs(params.beta), abs(params.gamma)
    mu = _mu(params)
    if mu == 0.0:
        raise ValueError("degenerate parameters: min(|gamma|, |alpha|/2) = 0")
    term1 = 2.0 + 2.0 * g / a + 8.0 * g**2 / a**2
    term2 = (4.0 * (c_gn * a * g + 2.0 * a + 3.0 * g + 32.0 * g**2 / mu) + 2.0 * b * g * c_gn) / mu
    term3 = 32.0 * (a * g**2 + b * g / 2.0) ** 2 / mu**2 * c_gn**8
    term4 = (
        c_gn**24
        * 2.0**22
        / (mu ** (4.0 / 3.0) * a ** (1.0 / 3.0))
        * ((a + 2.0 * g) ** (5.0 / 3.0) + g**10 / (mu ** (20.0 / 3.0) * a ** (5.0 / 3.0)))
    )
    return term1 + term2 + term3 + term4


def c_alpha_beta_gamma_intro(params: ModelParams, c_gn: float) -> float:
    """Variant of the constant as summarized up front, whose generic
    prefactor C is taken to be c_gn; reported alongside the other form
    since the two printed versions differ."""
    a, b, g = abs(params.alpha), abs(params.beta), abs(params.gamma)
    mu = _mu(params)
    if mu == 0.0:
        raise ValueError("degenerate parameters: min(|gamma|, |alpha|/2) = 0")
    term1 = 2.0 * (1.0 + g / a + 4.0 * g**2 / a**2)
    term2 = (4.0 * (c_gn * a * g + 2.0 * a + 3.0 * g + 32.0 * g**2 / mu) + c_gn * b * g) / mu
    term3 = (a * g**2 + b * g / 2.0) ** 2 / mu**2 * c_gn
    term4 = (
        c_gn
        / (mu ** (4.0 / 3.0) * a ** (1.0 / 3.0))
        * ((a + 2.0 * g) ** (5.0 / 3.0) + g**10 / (mu ** (20.0 / 3.0) * a ** (5.0 / 3.0)))
    )
    return term1 + term2 + term3 + term4


@dataclass(frozen=True)
class SmallnessReport:
    c_gn: float
    c_abg: float
    c_abg_intro: float
    phi: float
    criterion_lhs: float  # -beta * phi
    criterion_rhs: float  # alpha * gamma
    satisfied: bool


def phi_of_norms(u0_h1: float, v0_h1: float, c_abg: float) -> float:
    return float(np.sqrt(c_abg) * (u0_h1 + v0_h1 + u0_h1**5 + v0_h1**5))


def phi_smallness(
    u0_h1: float, v0_h1: float, params: ModelParams, c_gn: float
) -> SmallnessReport:
    """Evaluate Phi and the criterion -beta*Phi <= alpha*gamma.

    Criterion mode expects alpha*gamma > 0 and beta < 0; Phi itself is
    well defined whenever mu = min(|gamma|, |alpha|/2) > 0.
    """
    if u0_h1 < 0 or v0_h1 < 0:
        raise ValueError("norms must be nonnegative")
    c_main = c_alpha_beta_gamma(params, c_gn)
    c_intro = c_alpha_beta_gamma_intro(params, c_gn)
    phi = phi_of_norms(u0_h1, v0_h1, c_main)
    lhs = -params.beta * phi
    rhs = params.alpha * params.gamma
    return SmallnessReport(
        c_gn=c_gn,
        c_abg=c_main,
        c_abg_intro=c_intro,
        phi=phi,
        criterion_lhs=lhs,
        criterion_rhs=rhs,
        satisfied=bool(lhs <= rhs),
    )


@dataclass(frozen=True)
class AprioriReport:
    phi: float
    max_norm_sum: float
    tightest_margin: float
    holds: bool
    v_bound_holds: bool  # ||v||^2 <= (|Q(0)| + 2|gamma| ||u0|| ||u_x||)/|alpha|


def apriori_monitor(
    states: list[SystemState], params: ModelParams, phi: float
) -> AprioriReport:
    """Check the bound ||u||_H1 + ||v||_H1 <= Phi at every snapshot, plus
    the derived pointwise-in-time L2 bound on v."""
    if not states:
        raise ValueError("empty trajectory")
    u0_l2 = l2_norm(states[0].u)
    q0 = abs(q_momentum(states[0], params))
    max_sum = 0.0
    v_ok = True
    for s in states:
        max_sum = max(max_sum, h1_norm(s.u) + h1_norm(s.v))
        ux_l2 = float(np.sqrt(integrate(np.abs(s.u.dx) ** 2, s.grid)))
        bound = (q0 + 2.0 * abs(params.gamma) * u0_l2 * ux_l2) / abs(params.alpha)
        if l2_norm(s.v) ** 2 > bound * (1.0 + 1e-10) + 1e-12:
            v_ok = False
    return AprioriReport(
        phi=phi,
        max_norm_sum=max_sum,
        tightest_margin=phi - max_sum,
        holds=max_sum <= phi,
        v_bound_holds=v_ok,
    )
