"""Exact travelling waves of the coupled system with both fields non-zero,
shared by the tests that check the stepper, the drift law and the smallness
criterion against a closed form that involves every coupling term.

With xi = x - c t and u = U(xi) exp(i (q x - omega t)), q = c/2, substituting
sech profiles into the system gives two families:

- beta = 0, kappa > 0, (2 alpha + 1)/gamma > 0:
  U = A sech^2(kappa xi), v = -(6 kappa^2/alpha) sech^2(kappa xi),
  c = 4 kappa^2, omega = q^2 - 4 kappa^2,
  A^2 = 18 kappa^4 (2 alpha + 1)/(alpha^2 gamma);
- beta < 0, alpha > -1/6:
  U = A sech(kappa xi), v = 12 kappa^2 sech^2(kappa xi),
  A^2 = -2 kappa^2 (1 + 6 alpha)/beta, c = 4 kappa^2 + gamma (1 + 6 alpha)/(6 beta),
  omega = q^2 - kappa^2.  It stands still (c = 0) at the kappa^2 of
  ``standing_kappa_sq``.
"""

import numpy as np


def wave_speed(params, kappa_sq: float) -> float:
    """The speed c of the wave with parameter kappa^2."""
    if params.beta == 0:
        return 4.0 * kappa_sq
    return 4.0 * kappa_sq + params.gamma * (1.0 + 6.0 * params.alpha) / (6.0 * params.beta)


def standing_kappa_sq(params) -> float:
    """kappa^2 = gamma (1 + 6 alpha)/(24 |beta|) of the beta < 0 wave that stands still."""
    return params.gamma * (1.0 + 6.0 * params.alpha) / (24.0 * abs(params.beta))


def amplitude_sq(params, kappa_sq: float) -> float:
    """A^2, the squared peak of |u|."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    if beta == 0:
        return 18.0 * kappa_sq**2 * (2.0 * alpha + 1.0) / (alpha**2 * gamma)
    return -2.0 * kappa_sq * (1.0 + 6.0 * alpha) / beta


def solitary_wave(params, kappa_sq: float, x: np.ndarray, t: float = 0.0):
    """The samples (u, v) of the wave at time ``t`` on the points ``x``,
    centred at x = 0 at t = 0; beta > 0 has no wave here."""
    if params.beta > 0:
        raise ValueError("the closed forms need beta <= 0")
    kappa = np.sqrt(kappa_sq)
    c = wave_speed(params, kappa_sq)
    q = 0.5 * c
    amp = np.sqrt(amplitude_sq(params, kappa_sq))
    sech = 1.0 / np.cosh(kappa * (x - c * t))
    if params.beta == 0:
        omega = q**2 - 4.0 * kappa_sq
        u_profile, v = amp * sech**2, -(6.0 * kappa_sq / params.alpha) * sech**2
    else:
        omega = q**2 - kappa_sq
        u_profile, v = amp * sech, 12.0 * kappa_sq * sech**2
    return u_profile * np.exp(1j * (q * x - omega * t)), v
