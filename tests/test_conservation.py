"""Tests for invariants, the interpolation constant and the smallness
criterion."""

import warnings

import numpy as np
import pytest

from skdv.conservation import (
    apriori_monitor,
    c_alpha_beta_gamma,
    energy,
    estimate_gn_constant,
    invariant_sample,
    mass,
    phi_of_norms,
    phi_smallness,
    q_momentum,
)
from skdv.model import InitialData, ModelParams, make_initial_data
from skdv.spectral import (
    ComplexField,
    RealField,
    SpectralGrid,
    derivative_samples,
    h1_norm,
    integrate,
)


@pytest.fixture
def grid():
    return SpectralGrid(512, 32.0)


class TestInvariants:
    def test_mass_gaussian(self, grid):
        # int |A exp(-(x/w)^2)|^2 = A^2 w sqrt(pi/2)
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, width_u=2.0), grid
        )
        assert mass(state) == pytest.approx(0.25 * 2.0 * np.sqrt(np.pi / 2.0), rel=1e-13)

    def test_q_plane_wave_sign(self, grid):
        # u = exp(i kappa x) phi: Im(u conj(u_x)) = -kappa phi^2
        state = make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=1.0, amplitude_v=0.0,
                        carrier=1.0), grid
        )
        params = ModelParams(1.0, 0.0, 1.0)
        expected = -2.0 * 1.0 * np.sqrt(np.pi / 2.0)
        assert q_momentum(state, params) == pytest.approx(expected, rel=1e-12)

    def test_q_with_v(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.0, amplitude_v=0.5), grid
        )
        params = ModelParams(2.0, 0.0, 1.0)
        assert q_momentum(state, params) == pytest.approx(
            2.0 * 0.25 * np.sqrt(np.pi / 2.0), rel=1e-12
        )

    def test_energy_closed_form(self, grid):
        # u = exp(-x^2), v = exp(-x^2): each term has a Gaussian closed form
        state = make_initial_data(InitialData(family="gaussian"), grid)
        a, b, g = 2.0, -1.0, 0.5
        i2 = np.sqrt(np.pi / 2.0)  # int exp(-2x^2)
        i3 = np.sqrt(np.pi / 3.0)  # int exp(-3x^2)
        i4 = np.sqrt(np.pi / 4.0)  # int exp(-4x^2)
        grad = np.sqrt(np.pi / 2.0)  # int 4 x^2 exp(-2x^2) = sqrt(pi/2)
        expected = (
            a * g * i3 - (a / 6.0) * i3 + (b * g / 2.0) * i4
            + (a / 2.0) * grad + g * grad
        )
        assert energy(state, ModelParams(a, b, g)) == pytest.approx(expected, rel=1e-12)

    def test_invariant_sample_fields(self, grid):
        state = make_initial_data(InitialData(family="gaussian"), grid)
        s = invariant_sample(state, ModelParams(1.0, 0.0, 1.0))
        assert s.mass == pytest.approx(mass(state))
        assert s.u_h1 == pytest.approx(h1_norm(state.u))


class TestGnConstant:
    def test_below_sharp_bound(self, grid):
        # the optimal L4 interpolation constant is below 1 in this
        # normalization; the sweep estimate must stay under it and above
        # the value attained by a plain Gaussian
        c = estimate_gn_constant(grid)
        assert 0.8 < c < 1.0

    def test_is_a_lower_bound(self, grid):
        # adding profiles can only increase the estimate: it is at least the
        # best ratio of the Gaussians alone, taken here with the same
        # quadrature.  That ratio is scale invariant, pi^(-1/8) in closed form;
        # the narrowest width, 2 cells, reads 2e-5 above it.
        def ratio(f):
            l2 = np.sqrt(integrate(f**2, grid))
            dl2 = np.sqrt(integrate(derivative_samples(grid, f).real ** 2, grid))
            return integrate(f**4, grid) ** 0.25 / (dl2**0.25 * l2**0.75)

        gaussian = max(ratio(np.exp(-((grid.x / w) ** 2))) for w in np.geomspace(0.25, 8.0, 25))
        assert gaussian == pytest.approx(np.pi**-0.125, rel=1e-4)
        assert estimate_gn_constant(grid) >= gaussian

    def test_skips_profiles_the_box_truncates(self):
        # a profile with more than 1e-6 of its squared mass in the outer
        # tenth of the box is cut off by it and can read above the sharp
        # constant 3^(-1/8); wide sech profiles did so on the small boxes
        assert estimate_gn_constant(SpectralGrid(64, 8.0)) < 1.0
        assert estimate_gn_constant(SpectralGrid(256, 16.0)) == pytest.approx(3**-0.125, abs=2e-6)
        assert estimate_gn_constant(SpectralGrid(1024, 64.0)) == 0.8716864478003714
        assert estimate_gn_constant(SpectralGrid(64, 0.75)) == pytest.approx(0.866675, abs=1e-6)

    def test_box_too_small_for_every_profile(self):
        # on (64, 0.5) the box truncates all 75 profiles: no estimate, rather
        # than a C_gn of 0 that would satisfy any smallness criterion
        with pytest.raises(ValueError, match="enlarge the box"):
            estimate_gn_constant(SpectralGrid(64, 0.5))

    def test_large_box_warns_nothing(self):
        # on criterion 07's grid cosh overflows far out; 1/inf = 0 is the
        # exact limit of the sech profiles, so the sweep emits no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = estimate_gn_constant(SpectralGrid(8192, 1024.0))
        assert 0.8 < c < 1.0


def _reference_constant(alpha, beta, gamma, c):
    """Independent mpmath evaluation of the explicit constant."""
    import mpmath as mp

    mp.mp.dps = 50
    a, b, g = abs(mp.mpf(alpha)), abs(mp.mpf(beta)), abs(mp.mpf(gamma))
    c = mp.mpf(c)
    mu = min(g, a / 2)
    t1 = 2 + 2 * g / a + 8 * g**2 / a**2
    t2 = (4 * (c * a * g + 2 * a + 3 * g + 32 * g**2 / mu) + 2 * b * g * c) / mu
    t3 = 32 * (a * g**2 + b * g / 2) ** 2 / mu**2 * c**8
    t4 = (
        c**24 * 2**22 / (mu ** mp.mpf("4/3") * a ** mp.mpf("1/3"))
        * ((a + 2 * g) ** mp.mpf("5/3") + g**10 / (mu ** mp.mpf("20/3") * a ** mp.mpf("5/3")))
    )
    return t1 + t2 + t3 + t4


class TestExplicitConstant:
    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [(1.0, -0.1, 1.0), (2.0, -1.0, 0.5), (0.7, -0.3, 1.3)],
    )
    def test_matches_high_precision(self, alpha, beta, gamma):
        params = ModelParams(alpha, beta, gamma)
        got = c_alpha_beta_gamma(params, 0.9)
        ref = float(_reference_constant(alpha, beta, gamma, 0.9))
        assert abs(got - ref) / ref < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            c_alpha_beta_gamma(ModelParams(0.0, 0.0, 1.0), 0.9)


class TestPhi:
    def test_zero_norms(self, grid):
        rep = phi_smallness(make_initial_data(InitialData(family="zero"), grid),
                            ModelParams(1.0, -1.0, 1.0))
        assert rep.phi == 0.0
        assert rep.satisfied  # 0 <= alpha gamma

    @pytest.mark.parametrize("params", [ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, 0.5, 1.0),
                                        ModelParams(-1.0, -0.1, 1.0)],
                             ids=["beta-zero", "beta-positive", "alpha-gamma-negative"])
    def test_no_verdict_outside_the_regime(self, grid, params):
        # the criterion is stated for beta < 0 and alpha*gamma > 0 only; at
        # beta = 0, -beta*Phi = -0 <= alpha*gamma would read as satisfied
        rep = phi_smallness(make_initial_data(InitialData(family="zero"), grid), params)
        assert rep.phi == 0.0
        assert not rep.applicable and not rep.satisfied

    def test_built_from_the_initial_state(self):
        # the README data at beta = -0.1: the report's Phi is phi_of_norms
        # of the H1 norms and the explicit constant at the grid's C_gn
        grid, params = SpectralGrid(1024, 64.0), ModelParams(1.0, -0.1, 1.0)
        state0 = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5), grid)
        rep = phi_smallness(state0, params)
        c_gn = estimate_gn_constant(grid)
        c_abg = c_alpha_beta_gamma(params, c_gn)
        assert rep.phi == phi_of_norms(h1_norm(state0.u), h1_norm(state0.v), c_abg)
        assert (rep.c_gn, rep.c_abg) == (c_gn, c_abg)
        assert rep.criterion_lhs == 0.1 * rep.phi and not rep.satisfied

    def test_monotone_in_each_argument(self, grid):
        # a larger amplitude of u, or of v, gives a larger Phi
        def phi(amp_u, amp_v):
            data = InitialData(family="gaussian", amplitude_u=amp_u, amplitude_v=amp_v)
            return phi_smallness(make_initial_data(data, grid), ModelParams(1.0, -0.1, 1.0)).phi

        assert phi(0.2, 0.1) > phi(0.1, 0.1) < phi(0.1, 0.2)

    def test_phi_of_norms_formula(self):
        assert phi_of_norms(0.5, 0.25, 4.0) == pytest.approx(
            2.0 * (0.5 + 0.25 + 0.5**5 + 0.25**5)
        )


class TestAprioriMonitor:
    def test_trivial_hold(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.01, amplitude_v=0.01), grid
        )
        rep = apriori_monitor([state], ModelParams(1.0, 0.0, 1.0), phi=10.0)
        assert rep.holds
        assert rep.v_bound_holds
        assert rep.tightest_margin > 9.0

    def test_violation_detected(self, grid):
        state = make_initial_data(InitialData(family="gaussian"), grid)
        rep = apriori_monitor([state], ModelParams(1.0, 0.0, 1.0), phi=1e-3)
        assert not rep.holds

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            apriori_monitor([], ModelParams(1.0, 0.0, 1.0), 1.0)
